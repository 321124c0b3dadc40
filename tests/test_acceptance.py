"""Acceptance suite: one checked criterion per test, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
timings. Every tolerance is exact (integer equality / verified certificates);
nothing here is statistical.
"""

import random
import time
from itertools import combinations

from boxlab import (
    ResourceBudgetError,
    boxicity_exact,
    compressed_box_bound,
    compressed_zn,
    factor,
    generalized_join,
    graph_of_intervals,
    is_box_one,
    is_interval_graph,
    make_graph,
    make_plan,
    omega_chi_certificate,
    reduced_cover,
    reduced_graph,
    skip_join_cover,
    verify_cover,
    zdg_zn,
    zn_join_cover,
    zn_prime_cover,
)
from boxlab.circular import chi_cover, circular_chi
from boxlab.graphs import complete_multipartite, cycle_graph, is_clique

from oracles import atlas_connected, clique_sum_lower_bound, connected_labeled_graphs


def _report(num: int, name: str, ok: bool, started: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    elapsed = time.time() - started
    print(f"\nACCEPTANCE {num} {status} {name} ({elapsed:.1f}s){' ' + detail if detail else ''}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_circular_cover_sweep():
    started = time.time()
    cases = failures = 0
    for d in range(2, 7):
        for k in range(2 * d, 31):
            cases += 1
            cover = chi_cover(k, d)
            good = (
                len(cover) == circular_chi(k, d)
                and verify_cover(cover)[0]
                and all(is_interval_graph(graph_of_intervals(r))[0] for r in cover.reps)
            )
            if not good:
                failures += 1
    _report(1, "circular covers have chromatic size and verify", failures == 0, started,
            f"{cases} cases")


def test_criterion_2_boxicity_oracle_ground_truth():
    started = time.time()
    checked = 0
    ok = True
    for n in range(1, 6):
        for g in connected_labeled_graphs(n):
            value, cover = boxicity_exact(g, max_l=4)
            ok = ok and (value == 1) == is_interval_graph(g)[0] and verify_cover(cover)[0]
            checked += 1
    for g in atlas_connected(6):
        value, cover = boxicity_exact(g, max_l=4)
        ok = ok and (value == 1) == is_interval_graph(g)[0] and verify_cover(cover)[0]
        checked += 1
    ok = ok and boxicity_exact(cycle_graph(4))[0] == 2
    ok = ok and boxicity_exact(complete_multipartite([2, 2, 2]))[0] == 3
    _report(2, "boxicity agrees with recognition on small graphs", ok, started,
            f"{checked} graphs + pinned values")


def test_criterion_3_omega_chi_certificates():
    started = time.time()
    count = 0
    ok = True
    for n in range(4, 5001):
        f = factor(n)
        if f.is_prime:
            continue
        value, clique, coloring = omega_chi_certificate(compressed_zn(n))
        ok = ok and len(clique) == value and coloring.num_colors == value
        count += 1
    _report(3, "clique/coloring certificates for all composite N <= 5000", ok, started,
            f"{count} composites")


def test_criterion_4_interval_characterization():
    started = time.time()
    mismatches = []
    for n in range(4, 301):
        f = factor(n)
        if f.is_prime:
            continue
        if is_box_one(compressed_zn(n)) != is_interval_graph(zdg_zn(n)[0])[0]:
            mismatches.append(n)
    reps_ok = True
    for n in range(4, 301):
        f = factor(n)
        if f.is_prime or not f.is_prime_power:
            continue
        cover = zn_prime_cover(compressed_zn(n))
        reps_ok = reps_ok and len(cover) == 1 and graph_of_intervals(cover.reps[0]) == zdg_zn(n)[0]
    _report(4, "box-one classifier matches recognition; prime power reps exact",
            not mismatches and reps_ok, started, f"mismatches={mismatches}")


def test_criterion_5_divisor_covers_within_bound():
    started = time.time()
    count = 0
    ok = True
    for n in range(4, 201):
        f = factor(n)
        if f.is_prime or f.is_prime_power:
            continue
        cover = zn_join_cover(compressed_zn(n))
        ok = ok and verify_cover(cover)[0] and len(cover) <= compressed_box_bound(compressed_zn(n))
        count += 1
    _report(5, "divisor-class covers verify within the closed-form bound", ok, started,
            f"{count} cases")


def test_criterion_6_join_synthesis():
    started = time.time()
    rng = random.Random(20250810)

    def random_graph(n):
        pairs = list(combinations(range(n), 2))
        return make_graph(n, [e for e in pairs if rng.random() < 0.5])

    ok = True
    sandwiches = 0
    for _ in range(200):
        outer = random_graph(rng.randint(1, 4))
        parts = [random_graph(rng.randint(1, 4)) for _ in range(outer.n)]
        cover = skip_join_cover(outer, parts)
        ok = ok and verify_cover(cover)[0]
        ok = ok and len(cover) == sum(len(reps) for reps in make_plan(outer, parts))

        skip = []
        for i, p in enumerate(parts):
            if p.is_complete() and is_clique(outer, skip + [i]):
                skip.append(i)
        if skip and len(skip) < outer.n:
            cover2 = skip_join_cover(outer, parts, skip=skip)
            ok = ok and verify_cover(cover2)[0]

        joined, _ = generalized_join(outer, parts)
        part_box = [(boxicity_exact(p, 4)[0], p.is_complete()) for p in parts]
        bound = clique_sum_lower_bound(outer, part_box)
        try:
            res = boxicity_exact(joined, max_l=8)
            if res is not None:
                ok = ok and bound <= res[0] <= len(cover)
                sandwiches += 1
        except ResourceBudgetError:
            pass
    _report(6, "join covers verify; oracle sandwich where budget allows", ok, started,
            f"200 instances, {sandwiches} sandwiches")


def test_criterion_7_reduced_covers():
    started = time.time()
    checked = 0
    ok = True
    for n in range(1, 6):
        for g in connected_labeled_graphs(n):
            cover = reduced_cover(g)
            ok = ok and verify_cover(cover)[0] and len(cover) == reduced_graph(g)[0].n
            checked += 1
    for g in atlas_connected(6):
        cover = reduced_cover(g)
        ok = ok and verify_cover(cover)[0] and len(cover) == reduced_graph(g)[0].n
        checked += 1
    _report(7, "reduced covers verify with quotient size", ok, started, f"{checked} graphs")
