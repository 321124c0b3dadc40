import dataclasses
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxlab.zdg
from boxlab import (
    ConstructionDefectError,
    Graph,
    InputError,
    augmenting_divisor,
    boolean_ring_graph,
    boxicity_exact,
    chromatic_number_exact,
    clique_number_exact,
    complete_graph,
    compressed_box_bound,
    compressed_zn,
    cover_to_json,
    expand_compressed,
    factor,
    graph_of_intervals,
    is_box_one,
    is_interval_graph,
    make_graph,
    omega_chi_certificate,
    reduced_cover,
    reduced_ring_box_bounds,
    threshold_rep,
    verify_cover,
    zdg_zn,
    zn_join_cover,
    zn_prime_cover,
    zn_report,
)

import oracles
from boxlab.graphs import COVER_ENTRY_BUDGET
from oracles import net_graph


def test_zdg_zn_matches_edge_set_version():
    # primes give the empty graph; 4 has one vertex; 2310 = 2*3*5*7*11 has
    # 1829 vertices, whose rows step by each divisor from 2 to 1155
    for n in [*range(2, 1001), 2310]:
        assert zdg_zn(n) == oracles.zdg_zn(n)


@pytest.mark.parametrize("k", range(2, 9))
def test_boolean_ring_graph_matches_edge_set_version(k):
    assert boolean_ring_graph(k) == oracles.boolean_ring_graph(k)


def test_factor_examples():
    f72 = factor(72)
    assert f72.even_part == ((3, 1),) and f72.odd_part == ((2, 1),)
    assert f72.a == 1 and f72.b == 1
    f12 = factor(12)
    assert f12.even_part == ((2, 1),) and f12.odd_part == ((3, 0),)
    f7 = factor(7)
    assert f7.is_prime and f7.even_part == () and f7.odd_part == ((7, 0),)
    with pytest.raises(InputError):
        factor(1)


def test_zdg_zn_12_frozen():
    g, labels = zdg_zn(12)
    assert labels == (2, 3, 4, 6, 8, 9, 10)
    named = sorted((labels[u], labels[v]) for u, v in g.edges)
    assert named == [(2, 6), (3, 4), (3, 8), (4, 6), (4, 9), (6, 8), (6, 10), (8, 9)]


def test_zdg_zn_9_and_prime():
    g, labels = zdg_zn(9)
    assert labels == (3, 6) and g == complete_graph(2)
    g, labels = zdg_zn(13)
    assert labels == () and g.n == 0


def test_compressed_12_frozen():
    c = compressed_zn(12)
    assert c.divisors == (2, 3, 4, 6)
    named = sorted((c.divisors[u], c.divisors[v]) for u, v in c.graph.edges)
    assert named == [(2, 6), (3, 4), (4, 6)]
    assert c.sizes == (2, 2, 2, 1)
    assert c.complete == (False, False, False, True)


def test_compressed_prime_square_and_8():
    c = compressed_zn(25)
    assert c.divisors == (5,) and c.sizes == (4,) and c.complete == (True,)
    c8 = compressed_zn(8)
    assert c8.divisors == (2, 4)
    assert c8.graph.sorted_edges() == [(0, 1)]
    assert c8.complete == (False, True)
    with pytest.raises(InputError):
        compressed_zn(7)


def test_expand_matches_direct():
    for n in (8, 9, 12, 16, 30, 36, 72, 100):
        g = expand_compressed(compressed_zn(n))
        assert g == zdg_zn(n)[0]


def test_expand_refuses_a_corrupted_record():
    # the record passes; a class's block flipped, and one join edge dropped,
    # each break a row
    c = compressed_zn(72)
    assert expand_compressed(c) is c.direct[0]
    u, v = c.graph.sorted_edges()[0]
    adj = list(c.graph.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    for broken in (
        dataclasses.replace(c, complete=(not c.complete[0], *c.complete[1:])),
        dataclasses.replace(c, graph=Graph.from_adj(adj)),
    ):
        with pytest.raises(
            ConstructionDefectError, match="expanded graph for N=72 disagrees with the direct construction"
        ):
            expand_compressed(broken)


def test_class_sizes_sum_to_zero_divisor_count():
    for n in (12, 16, 45, 72, 90):
        c = compressed_zn(n)
        g, labels = zdg_zn(n)
        assert sum(c.sizes) == len(labels)


def test_expand_sweep_to_500():
    for n in range(4, 501):
        if factor(n).is_prime:
            continue
        assert expand_compressed(compressed_zn(n)) == zdg_zn(n)[0]


def test_divisor_graph_edge_count_matches_the_graph():
    for n in range(4, 3001):
        f = factor(n)
        if not f.is_prime:
            assert f.divisor_graph_edges == compressed_zn(n).graph.num_edges, n
    assert factor(10**12).divisor_graph_edges == 3948


def test_nilpotent_divisors_examples():
    assert compressed_zn(72).nilpotent == (12, 24, 36)
    assert compressed_zn(12).nilpotent == (6,)
    assert compressed_zn(49).nilpotent == (7,)


def test_augmenting_divisor_examples():
    assert augmenting_divisor(factor(72), 1) == 18
    assert augmenting_divisor(factor(12), 1) == 4
    assert augmenting_divisor(factor(8), 1) == 2
    with pytest.raises(InputError):
        augmenting_divisor(factor(72), 2)


def test_omega_chi_certificate_72():
    c = compressed_zn(72)
    value, clique, coloring = omega_chi_certificate(c)
    assert value == 4
    assert clique == (12, 18, 24, 36)
    assert coloring.is_proper(c.graph)
    assert coloring.num_colors == 4


def test_omega_chi_certificate_12_coloring_cases():
    value, clique, coloring = omega_chi_certificate(compressed_zn(12))
    assert value == 2
    assert clique == (4, 6)
    # divisors (2, 3, 4, 6): the class of 3 shares its color with 6, the
    # class of 2 with the augmenting divisor 4
    colors = coloring.colors
    assert colors[1] == colors[3]
    assert colors[0] == colors[2]


def test_omega_chi_certificate_refuses_a_coloring_that_merges_adjacent_classes():
    # 2 and 4 share a colour in Z_72; with the class edge (2, 4) added the
    # colouring is no longer proper, and the pair is the witness
    c = compressed_zn(72)
    u, v = c.divisors.index(2), c.divisors.index(4)
    adj = list(c.graph.adj)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    broken = dataclasses.replace(c, graph=Graph.from_adj(adj))
    with pytest.raises(ConstructionDefectError, match=r"coloring merges adjacent classes \(2, 4\)") as err:
        omega_chi_certificate(broken)
    assert err.value.witness == (2, 4)


def test_omega_chi_two_primes():
    value, clique, _ = omega_chi_certificate(compressed_zn(15))
    assert value == 2 and clique == (3, 5)


def test_omega_chi_matches_exact_solvers():
    for n in (12, 16, 24, 36, 60, 72, 90, 128):
        c = compressed_zn(n)
        value, _, _ = omega_chi_certificate(c)
        assert clique_number_exact(c.graph)[0] == value
        assert chromatic_number_exact(c.graph)[0] == value


def test_omega_chi_certificate_matches_parent():
    # the value, the clique and every colour equal those of the pairwise check
    # and index-list partners, for every composite N <= 2000 and four primorials
    for n in [*range(4, 2001), 2310, 30030, 510510, 9699690]:
        if factor(n).is_prime:
            continue
        c = compressed_zn(n)
        value, clique, coloring = omega_chi_certificate(c)
        want_value, want_clique, want_coloring = oracles.parent_omega_chi_certificate(c)
        assert (value, clique, coloring.colors) == (want_value, want_clique, want_coloring.colors)


def test_box_bound_examples():
    assert compressed_box_bound(compressed_zn(72)) == 7
    assert compressed_box_bound(compressed_zn(12)) == 3
    assert compressed_box_bound(compressed_zn(25)) == 0


def test_zn_join_cover_examples():
    cover = zn_join_cover(compressed_zn(12))
    assert cover.claimed_graph == zdg_zn(12)[0]
    assert len(cover) <= 3 and verify_cover(cover)[0]

    cover45 = zn_join_cover(compressed_zn(45))
    assert len(cover45) <= 3 and verify_cover(cover45)[0]

    cover8 = zn_join_cover(compressed_zn(8))
    assert len(cover8) == 1 and verify_cover(cover8)[0]


def test_zn_join_cover_covers_a_single_complete_class():
    # N = p^2: the one class is nilpotent, nothing lifts, and join_cover's
    # one shared member covers K_(p-1)
    for p in (2, 3, 5, 7, 11):
        cover = zn_join_cover(compressed_zn(p * p))
        assert len(cover) == 1 and verify_cover(cover)[0]
        assert cover.claimed_graph == complete_graph(p - 1)


def test_is_box_one_examples():
    assert is_box_one(compressed_zn(8))
    assert is_box_one(compressed_zn(10))
    assert not is_box_one(compressed_zn(12))
    with pytest.raises(InputError):
        is_box_one(compressed_zn(11))


def test_is_box_one_twice_odd_prime_square():
    # 2p^2 graphs are interval: the complete class of 2p sits on [0, 1],
    # the class of p at points inside it, p^2 bridges to the class of 2
    for n in (18, 50, 98):
        assert is_box_one(compressed_zn(n))
        assert is_interval_graph(zdg_zn(n)[0])[0]
    for n in (36, 54, 100):
        assert not is_box_one(compressed_zn(n))
        assert not is_interval_graph(zdg_zn(n)[0])[0]


def test_prime_power_rep_2_cubed_frozen():
    # the one member that `cover zdg --n 8` emits
    (rep,) = zn_prime_cover(compressed_zn(8)).reps
    # labels (2, 4, 6): the path 2 - 4 - 6
    # scale L = 3: the two low-weight points 1 and 2 inside [0, 3]
    assert rep.intervals[0] == (1, 1)
    assert rep.intervals[1] == (0, 3)
    assert rep.intervals[2] == (2, 2)
    assert graph_of_intervals(rep) == zdg_zn(8)[0]


def test_prime_power_rep_small_cases():
    (rep9,) = zn_prime_cover(compressed_zn(9)).reps
    assert graph_of_intervals(rep9) == complete_graph(2)
    (rep16,) = zn_prime_cover(compressed_zn(16)).reps
    g16, labels = zdg_zn(16)
    assert graph_of_intervals(rep16) == g16
    # scale L = 5 (four elements of weight 1): the lone top-layer element
    # spans two gaps, the middle layer one, and the bottom layer sits in the
    # second gap
    assert rep16.intervals[labels.index(8)] == (0, 10)
    assert rep16.intervals[labels.index(4)] == (0, 5)
    assert [rep16.intervals[labels.index(x)] for x in (2, 6, 10, 14)] == [(6, 6), (7, 7), (8, 8), (9, 9)]


def test_prime_power_rep_sweep():
    for p, e in ((2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (5, 3), (7, 2)):
        (rep,) = zn_prime_cover(compressed_zn(p**e)).reps
        assert graph_of_intervals(rep) == zdg_zn(p**e)[0]


def test_boolean_ring_graphs():
    b2, b2_labels = boolean_ring_graph(2)
    assert b2 == complete_graph(2)
    assert b2_labels == ((1, 0), (0, 1))

    b3, _ = boolean_ring_graph(3)
    relabel = {m: i for i, m in enumerate([1, 2, 3, 4, 5, 6])}
    expected = make_graph(
        6,
        [
            (relabel[1], relabel[2]),
            (relabel[1], relabel[4]),
            (relabel[2], relabel[4]),
            (relabel[1], relabel[6]),
            (relabel[2], relabel[5]),
            (relabel[3], relabel[4]),
        ],
    )
    assert b3 == expected
    # isomorphic to the net: triangle of units with one pendant each
    assert clique_number_exact(b3)[0] == clique_number_exact(net_graph())[0] == 3

    b4, _ = boolean_ring_graph(4)
    assert b4.n == 14
    assert clique_number_exact(b4)[0] == 4


def test_reduced_ring_bounds():
    for k, expected_join in ((2, 2), (3, 6), (4, 14)):
        cover = reduced_ring_box_bounds(k)
        assert len(cover) == k
        assert verify_cover(cover)[0]
        # the join construction: one member per vertex
        join = reduced_cover(boolean_ring_graph(k)[0])
        assert len(join) == expected_join == 2**k - 2
        assert verify_cover(join)[0]
    # box = k fails: Gamma(F_2^2) is K_2 and Gamma(F_2^3) is the net
    for k, box in ((2, 1), (3, 2)):
        value, witness = boxicity_exact(boolean_ring_graph(k)[0])
        assert value == box
        assert verify_cover(witness)[0]


@given(st.lists(st.integers(0, 5), max_size=12), st.integers(0, 6))
@settings(max_examples=150)
def test_threshold_rep_realizes_the_threshold_graph(weights, e):
    expected = make_graph(
        len(weights),
        [(u, v) for u in range(len(weights)) for v in range(u + 1, len(weights))
         if weights[u] + weights[v] >= e],
    )
    assert graph_of_intervals(threshold_rep(weights, e)) == expected


def test_threshold_rep_shares_one_interval_per_high_weight():
    rep = threshold_rep([3, 0, 2, 3, 1, 2, 0], 4)
    assert rep.intervals[0] is rep.intervals[3] and rep.intervals[2] is rep.intervals[5]
    # scale L = 3, one more than the two vertices of weight 0
    assert rep.intervals[0] == (0, 6)
    assert rep.intervals[2] == (0, 3)
    # weight 1 alone in the gap (3, 6), weight 0 twice in the gap (6, 9)
    assert rep.intervals[4] == (4, 4)
    assert [rep.intervals[v] for v in (1, 6)] == [(7, 7), (8, 8)]


@st.composite
def composites(draw):
    n = draw(st.integers(4, 3000))
    if factor(n).is_prime:
        n += 1  # the successor of a prime above 3 is even
    return n


@given(composites())
@settings(max_examples=40, deadline=None)
def test_prime_cover_has_one_member_per_prime(n):
    c = compressed_zn(n)
    cover = zn_prime_cover(c)
    primes = len(c.f.exponents)
    assert len(cover) == primes <= max(1, compressed_box_bound(c))
    assert cover.claimed_graph == zdg_zn(n)[0]
    assert verify_cover(cover)[0]


@pytest.mark.parametrize("k", range(2, 9))
def test_boolean_cover_has_one_member_per_coordinate(k):
    cover = reduced_ring_box_bounds(k)
    assert len(cover) == k
    assert cover.claimed_graph == boolean_ring_graph(k)[0]
    assert verify_cover(cover)[0]


def test_zn_report_72():
    report = zn_report(72)
    assert report["omega_chi"] == 4
    assert report["box_upper"] == 7
    assert report["box_one"] is False
    assert report["S"] == [12, 24, 36]
    assert report["T"] == [12, 18, 24, 36]


def test_zn_report_prime_and_clamp():
    assert zn_report(13)["boxicity"] == 0
    r25 = zn_report(25)
    assert r25["box_upper"] == 1 and r25["box_upper_clamped"] is True


def test_compressed_record_derives_from_one_factorization():
    for n in (4, 12, 72, 2310, 2**5 * 3**4 * 5):
        c = compressed_zn(n)
        assert c.N == n and c.f == factor(n)
        class_size = Counter(math.gcd(x, n) for x in range(1, n))
        divisors = sorted(d for d in class_size if d > 1)
        assert list(c.divisors) == divisors
        assert c.sizes == tuple(class_size[d] for d in divisors)
        assert c.nilpotent == tuple(d for d in divisors if d * d % n == 0)


def test_valuations_are_the_exponents_of_each_divisor():
    for n in range(4, 2001):
        f = factor(n)
        if f.is_prime:
            continue
        c = compressed_zn(n)
        primes = sorted(f.exponents)
        assert c.valuations == tuple(
            tuple(oracles._exponent_of(d, p) for p in primes) for d in c.divisors
        )


@pytest.mark.parametrize("k", range(2, 9))
def test_vector_ring_cover_keeps_the_parent_bytes(k):
    upper, parent = oracles.parent_reduced_ring_box_bounds(k)
    assert upper == k
    assert cover_to_json(reduced_ring_box_bounds(k)) == cover_to_json(parent)


def test_direct_graph_is_built_once_per_record(monkeypatch):
    built = []
    monkeypatch.setattr(boxlab.zdg, "zdg_zn", lambda n: built.append(n) or zdg_zn(n))
    c = compressed_zn(72)
    assert built == []
    expand_compressed(c)
    zn_join_cover(c)
    assert c.direct == zdg_zn(72) and built == [72]


def test_the_largest_zero_divisor_join_cover_is_inside_the_cover_budget():
    # one member per non-nilpotent class over every element: 61 x 7319 intervals
    c = compressed_zn(9240)
    assert compressed_box_bound(c) * sum(c.sizes) == 446_459 <= COVER_ENTRY_BUDGET
