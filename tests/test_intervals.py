import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab import (
    InputError,
    boxicity_exact,
    chi_cover,
    complete_graph,
    compressed_zn,
    cover_from_obj,
    cover_to_json,
    cover_to_obj,
    cycle_graph,
    empty_graph,
    graph_of_intervals,
    is_interval_graph,
    make_cover,
    make_graph,
    make_rep,
    path_graph,
    reduced_ring_box_bounds,
    rep_from_obj,
    rep_to_obj,
    skip_join_cover,
    verify_cover,
    zn_join_cover,
    zn_prime_cover,
)
from boxlab.circular import block_window_rep
from boxlab.intervals import VIOLATION_LIMIT, CoverViolation, IntervalRep, interval_adjacency
from oracles import net_graph
from oracles import graph_of_intervals as oracle_graph_of_intervals
from oracles import verify_cover as oracle_verify_cover


def test_graph_of_intervals_chain():
    rep = make_rep([(0, 1), (1, 2), (2, 3)])
    assert graph_of_intervals(rep) == path_graph(3)


def test_graph_of_intervals_disjoint():
    rep = make_rep([(0, 1), (2, 3)])
    assert graph_of_intervals(rep) == empty_graph(2)


def test_block_rep_realizes_expected_supergraph():
    # the (k, d) = (8, 3) block construction, against the explicit edge-set
    # description of the intended interval supergraph: all circular edges,
    # a complete block on vertices 3..5, a complete tail 6..7 joined to
    # everything before it
    rep = block_window_rep(8, 3)
    base = [(i, j) for i in range(8) for j in range(i + 1, 8) if 3 <= j - i <= 5]
    extra = [(3, 4), (3, 5), (4, 5), (6, 7)]
    cross = [(i, j) for i in range(6) for j in (6, 7)]
    expected = make_graph(8, base + extra + cross)
    assert graph_of_intervals(rep) == expected


def test_make_rep_validation():
    with pytest.raises(InputError):
        make_rep([(1, 0)])


def _rep_c4_plus_chord(chord02: bool):
    # interval representation of a 4-cycle plus one chord
    if chord02:
        return make_rep([(0, 2), (0, 0), (0, 2), (2, 2)])
    return make_rep([(2, 2), (0, 2), (0, 0), (0, 2)])


def test_verify_cover_happy_path():
    c4 = cycle_graph(4)
    cover = make_cover(c4, (_rep_c4_plus_chord(True), _rep_c4_plus_chord(False)))
    ok, problems = verify_cover(cover)
    assert ok and not problems


def test_verify_cover_single_rep():
    p4 = path_graph(4)
    rep = make_rep([(0, 1), (1, 2), (2, 3), (3, 4)])
    assert graph_of_intervals(rep) == p4
    ok, _ = verify_cover(make_cover(p4, (rep,)))
    assert ok


def test_verify_cover_detects_overcover():
    c4 = cycle_graph(4)
    k4_rep = make_rep([(0, 1)] * 4)
    ok, problems = verify_cover(make_cover(c4, (k4_rep,)))
    assert not ok
    kinds = {p.kind for p in problems}
    assert kinds == {"uncovered-non-edge"}
    assert (0, 2) in {p.pair for p in problems}


def test_verify_cover_detects_missing_edge():
    c4 = cycle_graph(4)
    bad = make_rep([(0, 0), (2, 2), (4, 4), (6, 6)])
    ok, problems = verify_cover(make_cover(c4, (bad,)))
    assert not ok
    assert any(p.kind == "missing-edge" and p.rep_index == 0 for p in problems)


def test_verify_cover_size_mismatch_is_reported_not_raised():
    c4 = cycle_graph(4)
    small = make_rep([(0, 1)] * 3)
    ok, problems = verify_cover(make_cover(c4, (small,)))
    assert not ok
    assert any(p.kind == "size-mismatch" for p in problems)


@pytest.mark.parametrize(
    "claimed, reps",
    [
        # 44 850 uncovered non-edges
        (empty_graph(300), [make_rep([(0, 1)] * 300)]),
        # 44 850 missing edges in each of two members, then a short member
        (complete_graph(300), [make_rep([(v, v) for v in range(300)])] * 2 + [make_rep([])]),
        # one size mismatch per member, and more members than the limit
        (complete_graph(2), [make_rep([(0, 1)])] * (VIOLATION_LIMIT + 5)),
    ],
    ids=["uncovered", "missing", "size"],
)
def test_verify_cover_lists_the_oracles_first_violations_up_to_the_limit(claimed, reps):
    cover = make_cover(claimed, reps)
    ok, problems = oracle_verify_cover(cover)
    assert len(problems) > VIOLATION_LIMIT
    assert verify_cover(cover) == (ok, problems[:VIOLATION_LIMIT])


def test_empty_cover_rejected():
    with pytest.raises(InputError):
        make_cover(complete_graph(2), ())


def test_rep_from_obj_refuses_a_claimed_n_before_sizing_anything():
    # a huge n with no intervals is refused at once, without a set of n keys
    with pytest.raises(InputError, match="exactly 0..n-1"):
        rep_from_obj({"n": 10**12, "intervals": {}})


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=16
)


@st.composite
def reps(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    intervals = []
    for _ in range(n):
        a = draw(rationals)
        b = draw(rationals)
        intervals.append((min(a, b), max(a, b)))
    return make_rep(intervals)


@given(reps())
@settings(max_examples=120)
def test_rep_serialization_round_trip(rep):
    assert rep_from_obj(rep_to_obj(rep)) == rep


@given(reps(), reps())
@settings(max_examples=60)
def test_cover_serialization_round_trip(r1, r2):
    if r1.n != r2.n:
        return
    cover = make_cover(graph_of_intervals(r1), (r1, r2))
    assert cover_from_obj(cover_to_obj(cover)) == cover


# Endpoints for the writer: small rationals, and numerators and denominators
# past 2**64 of either sign.
wide_fractions = st.one_of(
    rationals,
    st.builds(Fraction, st.integers(-(2**66), 2**66), st.integers(1, 2**66)),
)


@st.composite
def any_covers(draw):
    """Covers with n = 0..6, often edgeless claims; members need not match the claim."""
    n = draw(st.integers(0, 6))
    member = st.lists(st.tuples(wide_fractions, wide_fractions), min_size=n, max_size=n)
    members = draw(st.lists(member, min_size=1, max_size=3))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return make_cover(make_graph(n, edges), [make_rep(sorted(p) for p in m) for m in members])


@given(any_covers())
@settings(max_examples=150)
def test_cover_writer_matches_stdlib_encoder(cover):
    assert cover_to_json(cover) == json.dumps(cover_to_obj(cover), indent=2)
    # nested one level deep, as the box payload places it
    nested = '{\n  "cover": ' + cover_to_json(cover, "\n  ") + "\n}"
    assert nested == json.dumps({"cover": cover_to_obj(cover)}, indent=2)


@given(reps())
@settings(max_examples=120)
def test_realized_graph_matches_pairwise_definition(rep):
    g = graph_of_intervals(rep)
    for u in range(rep.n):
        lo_u, hi_u = rep.intervals[u]
        for v in range(u + 1, rep.n):
            lo_v, hi_v = rep.intervals[v]
            meets = max(lo_u, lo_v) <= min(hi_u, hi_v)
            assert g.has_edge(u, v) == meets


# Differential tests: the bitset kernel against the edge-set checker it
# replaced. Endpoints come from a small grid, so ties, touching ends and
# points are common. Large distinct primes push the common denominator past
# 64 bits, where the kernel sorts the Fractions themselves; the three primes
# just below 2**64 give values such as 1/p and 1/q that differ by less than
# a float can tell.

SMALL_DENS = (1, 2, 3, 4, 6)
LARGE_PRIMES = (1_000_000_007, 2**61 - 1, 2**64 - 95, 2**64 - 83, 2**64 - 59)
denominators = st.sampled_from([SMALL_DENS, LARGE_PRIMES, SMALL_DENS + LARGE_PRIMES])


@st.composite
def grid_reps(draw, n, dens):
    value = st.builds(Fraction, st.integers(-4, 8), st.sampled_from(dens))
    return make_rep(sorted((draw(value), draw(value))) for _ in range(n))


@st.composite
def grid_covers(draw):
    n = draw(st.integers(0, 12))
    dens = draw(denominators)
    members = draw(st.lists(grid_reps(n, dens), min_size=1, max_size=4))
    # the claim starts as the members' true meet, then toggles a few pairs
    edges = set.intersection(*(set(oracle_graph_of_intervals(r).edges) for r in members))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges ^= draw(st.sets(st.sampled_from(pairs), max_size=3))
    # perturbed members: one vertex moves, or a member has the wrong size
    for i in draw(st.sets(st.integers(0, len(members) - 1), max_size=2)):
        ivs = list(members[i].intervals)
        if ivs and draw(st.booleans()):
            ivs[draw(st.integers(0, n - 1))] = draw(grid_reps(1, dens)).intervals[0]
        elif draw(st.booleans()):
            ivs.append(ivs[-1] if ivs else (Fraction(0), Fraction(0)))
        else:
            ivs = ivs[:-1]
        members[i] = IntervalRep(tuple(ivs))
    return make_cover(make_graph(n, edges), members)


@given(st.data())
@settings(max_examples=200)
def test_graph_of_intervals_matches_oracle(data):
    rep = data.draw(grid_reps(data.draw(st.integers(0, 12)), data.draw(denominators)))
    assert graph_of_intervals(rep) == oracle_graph_of_intervals(rep)


@given(grid_covers())
@settings(max_examples=150)
def test_verify_cover_matches_oracle(cover):
    assert verify_cover(cover) == oracle_verify_cover(cover)


def test_fraction_keys_keep_ties():
    # the common denominator of these primes passes 64 bits; 1/p and 1/r
    # are one float, so only exact keys keep vertex 4 apart from vertex 0
    p, q, r = 2**64 - 83, 1_000_000_007, 2**64 - 59
    a, b, c = Fraction(1, p), Fraction(1, q), Fraction(2, q)
    rep = make_rep([(a, b), (b, c), (c, c), (a, a), (Fraction(-1), Fraction(1, r))])
    assert interval_adjacency(rep) == (0b01010, 0b00101, 0b00010, 0b00001, 0)
    assert graph_of_intervals(rep) == oracle_graph_of_intervals(rep)


@given(st.data())
@settings(max_examples=200)
def test_int_endpoints_realize_as_their_fractions(data):
    # all-int reps skip the common denominator, mixed ones go over it and
    # the large primes over the Fraction keys; the copy with every endpoint
    # a Fraction must realize the same graph
    dens = data.draw(st.sampled_from([(1,), SMALL_DENS, LARGE_PRIMES, SMALL_DENS + LARGE_PRIMES]))
    rep = data.draw(grid_reps(data.draw(st.integers(0, 12)), dens))
    as_fractions = IntervalRep(tuple((Fraction(lo), Fraction(hi)) for lo, hi in rep.intervals))
    assert interval_adjacency(rep) == interval_adjacency(as_fractions)


def _integral_fractions(rep):
    return [x for iv in rep.intervals for x in iv if isinstance(x, Fraction) and x.denominator == 1]


def test_integral_endpoints_are_ints():
    covers = [chi_cover(k, d) for d in range(1, 7) for k in range(2 * d, 2 * d + 13)]
    covers += [zn_prime_cover(compressed_zn(n)) for n in (8, 12, 18, 72, 180, 2310)]
    covers += [zn_join_cover(compressed_zn(n)) for n in (12, 72, 180)]
    covers += [reduced_ring_box_bounds(k) for k in range(2, 6)]
    covers += [
        skip_join_cover(path_graph(3), [cycle_graph(4), complete_graph(2), empty_graph(3)]),
        skip_join_cover(complete_graph(3), [complete_graph(3), net_graph(), path_graph(3)], [0]),
    ]
    # components laid out side by side, and a graph of boxicity 1
    c4_p3 = make_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)])
    covers += [boxicity_exact(g)[1] for g in (cycle_graph(4), net_graph(), c4_p3, path_graph(5))]
    reps = [rep for c in covers for rep in c.reps]
    reps += [is_interval_graph(g)[1] for g in (path_graph(6), complete_graph(4), empty_graph(3))]
    # read from a file, [4, 2] is the int 2
    reps.append(rep_from_obj({"n": 2, "intervals": {"0": [[1, 2], [4, 2]], "1": [[-3, 1], [6, 3]]}}))
    assert not [_integral_fractions(r) for r in reps if _integral_fractions(r)]
    assert reps[-1].intervals == ((Fraction(1, 2), 2), (-3, 2))


def _mutants(cover):
    """Member 0 with its busiest vertex shrunk to a point, member 0 dropped,
    and the last member one vertex short."""
    g, reps = cover.claimed_graph, list(cover.reps)
    v = max(range(g.n), key=g.degree)
    first = reps[0].intervals
    shrunk = IntervalRep(first[:v] + ((first[v][1], first[v][1]),) + first[v + 1 :])
    return [
        make_cover(g, [shrunk] + reps[1:]),
        make_cover(g, reps[1:]),
        make_cover(g, reps[:-1] + [IntervalRep(reps[-1].intervals[:-1])]),
    ]


MUTATED = {
    "circular 7 2": lambda: chi_cover(7, 2),
    "circular 9 3": lambda: chi_cover(9, 3),
    "circular 11 4": lambda: chi_cover(11, 4),
    "zdg 72 prime": lambda: zn_prime_cover(compressed_zn(72)),
    "zdg 72 join": lambda: zn_join_cover(compressed_zn(72)),
    "boolean 4": lambda: reduced_ring_box_bounds(4),
    "join": lambda: skip_join_cover(
        path_graph(3), [cycle_graph(4), complete_graph(2), empty_graph(3)]
    ),
    "box c4": lambda: boxicity_exact(cycle_graph(4))[1],
}


@pytest.mark.parametrize("name", MUTATED)
def test_verify_cover_matches_oracle_on_mutated_covers(name):
    shrunk, dropped, short = _mutants(MUTATED[name]())
    for cover in (shrunk, dropped, short):
        assert verify_cover(cover) == oracle_verify_cover(cover)
    assert not verify_cover(dropped)[0]
    assert verify_cover(short) == (False, [CoverViolation("size-mismatch", len(short) - 1, None)])
