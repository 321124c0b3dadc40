import random
from itertools import combinations

import pytest

from boxlab import (
    InputError,
    boxicity_exact,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    generalized_join,
    make_graph,
    make_plan,
    make_rep,
    path_graph,
    reduced_cover,
    reduced_graph,
    skip_join_cover,
    verify_cover,
)
from boxlab.intervals import IntervalRep
from boxlab.joins import lift_reps, unit_rep

from oracles import clique_sum_lower_bound, net_graph


def test_join_cover_two_edgeless_parts():
    cover = skip_join_cover(complete_graph(2), [empty_graph(2), empty_graph(2)])
    assert len(cover) == 2
    assert cover.claimed_graph == complete_multipartite([2, 2])
    assert verify_cover(cover)[0]


def test_empty_parts_take_no_member():
    parts = [empty_graph(0), complete_graph(2)]
    assert make_plan(complete_graph(2), parts) == ((), (unit_rep(2, True),))
    assert len(skip_join_cover(complete_graph(2), parts)) == 1
    # a join with no vertex keeps one empty member, as reduced_cover gives
    for outer, parts in ((complete_graph(2), [empty_graph(0)] * 2), (empty_graph(0), [])):
        cover = skip_join_cover(outer, parts)
        assert cover.reps == reduced_cover(empty_graph(0)).reps == (IntervalRep(()),)


def test_every_join_bound_leaves_through_join_cover(package_imports):
    # zdg lifts its classes through the one exit, and no join cover skips the check
    zdg = {name.split(".")[-1] for name in package_imports["zdg.py"]}
    assert "join_cover" in zdg and "lift_reps" not in zdg
    assert "make_cover" not in {name.split(".")[-1] for name in package_imports["joins.py"]}


def test_join_cover_single_part_passthrough():
    cover = skip_join_cover(complete_graph(1), [path_graph(4)])
    assert len(cover) == 1
    assert cover.claimed_graph == path_graph(4)
    assert verify_cover(cover)[0]


def test_join_cover_octahedron():
    cover = skip_join_cover(complete_graph(3), [empty_graph(2)] * 3)
    assert len(cover) == 3
    assert cover.claimed_graph == complete_multipartite([2, 2, 2])
    assert verify_cover(cover)[0]


def test_skip_join_cover_drops_complete_clique_part():
    cover = skip_join_cover(complete_graph(2), [complete_graph(3), empty_graph(2)], skip=[0])
    assert len(cover) == 1
    joined, _ = generalized_join(complete_graph(2), [complete_graph(3), empty_graph(2)])
    assert cover.claimed_graph == joined
    assert verify_cover(cover)[0]


def test_skip_join_cover_empty_skip_matches_plain():
    # with nothing skipped the cover is the plain lift of every part member
    outer, parts = path_graph(3), [empty_graph(2), complete_graph(2), empty_graph(1)]
    _, blocks = generalized_join(outer, parts)
    assert skip_join_cover(outer, parts).reps == tuple(
        lift_reps(outer, make_plan(outer, parts), blocks)
    )


def test_skip_join_cover_takes_parts_from_a_generator():
    # the parts are read three times (plan, all-skipped check, join), so a one-pass iterable must do
    outer, parts = path_graph(3), [empty_graph(2), complete_graph(2), path_graph(3)]
    assert skip_join_cover(outer, iter(parts), skip=[1]) == skip_join_cover(outer, parts, skip=[1])


def test_plan_members_are_unit_reps_and_none_when_skipped():
    parts = [complete_graph(3), empty_graph(2), empty_graph(1), path_graph(4)]
    part_reps = make_plan(complete_graph(4), parts, skip=[0])
    assert part_reps[:3] == ((), (unit_rep(2, False),), (unit_rep(1, True),))
    assert len(part_reps[3]) == 1  # the oracle's witness for the interval path
    # a one-vertex part counts as complete and keeps [0, 1]; edgeless parts get points
    assert unit_rep(1, False) == unit_rep(1, True) == make_rep([(0, 1)])
    assert unit_rep(3, False) == make_rep([(0, 0), (1, 1), (2, 2)])
    assert unit_rep(0, False) == make_rep([])


def test_make_plan_validates_skip():
    with pytest.raises(InputError):
        make_plan(complete_graph(2), [empty_graph(2), empty_graph(2)], skip=[0])
    with pytest.raises(InputError):
        make_plan(empty_graph(2), [complete_graph(2), complete_graph(2)], skip=[0, 1])


def test_skip_needs_survivor():
    with pytest.raises(InputError, match="at least one part must not be skipped"):
        skip_join_cover(complete_graph(1), [complete_graph(2)], skip=[0])


def test_lower_bound_examples():
    assert clique_sum_lower_bound(complete_graph(2), [(1, False), (1, False)]) == 2
    assert clique_sum_lower_bound(complete_graph(2), [(1, True), (1, False)]) == 1
    assert clique_sum_lower_bound(complete_graph(3), [(2, False), (2, False), (1, True)]) == 4


def test_lower_bound_oracle_confirms_join_of_cycles():
    joined, _ = generalized_join(complete_graph(2), [cycle_graph(4), cycle_graph(4)])
    value, _ = boxicity_exact(joined, max_l=8)
    assert value == 4


def test_lower_bound_no_noncomplete_parts():
    assert clique_sum_lower_bound(complete_graph(2), [(1, True), (1, True)]) == 0


def test_reduced_cover_examples():
    c4 = cycle_graph(4)
    cover = reduced_cover(c4)
    assert len(cover) == 2
    assert cover.claimed_graph == c4
    assert verify_cover(cover)[0]

    k33 = complete_multipartite([3, 3])
    cover = reduced_cover(k33)
    assert len(cover) == 2
    assert verify_cover(cover)[0]

    p4 = path_graph(4)
    cover = reduced_cover(p4)
    assert len(cover) == 4
    assert verify_cover(cover)[0]


def test_reduced_cover_size_is_quotient_order():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 6)
        pairs = list(combinations(range(n), 2))
        g = make_graph(n, [e for e in pairs if rng.random() < 0.5])
        cover = reduced_cover(g)
        quotient, _ = reduced_graph(g)
        assert len(cover) == quotient.n
        assert verify_cover(cover)[0]


def test_random_plans_verify_with_expected_size():
    rng = random.Random(99)
    for _ in range(40):
        outer_n = rng.randint(1, 4)
        pairs = list(combinations(range(outer_n), 2))
        outer = make_graph(outer_n, [e for e in pairs if rng.random() < 0.5])
        parts = []
        for _ in range(outer_n):
            pn = rng.randint(1, 4)
            ppairs = list(combinations(range(pn), 2))
            parts.append(make_graph(pn, [e for e in ppairs if rng.random() < 0.5]))
        cover = skip_join_cover(outer, parts)
        assert len(cover) == sum(len(reps) for reps in make_plan(outer, parts))
        assert verify_cover(cover)[0]


def test_skip_cover_on_net_like_join():
    # outer path u0-u1-u2, complete middle part skippable only if clique
    outer = path_graph(3)
    parts = [empty_graph(2), complete_graph(2), empty_graph(2)]
    cover = skip_join_cover(outer, parts, skip=[1])
    assert len(cover) == 2
    assert verify_cover(cover)[0]


def test_net_reduced_cover():
    g = net_graph()
    quotient, _ = reduced_graph(g)
    assert quotient.n == 6  # all neighborhoods distinct
    cover = reduced_cover(g)
    assert len(cover) == 6 and verify_cover(cover)[0]

