import random
from itertools import combinations

import pytest

from boxlab import (
    InputError,
    boxicity_exact,
    clique_sum_lower_bound,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    generalized_join,
    join_cover,
    make_cover,
    make_graph,
    make_plan,
    make_rep,
    path_graph,
    reduced_cover,
    reduced_graph,
    skip_join_cover,
    verify_cover,
)

from oracles import net_graph


def test_join_cover_two_edgeless_parts():
    plan = make_plan(complete_graph(2), [empty_graph(2), empty_graph(2)])
    cover = join_cover(plan)
    assert len(cover) == 2
    assert cover.claimed_graph == complete_multipartite([2, 2])
    assert verify_cover(cover)[0]


def test_join_cover_single_part_passthrough():
    plan = make_plan(complete_graph(1), [path_graph(4)])
    cover = join_cover(plan)
    assert len(cover) == 1
    assert cover.claimed_graph == path_graph(4)
    assert verify_cover(cover)[0]


def test_join_cover_octahedron():
    plan = make_plan(complete_graph(3), [empty_graph(2)] * 3)
    cover = join_cover(plan)
    assert len(cover) == 3
    assert cover.claimed_graph == complete_multipartite([2, 2, 2])
    assert verify_cover(cover)[0]


def test_join_cover_rejects_skips():
    plan = make_plan(complete_graph(2), [complete_graph(3), empty_graph(2)], skip=[0])
    with pytest.raises(InputError):
        join_cover(plan)


def test_skip_join_cover_drops_complete_clique_part():
    plan = make_plan(complete_graph(2), [complete_graph(3), empty_graph(2)], skip=[0])
    cover = skip_join_cover(plan)
    assert len(cover) == 1
    joined, _ = generalized_join(complete_graph(2), [complete_graph(3), empty_graph(2)])
    assert cover.claimed_graph == joined
    assert verify_cover(cover)[0]


def test_skip_join_cover_empty_skip_matches_plain():
    plan = make_plan(path_graph(3), [empty_graph(2), complete_graph(2), empty_graph(1)])
    assert skip_join_cover(plan).reps == join_cover(plan).reps


def test_make_plan_validates_skip():
    with pytest.raises(InputError):
        make_plan(complete_graph(2), [empty_graph(2), empty_graph(2)], skip=[0])
    with pytest.raises(InputError):
        make_plan(empty_graph(2), [complete_graph(2), complete_graph(2)], skip=[0, 1])


def test_skip_needs_survivor():
    plan = make_plan(complete_graph(1), [complete_graph(2)], skip=[0])
    with pytest.raises(InputError):
        skip_join_cover(plan)


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
        plan = make_plan(outer, parts)
        cover = join_cover(plan)
        assert len(cover) == sum(len(c.reps) for c in plan.part_covers)
        assert verify_cover(cover)[0]


def test_skip_cover_on_net_like_join():
    # outer path u0-u1-u2, complete middle part skippable only if clique
    outer = path_graph(3)
    parts = [empty_graph(2), complete_graph(2), empty_graph(2)]
    plan = make_plan(outer, parts, skip=[1])
    cover = skip_join_cover(plan)
    assert len(cover) == 2
    assert verify_cover(cover)[0]


def test_net_reduced_cover():
    g = net_graph()
    quotient, _ = reduced_graph(g)
    assert quotient.n == 6  # all neighborhoods distinct
    cover = reduced_cover(g)
    assert len(cover) == 6 and verify_cover(cover)[0]


def test_make_plan_checks_supplied_part_covers():
    c4 = cycle_graph(4)
    _, good = boxicity_exact(c4)
    parts = [c4, empty_graph(2)]
    other_graph = make_cover(path_graph(4), good.reps)
    with pytest.raises(InputError, match="different graph"):
        make_plan(complete_graph(2), parts, part_covers=[other_graph, None])
    overcover = make_cover(c4, (make_rep([(0, 1)] * 4),))
    with pytest.raises(InputError, match="does not verify"):
        make_plan(complete_graph(2), parts, part_covers=[overcover, None])
    plan = make_plan(complete_graph(2), parts, part_covers=[good, None])
    assert plan.part_covers[0] is good
