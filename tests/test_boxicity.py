import pytest
from hypothesis import given, settings

from boxlab import (
    ResourceBudgetError,
    boxicity_exact,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    is_interval_graph,
    make_graph,
    path_graph,
    verify_cover,
)

from oracles import graphs


def test_pinned_values():
    assert boxicity_exact(cycle_graph(4))[0] == 2
    assert boxicity_exact(path_graph(4))[0] == 1
    assert boxicity_exact(complete_multipartite([2, 2, 2]))[0] == 3


def test_conventions():
    assert boxicity_exact(empty_graph(0))[0] == 0
    assert boxicity_exact(empty_graph(4))[0] == 1
    assert boxicity_exact(complete_graph(5))[0] == 1


def test_witness_covers_verify():
    for g in (cycle_graph(4), cycle_graph(5), complete_multipartite([2, 2, 2])):
        value, cover = boxicity_exact(g)
        assert cover.claimed_graph == g
        ok, _ = verify_cover(cover)
        assert ok
        assert len(cover.reps) == value


def test_exceeded():
    assert boxicity_exact(complete_multipartite([2, 2, 2]), max_l=2) is None


def test_vertex_budget():
    with pytest.raises(ResourceBudgetError):
        boxicity_exact(cycle_graph(11))


def test_nonedge_budget(monkeypatch):
    monkeypatch.setenv("BOXLAB_BUDGET", "10:5")
    with pytest.raises(ResourceBudgetError):
        boxicity_exact(make_graph(9, [(i, (i + 1) % 9) for i in range(9)]))


def test_env_budget_override(monkeypatch):
    monkeypatch.setenv("BOXLAB_BUDGET", "4")
    with pytest.raises(ResourceBudgetError):
        boxicity_exact(cycle_graph(5))
    monkeypatch.setenv("BOXLAB_BUDGET", "12:30")
    assert boxicity_exact(cycle_graph(5))[0] == 2


def test_disjoint_union_takes_max():
    two_c4 = make_graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
    value, cover = boxicity_exact(two_c4)
    assert value == 2
    assert verify_cover(cover)[0]


@given(graphs(max_n=6))
@settings(max_examples=60, deadline=None)
def test_box_one_iff_interval(g):
    res = boxicity_exact(g, max_l=4)
    assert res is not None
    value, cover = res
    if g.n:
        assert (value == 1) == is_interval_graph(g)[0]
    ok, _ = verify_cover(cover)
    assert ok
