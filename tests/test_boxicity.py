from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from boxlab import (
    Obstruction,
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
from boxlab import boxicity, recognition
from boxlab.boxicity import _ComponentSearch
from boxlab.cli import run
from boxlab.graphs import graph_to_json

from oracles import (
    SUBDIVIDED_CLAW,
    UnprunedSearch,
    graphs,
    net_graph,
    planted_at_graphs,
    unpruned_boxicity_exact,
)


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


def from_non_edges(n, missing):
    return make_graph(n, [e for e in combinations(range(n), 2) if e not in missing])


# connected 10-vertex graphs at the oracle's budget edge: boxicity 3, 2, 3, 3
# with 13, 10, 14 and 12 non-edges
BUDGET_EDGE_GRAPHS = [
    from_non_edges(10, {(0, 3), (0, 9), (1, 6), (1, 9), (2, 4), (2, 5), (2, 8),
                        (3, 5), (3, 6), (4, 5), (4, 6), (4, 7), (6, 9)}),
    from_non_edges(10, {(0, 3), (0, 6), (1, 3), (1, 6), (1, 9), (2, 5), (2, 9),
                        (5, 9), (6, 9), (8, 9)}),
    from_non_edges(10, {(0, 1), (0, 2), (0, 3), (0, 6), (1, 2), (1, 5), (1, 9),
                        (2, 3), (2, 6), (2, 9), (4, 5), (4, 6), (5, 8), (7, 9)}),
    from_non_edges(10, {(0, 3), (0, 4), (0, 5), (0, 7), (1, 2), (1, 6), (2, 9),
                        (3, 5), (4, 7), (4, 9), (6, 9), (7, 8)}),
]


@st.composite
def connected_graphs(draw, max_n=8, max_missing=9):
    """Connected graphs given by at most `max_missing` non-edges."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    k = draw(st.integers(min_value=0, max_value=min(max_missing, len(pairs))))
    g = from_non_edges(n, draw(st.permutations(pairs))[:k])
    assume(len(g.connected_components()) == 1)
    return g


# induced obstructions on 4, 5 and 6 vertices, with 2, 5 and 9 non-edges
OBSTRUCTIONS = [
    [(0, 1), (1, 2), (2, 3), (0, 3)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
    [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)],  # the net
]


@st.composite
def obstructed_graphs(draw, max_n=8, max_missing=9):
    """Connected graphs with an induced C4, C5 or net on drawn vertices, given
    by at most `max_missing` non-edges. The rest of the non-edges avoid the
    obstruction's first vertex, which every other vertex stays joined to."""
    gadget = draw(st.sampled_from(OBSTRUCTIONS))
    k = 1 + max(max(e) for e in gadget)
    n = draw(st.integers(min_value=k, max_value=max_n))
    place = draw(st.permutations(range(n)))
    missing = {
        tuple(sorted((place[a], place[b])))
        for a, b in combinations(range(k), 2)
        if (a, b) not in gadget
    }
    inside = set(place[:k])
    free = [
        (u, v)
        for u, v in combinations(range(n), 2)
        if not {u, v} <= inside and place[0] not in (u, v)
    ]
    room = max_missing - len(missing)
    if free and room:
        missing |= draw(st.sets(st.sampled_from(free), max_size=room))
    return from_non_edges(n, missing)


def same_answer(pruned, unpruned):
    if pruned is None or unpruned is None:
        return pruned is unpruned
    return pruned[0] == unpruned[0] and pruned[1].reps == unpruned[1].reps


@given(connected_graphs())
@settings(max_examples=100, deadline=None)
def test_pruned_search_matches_unpruned(g):
    assert same_answer(boxicity_exact(g, max_l=2), unpruned_boxicity_exact(g, max_l=2))
    assert same_answer(boxicity_exact(g), unpruned_boxicity_exact(g))


@pytest.mark.parametrize("g", BUDGET_EDGE_GRAPHS[1:], ids=["m10", "m14", "m12"])
def test_pruned_search_matches_unpruned_at_the_budget_edge(g):
    assert same_answer(boxicity_exact(g), unpruned_boxicity_exact(g))


@given(st.one_of(connected_graphs(), obstructed_graphs()))
@example(BUDGET_EDGE_GRAPHS[1]).via("m10")
@example(BUDGET_EDGE_GRAPHS[3]).via("m12")
@example(BUDGET_EDGE_GRAPHS[2]).via("m14")
@settings(max_examples=100, deadline=None)
def test_search_kills_match_unpruned_walk(g):
    """On a non-interval g, which is all the oracle searches, the branching
    search keeps the walk's kills, masks and reps in order, and stops at the
    same 2-cover."""
    ok, payload = is_interval_graph(g)
    assume(not ok)
    search, walk = _ComponentSearch(g, payload), UnprunedSearch(g, payload)
    assert search.enumerate_kills() == walk.enumerate_kills()
    assert search.kills == walk.kills


def with_added(search, added):
    extra = {e for i, e in enumerate(search.nonedges) if added >> i & 1}
    return make_graph(search.g.n, search.g.edges | extra)


def supersets_avoiding(search, added, forbidden, rng, count=4):
    """`added`, then random added-edge masks that hold it and miss `forbidden`."""
    free = [i for i in range(len(search.nonedges)) if not (added | forbidden) >> i & 1]
    yield added
    for _ in range(count):
        yield added | sum(1 << i for i in free if rng.random() < 0.5)


@given(st.one_of(graphs(max_n=8), planted_at_graphs(max_n=10)), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_obstruction_records_are_sound(h, rng):
    """Split a non-interval h into g plus added edges A at random: every
    supergraph of g + A that adds no forbidden pair of h's obstruction is
    non-interval."""
    ok, payload = is_interval_graph(h)
    assume(not ok)
    g = make_graph(h.n, [e for e in h.edges if rng.random() < 0.7])
    search = _ComponentSearch(g, None)  # not run: only its non-edge index is used
    added = sum(1 << i for i, e in enumerate(search.nonedges) if e in h.edges)
    forbidden = search._forbidden(payload)
    assert forbidden and not forbidden & added
    for other in supersets_avoiding(search, added, forbidden, rng):
        assert not is_interval_graph(with_added(search, other))[0]


def test_asteroidal_triple_record():
    # g + (1, 2) is the subdivided claw, whose one AT (2, 4, 6) uses the added edge
    h = make_graph(7, SUBDIVIDED_CLAW)
    search = _ComponentSearch(make_graph(7, h.edges - {(1, 2)}), None)
    _, payload = is_interval_graph(h)
    assert payload == Obstruction("asteroidal-triple", (2, 4, 6))
    # each third vertex against its opposite path 2-1-0-3-4, 4-3-0-5-6 or 6-5-0-1-2
    apart = [(6, p) for p in (2, 1, 0, 3, 4)] + [(2, p) for p in (4, 3, 0, 5)]
    apart += [(4, p) for p in (5, 0, 1)]
    assert search._forbidden(payload) == search._mask(apart)


def test_pruned_search_recognizes_few_candidates(count_calls):
    g = BUDGET_EDGE_GRAPHS[0]
    assert len(g.non_edges()) == 13
    counts = count_calls(recognition, ["is_interval_graph"])
    value, _ = boxicity_exact(g)
    assert value == 3
    # the unpruned scan recognizes all 2**13 + 1 candidates; branching on
    # obstructions recognizes 85: g once, then 84 candidates from the
    # children of g's obstruction on (37 for the skip records it replaced,
    # which reused one recognition for many later sets)
    assert counts["is_interval_graph"] < 100


def test_box_finds_each_at_path_once(count_calls, monkeypatch, tmp_path, capsys):
    # the oracle branches on the paths that the recognizer's re-check found;
    # it does not search them again
    counts = count_calls(recognition, ["asteroidal_paths"])
    recognize, obstructions = boxicity.is_interval_graph, []

    def recording(h):
        ok, payload = recognize(h)
        obstructions.append(None if ok else payload.kind)
        return ok, payload

    monkeypatch.setattr(boxicity, "is_interval_graph", recording)
    path = tmp_path / "net.json"
    path.write_text(graph_to_json(net_graph()))
    assert run(["box", "--graph", str(path)]) == 0
    assert capsys.readouterr().err == "boxicity 2 with verified witness cover\n"
    assert obstructions.count("asteroidal-triple") == 1
    assert counts["asteroidal_paths"] == 1
