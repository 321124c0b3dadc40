import pytest
from hypothesis import given, settings

from boxlab import (
    InputError,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    edge_intersection,
    empty_graph,
    generalized_join,
    graph_from_obj,
    graph_from_text,
    graph_to_obj,
    graph_to_text,
    induced_subgraph,
    is_clique,
    is_independent,
    is_spanning_supergraph,
    make_graph,
    path_graph,
    reduced_graph,
)

from oracles import graphs


def test_make_graph_basic():
    c4 = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert c4.n == 4 and c4.num_edges == 4
    k1 = make_graph(1, [])
    assert k1.n == 1 and k1.is_edgeless()
    dup = make_graph(3, [(0, 1), (1, 0)])
    assert dup.num_edges == 1


def test_make_graph_rejects_bad_input():
    with pytest.raises(InputError):
        make_graph(3, [(0, 0)])
    with pytest.raises(InputError):
        make_graph(3, [(0, 3)])
    with pytest.raises(InputError):
        make_graph(-1, [])


def test_induced_subgraph():
    c4 = cycle_graph(4)
    sub, vmap = induced_subgraph(c4, {0, 1, 2})
    assert vmap == (0, 1, 2)
    assert sub == path_graph(3)
    opp, _ = induced_subgraph(c4, {0, 2})
    assert opp == empty_graph(2)
    tri, _ = induced_subgraph(complete_graph(4), {1, 2, 3})
    assert tri == complete_graph(3)
    with pytest.raises(InputError):
        induced_subgraph(c4, {0, 7})


def test_generalized_join_examples():
    j, blocks = generalized_join(complete_graph(2), [empty_graph(2), empty_graph(2)])
    assert j == complete_multipartite([2, 2])  # a relabeled 4-cycle
    assert j.sorted_edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert blocks == ((0, 1), (2, 3))
    ident, _ = generalized_join(complete_graph(1), [cycle_graph(4)])
    assert ident == cycle_graph(4)
    p3, _ = generalized_join(path_graph(3), [complete_graph(1)] * 3)
    assert p3 == path_graph(3)
    with pytest.raises(InputError):
        generalized_join(complete_graph(2), [empty_graph(1)])


def test_reduced_graph_examples():
    q, part = reduced_graph(cycle_graph(4))
    assert q == complete_graph(2)
    assert part.blocks == ((0, 2), (1, 3))

    q2, part2 = reduced_graph(complete_multipartite([2, 2, 2]))
    assert q2 == complete_graph(3)
    assert part2.blocks == ((0, 1), (2, 3), (4, 5))

    q3, part3 = reduced_graph(path_graph(4))
    assert q3 == path_graph(4)
    assert part3.blocks == ((0,), (1,), (2,), (3,))


@given(graphs())
@settings(max_examples=150)
def test_reduced_graph_classes_share_neighborhoods(g):
    _, part = reduced_graph(g)
    for blk in part.blocks:
        nbhds = {g.adj[v] for v in blk}
        assert len(nbhds) == 1


@given(graphs())
@settings(max_examples=150)
def test_reduce_then_join_rebuilds(g):
    quotient, part = reduced_graph(g)
    parts = [induced_subgraph(g, blk)[0] for blk in part.blocks]
    rebuilt, blocks = generalized_join(quotient, parts)
    # block position t of class c is the t-th smallest class member
    to_orig = {}
    for c, blk in enumerate(blocks):
        for pos, v in enumerate(blk):
            to_orig[v] = part.blocks[c][pos]
    mapped = make_graph(g.n, ((to_orig[u], to_orig[v]) for u, v in rebuilt.edges))
    assert mapped == g


def test_clique_and_independent():
    c4 = cycle_graph(4)
    assert is_clique(c4, {0, 1})
    assert is_independent(c4, {0, 2})
    assert not is_clique(c4, {0, 1, 2})


def test_edge_intersection_examples():
    c4 = cycle_graph(4)
    with_02 = make_graph(4, list(c4.edges) + [(0, 2)])
    with_13 = make_graph(4, list(c4.edges) + [(1, 3)])
    assert edge_intersection([with_02, with_13]) == c4
    assert edge_intersection([c4]) == c4
    assert edge_intersection([complete_graph(4), complete_graph(4)]) == complete_graph(4)
    with pytest.raises(InputError):
        edge_intersection([])
    with pytest.raises(InputError):
        edge_intersection([c4, complete_graph(3)])


@given(graphs(), graphs())
@settings(max_examples=100)
def test_edge_intersection_commutes(g, h):
    if g.n != h.n:
        return
    assert edge_intersection([g, h]) == edge_intersection([h, g])
    assert edge_intersection([g, g]) == g


def test_spanning_supergraph():
    c4 = cycle_graph(4)
    with_02 = make_graph(4, list(c4.edges) + [(0, 2)])
    assert is_spanning_supergraph(with_02, c4)
    assert is_spanning_supergraph(c4, c4)
    assert not is_spanning_supergraph(path_graph(4), c4)


@given(graphs())
@settings(max_examples=100)
def test_graph_serialization_round_trip(g):
    assert graph_from_obj(graph_to_obj(g)) == g
    assert graph_from_text(graph_to_text(g)) == g


@pytest.mark.parametrize(
    "obj",
    [
        {"n": True, "edges": []},
        {"n": 2.0, "edges": [[0, 1]]},
        {"n": "2", "edges": [[0, 1]]},
        {"n": 2, "edges": [["0", "1"]]},
        {"n": 2, "edges": [[False, True]]},
    ],
)
def test_graph_from_obj_takes_only_json_integers(obj):
    with pytest.raises(InputError):
        graph_from_obj(obj)


def test_graph_text_format():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert graph_to_text(g) == "3 2\n0 1\n1 2\n"
