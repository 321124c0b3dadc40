from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab import (
    Coloring,
    Graph,
    InputError,
    ResourceBudgetError,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    edge_intersection,
    empty_graph,
    generalized_join,
    graph_from_obj,
    graph_to_obj,
    induced_subgraph,
    is_clique,
    make_graph,
    path_graph,
    reduced_graph,
)
from boxlab.graphs import EDGE_BUDGET

import oracles
from oracles import graphs, is_independent


@given(graphs(max_n=9))
@settings(max_examples=150)
def test_adjacency_bits_are_the_edge_set(g):
    # both constructors, from pairs and from bitsets, give the one value
    for h in (Graph(g.n, g.edges), Graph.from_adj(g.adj)):
        assert h == g and hash(h) == hash(g)
        assert len(h.adj) == h.n
        assert h.edges == frozenset(
            (u, v) for u, v in combinations(range(h.n), 2) if h.adj[u] >> v & 1
        )
        for u in range(h.n):
            assert h.adj[u] >> h.n == 0 and not h.adj[u] >> u & 1
            for v in range(h.n):
                if v != u:
                    assert h.adj[u] >> v & 1 == h.adj[v] >> u & 1 == h.has_edge(u, v)
            assert h.degree(u) == sum(h.has_edge(u, v) for v in range(h.n) if v != u)


@given(graphs(max_n=8), st.data())
@settings(max_examples=150)
def test_readers_match_the_edge_set(g, data):
    edges = g.edges
    everything = list(combinations(range(g.n), 2))
    assert g.num_edges == len(edges)
    assert g.sorted_edges() == sorted(edges)
    assert g.non_edges() == [e for e in everything if e not in edges]
    assert g.is_complete() == (len(edges) == len(everything))
    assert g.is_edgeless() == (not edges)
    some = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    inside = [e for e in everything if set(e) <= some]
    assert is_clique(g, some) == all(e in edges for e in inside)
    assert is_independent(g, some) == (not any(e in edges for e in inside))
    colors = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    assert Coloring(tuple(colors)).is_proper(g) == all(colors[u] != colors[v] for u, v in edges)


def parts_for(outer_n):
    """Any small graph, or an edgeless or complete one, per outer vertex."""
    part = st.one_of(
        graphs(max_n=4),
        st.integers(0, 4).map(empty_graph),
        st.integers(0, 4).map(complete_graph),
    )
    return st.lists(part, min_size=outer_n, max_size=outer_n)


@given(graphs(max_n=5).flatmap(lambda g: st.tuples(st.just(g), parts_for(g.n))))
@settings(max_examples=150)
def test_generalized_join_matches_edge_set_join(outer_parts):
    outer, parts = outer_parts
    assert generalized_join(outer, parts) == oracles.generalized_join(outer, parts)


@given(graphs(max_n=9), st.data())
@settings(max_examples=150)
def test_induced_subgraph_matches_edge_set_version(g, data):
    some = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    assert induced_subgraph(g, some) == oracles.induced_subgraph(g, some)


def graphs_on(n):
    """Any graph on exactly n vertices, or the edgeless or complete one."""
    pairs = list(combinations(range(n), 2))
    drawn = st.sets(st.sampled_from(pairs)).map(lambda es: make_graph(n, es)) if pairs else st.nothing()
    return st.one_of(drawn, st.just(empty_graph(n)), st.just(complete_graph(n)))


@given(st.integers(0, 7).flatmap(lambda n: st.lists(graphs_on(n), min_size=1, max_size=4)))
@settings(max_examples=150)
def test_edge_intersection_matches_edge_set_version(gs):
    assert edge_intersection(gs) == oracles.edge_intersection(gs)


@pytest.mark.parametrize("n", range(7))
def test_complete_empty_and_multipartite_builders(n):
    assert complete_graph(n) == make_graph(n, combinations(range(n), 2))
    assert empty_graph(n) == make_graph(n, [])
    sizes = [1 + i % 3 for i in range(n)]
    block = [i for i, s in enumerate(sizes) for _ in range(s)]
    cross = [(u, v) for u, v in combinations(range(len(block)), 2) if block[u] != block[v]]
    assert complete_multipartite(sizes) == make_graph(len(block), cross)


@given(graphs(max_n=9))
@settings(max_examples=150)
def test_components_match_set_search(g):
    assert g.connected_components() == oracles.connected_components(g)


@given(graphs(max_n=9))
@settings(max_examples=150)
def test_reduced_graph_matches_set_quotient(g):
    assert reduced_graph(g) == oracles.reduced_graph(g)


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


def test_generalized_join_edge_budget():
    # parts of 1 and m vertices over one outer edge give exactly m join edges
    joined, _ = generalized_join(complete_graph(2), [empty_graph(1), empty_graph(EDGE_BUDGET)])
    assert joined.num_edges == EDGE_BUDGET
    with pytest.raises(ResourceBudgetError, match=f"{EDGE_BUDGET + 1} edges"):
        generalized_join(complete_graph(2), [empty_graph(1), empty_graph(EDGE_BUDGET + 1)])


def test_reduced_graph_examples():
    q, blocks = reduced_graph(cycle_graph(4))
    assert q == complete_graph(2)
    assert blocks == ((0, 2), (1, 3))

    q2, blocks2 = reduced_graph(complete_multipartite([2, 2, 2]))
    assert q2 == complete_graph(3)
    assert blocks2 == ((0, 1), (2, 3), (4, 5))

    q3, blocks3 = reduced_graph(path_graph(4))
    assert q3 == path_graph(4)
    assert blocks3 == ((0,), (1,), (2,), (3,))


@given(graphs())
@settings(max_examples=150)
def test_reduced_graph_classes_share_neighborhoods(g):
    quotient, blocks = reduced_graph(g)
    # the blocks partition 0..n-1, each in increasing order, ordered by smallest member
    assert len(blocks) == quotient.n
    assert sorted(v for blk in blocks for v in blk) == list(range(g.n))
    assert all(list(blk) == sorted(set(blk)) for blk in blocks)
    assert [blk[0] for blk in blocks] == sorted(blk[0] for blk in blocks)
    # one open neighborhood per class, a different one for each class
    nbhds = [{g.adj[v] for v in blk} for blk in blocks]
    assert all(len(nb) == 1 for nb in nbhds)
    assert len(set().union(*nbhds)) == len(blocks)


@given(graphs())
@settings(max_examples=150)
def test_reduce_then_join_rebuilds(g):
    quotient, classes = reduced_graph(g)
    parts = [induced_subgraph(g, blk)[0] for blk in classes]
    rebuilt, blocks = generalized_join(quotient, parts)
    # block position t of class c is the t-th smallest class member
    to_orig = {}
    for c, blk in enumerate(blocks):
        for pos, v in enumerate(blk):
            to_orig[v] = classes[c][pos]
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


@given(graphs())
@settings(max_examples=100)
def test_graph_serialization_round_trip(g):
    assert graph_from_obj(graph_to_obj(g)) == g


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
