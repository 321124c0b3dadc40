import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxlab import (
    Obstruction,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph_of_intervals,
    is_interval_graph,
    make_graph,
    path_graph,
)
from boxlab.recognition import (
    consecutive_clique_order,
    find_chordless_cycle,
    is_asteroidal_triple,
    is_induced_cycle,
    lex_bfs_order,
    maximal_cliques_chordal,
    perfect_elimination_order,
)

import oracles
from oracles import (
    atlas_connected,
    brute_is_interval,
    graphs,
    interval_graphs,
    net_graph,
    planted_at_graphs,
    planted_hole_graphs,
)


def test_c4_yields_hole():
    ok, payload = is_interval_graph(cycle_graph(4))
    assert not ok
    assert isinstance(payload, Obstruction) and payload.kind == "chordless-cycle"
    assert sorted(payload.witness) == [0, 1, 2, 3]
    assert is_induced_cycle(cycle_graph(4), payload.witness)


def test_p4_yields_rep():
    ok, rep = is_interval_graph(path_graph(4))
    assert ok
    assert graph_of_intervals(rep) == path_graph(4)


def test_net_yields_asteroidal_triple():
    g = net_graph()
    ok, payload = is_interval_graph(g)
    assert not ok
    assert payload.kind == "asteroidal-triple"
    assert sorted(payload.witness) == [3, 4, 5]  # the three pendants
    assert is_asteroidal_triple(g, payload.witness)


def test_peo_on_chordal_and_not():
    assert perfect_elimination_order(cycle_graph(4)) is None
    assert perfect_elimination_order(complete_graph(5)) is not None
    assert perfect_elimination_order(path_graph(6)) is not None


def test_long_holes_are_found():
    for n in range(4, 9):
        ok, payload = is_interval_graph(cycle_graph(n))
        assert not ok and payload.kind == "chordless-cycle"
        assert is_induced_cycle(cycle_graph(n), payload.witness)


def test_trivial_graphs():
    assert is_interval_graph(empty_graph(0))[0]
    assert is_interval_graph(empty_graph(1))[0]
    assert is_interval_graph(empty_graph(5))[0]
    assert is_interval_graph(complete_graph(6))[0]


def test_round_trip_on_atlas():
    # every connected graph up to 6 vertices: interval ones round-trip
    # through an exact representation, the rest produce a valid obstruction
    for g in atlas_connected(6):
        ok, payload = is_interval_graph(g)
        if ok:
            assert graph_of_intervals(payload) == g
        elif payload.kind == "chordless-cycle":
            assert is_induced_cycle(g, payload.witness)
        else:
            assert is_asteroidal_triple(g, payload.witness)


@given(graphs(max_n=7))
@settings(max_examples=100, deadline=None)
def test_recognition_matches_order_oracle(g):
    ok, payload = is_interval_graph(g)
    assert ok == brute_is_interval(g)
    if ok:
        assert graph_of_intervals(payload) == g


def test_disconnected_interval_graph():
    g = make_graph(6, [(0, 1), (2, 3), (3, 4)])
    ok, rep = is_interval_graph(g)
    assert ok
    assert graph_of_intervals(rep) == g


def test_clique_order_search_is_not_bounded_by_recursion_depth():
    # 1199 cliques: a search that recursed once per placed clique would
    # overflow the interpreter stack here
    g = path_graph(1200)
    cliques = maximal_cliques_chordal(g, perfect_elimination_order(g))
    order = consecutive_clique_order(cliques, g.n)
    assert sorted(order) == list(range(len(cliques)))
    for v in range(g.n):
        where = [pos for pos, idx in enumerate(order) if v in cliques[idx]]
        assert where == list(range(where[0], where[-1] + 1))


def test_interval_path_is_recognized_without_the_cubic_scan():
    # the asteroidal-triple scan alone took 17 s at 800 vertices
    g = path_graph(1200)
    ok, rep = is_interval_graph(g)
    assert ok
    assert graph_of_intervals(rep) == g


def test_caterpillar_with_claw_yields_asteroidal_triple():
    # spine 0..7 with three leaves per spine vertex, and a subdivided claw
    # centred on spine vertex 0; an unbounded clique-order search hits its
    # node cap here before it gives up on the order
    edges = [(i, i + 1) for i in range(7)]
    edges += [(i, 8 + 3 * i + j) for i in range(8) for j in range(3)]
    edges += [(0, 32), (32, 33), (0, 34), (34, 35), (0, 36), (36, 37)]
    g = make_graph(38, edges)
    ok, payload = is_interval_graph(g)
    assert not ok
    assert payload.kind == "asteroidal-triple"
    assert is_asteroidal_triple(g, payload.witness)


RECOGNITION_INPUTS = st.one_of(graphs(max_n=9), interval_graphs(), planted_at_graphs())


@given(RECOGNITION_INPUTS)
@settings(max_examples=150, deadline=None)
def test_lex_bfs_matches_list_label_oracle(g):
    assert lex_bfs_order(g) == oracles.lex_bfs_order(g)


@given(RECOGNITION_INPUTS)
@settings(max_examples=150, deadline=None)
def test_recognizer_matches_at_first_flow(g):
    # same verdict, and the same representation or witness element by element
    assert is_interval_graph(g) == oracles.is_interval_graph(g)


@given(st.one_of(graphs(max_n=9), planted_hole_graphs()))
@settings(max_examples=150, deadline=None)
def test_hole_scan_matches_unfiltered_scan(g):
    assume(perfect_elimination_order(g) is None)
    assert find_chordless_cycle(g) == oracles.find_chordless_cycle(g)


@pytest.mark.parametrize("n", [0, 1, 2, 50, 800])
def test_lex_bfs_on_paths_matches_oracle(n):
    g = path_graph(n)
    assert lex_bfs_order(g) == oracles.lex_bfs_order(g)
