import io
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab import (
    InputError,
    chromatic_number_exact,
    cover_to_json,
    graph_of_intervals,
    is_interval_graph,
    make_graph,
    verify_cover,
)
from boxlab import circular
from boxlab.circular import (
    block_window_rep,
    check_circular_budget,
    chi_cover,
    circular_chi,
    circular_clique,
    rotate_rep,
    step_window_rep,
)
from boxlab.cli import run
from boxlab.graphs import graph_to_json

import oracles
from oracles import is_independent


@pytest.mark.parametrize("d", range(1, 9))
def test_circular_clique_matches_edge_set_version(d):
    # k = 2d is a perfect matching and k = 2d + 1 a cycle; d = 1 is complete
    for k in range(2 * d, 2 * d + 25):
        assert circular_clique(k, d) == oracles.circular_clique(k, d)


def F(a, b=1):
    return Fraction(a, b)


def test_circular_clique_examples():
    g52 = circular_clique(5, 2)
    assert g52.sorted_edges() == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
    assert circular_clique(6, 3).sorted_edges() == [(0, 3), (1, 4), (2, 5)]
    assert circular_clique(4, 2).sorted_edges() == [(0, 2), (1, 3)]
    with pytest.raises(InputError):
        circular_clique(3, 2)


@given(st.integers(2, 60).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k // 2))))
@settings(max_examples=150)
def test_gen_circular_writes_the_graph_writer_bytes(kd):
    # `gen` writes the edges straight from k and d, with no Graph
    k, d = kd
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(["gen", "circular", "--k", str(k), "--d", str(d)]) == 0
    assert out.getvalue() == graph_to_json(circular_clique(k, d)) + "\n"


def test_chi_formula():
    assert circular_chi(5, 2) == 3
    assert circular_chi(8, 3) == 3
    assert circular_chi(6, 3) == 2


def test_edge_count_formula_matches_the_graph(monkeypatch):
    counted = []
    monkeypatch.setattr(circular, "check_edge_budget", lambda edges, what: counted.append(edges))
    for d in range(1, 5):
        for k in range(2 * d, 2 * d + 9):
            edges = circular_clique(k, d).num_edges
            counted.clear()
            check_circular_budget(k, d)
            assert counted == [edges]


def test_chi_formula_matches_solver():
    for d in range(2, 5):
        for k in range(2 * d, 2 * d + 8):
            assert circular_chi(k, d) == chromatic_number_exact(circular_clique(k, d))[0]


def test_step_rep_values_window_d():
    rep = step_window_rep(7, 2, 2)
    expected = {
        0: (F(2), F(2)),
        1: (F(1), F(1)),
        2: (F(2), F(3)),
        3: (F(1), F(3)),
        4: (F(1), F(3)),
        5: (F(1), F(3)),
        6: (F(1), F(3)),
    }
    assert rep.intervals == tuple(expected[v] for v in range(7))


def test_step_rep_values_window_b():
    rep = step_window_rep(7, 2, 1)
    assert rep.intervals[0] == (F(2), F(2))
    assert rep.intervals[1] == (F(3), F(3))
    assert rep.intervals[2] == (F(2), F(3))
    assert all(rep.intervals[i] == (F(1), F(3)) for i in range(3, 7))


def test_step_rep_boundary_case():
    rep = step_window_rep(6, 2, 2)
    realized = graph_of_intervals(rep)
    assert realized.edges >= circular_clique(6, 2).edges
    assert is_independent(realized, [0, 1])


def test_step_rep_rejects_bad_window():
    with pytest.raises(InputError):
        step_window_rep(7, 2, 3)


def test_block_rep_values_8_3():
    rep = block_window_rep(8, 3)
    assert rep.intervals[0] == (-1, -1)
    assert rep.intervals[1] == (1, 1)
    assert rep.intervals[2] == (3, 3)
    assert rep.intervals[3] == (-2, 0)
    assert rep.intervals[4] == (-2, 2)
    assert rep.intervals[5] == (-2, 4)
    assert rep.intervals[6] == (-2, 6)
    assert rep.intervals[7] == (-2, 6)


def test_block_rep_values_7_3():
    rep = block_window_rep(7, 3)
    assert rep.intervals[3] == (-2, 0)
    assert rep.intervals[4] == (-2, 2)
    assert rep.intervals[5] == (0, 4)
    assert rep.intervals[6] == (-2, 6)


def test_block_rep_5_2_verifies():
    rep = block_window_rep(5, 2)
    realized = graph_of_intervals(rep)
    assert realized.edges >= circular_clique(5, 2).edges
    assert is_independent(realized, [0, 1])


def test_block_rep_rejects_wrong_regime():
    with pytest.raises(InputError):
        block_window_rep(9, 3)  # three full windows fit
    with pytest.raises(InputError):
        block_window_rep(6, 3)  # no remainder


def test_rotate_identity_and_full_cycle():
    rep = step_window_rep(7, 2, 2)
    assert rotate_rep(rep, 0) == rep
    assert rotate_rep(rep, 7) == rep


def test_rotate_moves_window():
    rep = rotate_rep(step_window_rep(7, 2, 2), 2)
    realized = graph_of_intervals(rep)
    assert realized.edges >= circular_clique(7, 2).edges
    assert is_independent(realized, [2, 3])


def test_rotate_conjugates_realized_graph():
    base = step_window_rep(8, 3, 3)
    shifted = rotate_rep(base, 5)
    g0 = graph_of_intervals(base)
    g1 = graph_of_intervals(shifted)
    mapped = make_graph(8, (((u + 5) % 8, (v + 5) % 8) for u, v in g0.edges))
    assert g1 == mapped


def test_chi_cover_sizes():
    assert len(chi_cover(6, 3)) == 2
    assert len(chi_cover(7, 2)) == 4
    assert len(chi_cover(8, 3)) == 3


def test_chi_cover_verifies_and_members_are_interval():
    for k, d in ((6, 3), (7, 2), (8, 3), (5, 2), (12, 5)):
        cover = chi_cover(k, d)
        assert cover.claimed_graph == circular_clique(k, d)
        ok, _ = verify_cover(cover)
        assert ok
        for rep in cover.reps:
            assert is_interval_graph(graph_of_intervals(rep))[0]


def test_chi_cover_small_sweep():
    # the rotation loop emits the bytes of the branch-per-shape cover; the
    # sliding block is the three-loop one on doubled coordinates, so its
    # covers realize the same member graphs
    for d in range(1, 13):
        for k in range(2 * d, 2 * d + 30):
            cover = chi_cover(k, d)
            assert len(cover) == circular_chi(k, d)
            ok, _ = verify_cover(cover)
            assert ok
            parent = oracles.parent_chi_cover(k, d)
            if 2 * d < k < 3 * d:
                block = oracles.parent_block_window_rep(k, d).intervals
                assert block_window_rep(k, d).intervals == tuple((2 * lo, 2 * hi) for lo, hi in block)
                assert list(map(graph_of_intervals, cover.reps)) == list(map(graph_of_intervals, parent.reps))
            else:
                assert cover_to_json(cover) == cover_to_json(parent)


def test_matching_cover_duplicates_are_distinct_objects():
    cover = chi_cover(4, 2)
    assert len(cover) == 2
    assert cover.reps[0] == cover.reps[1]
    ok, _ = verify_cover(cover)
    assert ok


def test_window_reps_keep_window_points_disjoint():
    for k, d, r in ((7, 2, 2), (12, 3, 3), (13, 4, 1), (9, 4, 1)):
        rep = step_window_rep(k, d, r)
        window = [rep.intervals[i] for i in range(r)]
        assert all(lo == hi for lo, hi in window)
        assert len({lo for lo, _ in window}) == r
    for k, d in ((8, 3), (11, 4), (5, 2)):
        rep = block_window_rep(k, d)
        window = [rep.intervals[i] for i in range(d)]
        assert all(lo == hi for lo, hi in window)
        assert len({lo for lo, _ in window}) == d


def test_step_rep_explicit_non_adjacency():
    # window vertex i stays clear of the ramp of d+j whenever j < i
    for k, d, r in ((10, 3, 3), (8, 2, 2), (15, 4, 4)):
        realized = graph_of_intervals(step_window_rep(k, d, r))
        for i in range(1, r):
            for j in range(i):
                assert not realized.has_edge(i, d + j)
