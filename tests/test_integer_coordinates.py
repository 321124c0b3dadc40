"""Every construction writes integer endpoints, and each of its members
realizes exactly the graph of the fractional member it replaced.

The fractional forms are in `oracles`: the join lift that squeezed a part
into [0, 1/2], the threshold member with points at j/(s + 1) and the exact
oracle's own component loop. Each construction is built twice, once with
the fractional form patched in, and compared member by member.
"""

from contextlib import ExitStack
from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from boxlab import boxicity, joins, zdg
from boxlab.graphs import Graph, induced_subgraph
from boxlab.intervals import graph_of_intervals
from boxlab.joins import reduced_cover, skip_join_cover
from boxlab.zdg import (
    boolean_ring_graph,
    compressed_zn,
    factor,
    reduced_ring_box_bounds,
    threshold_rep,
    zn_join_cover,
    zn_prime_cover,
)
from oracles import disjoint_union, graphs

FRACTIONAL = {
    (joins, "lift_reps"): oracles.parent_lift_reps,
    (zdg, "threshold_rep"): oracles.parent_threshold_rep,
}


def fractional(build, *args):
    """`build(*args)` with every construction in its fractional form."""
    with ExitStack() as stack:
        for (module, name), old in FRACTIONAL.items():
            stack.enter_context(mock.patch.object(module, name, old))
        return build(*args)


def integral(rep) -> bool:
    return all(type(x) is int for ends in rep.intervals for x in ends)


def assert_same_members(build, *args):
    new, old = build(*args), fractional(build, *args)
    assert new.claimed_graph == old.claimed_graph and len(new) == len(old)
    for rep, ref in zip(new.reps, old.reps):
        assert integral(rep)
        assert graph_of_intervals(rep) == graph_of_intervals(ref)


def test_the_fractional_forms_write_fractions():
    # so the comparisons below do compare against the fractional members
    covers = [
        fractional(zn_join_cover, compressed_zn(72)),
        fractional(zn_prime_cover, compressed_zn(72)),
    ]
    for cover in covers:
        assert any(type(x) is Fraction for rep in cover.reps for ends in rep.intervals for x in ends)


@st.composite
def joins_with_disconnected_parts(draw):
    outer = draw(graphs(max_n=4))
    assume(outer.n)
    # up to two pieces of up to 4 vertices each, so a part can hold a C4
    parts = [disjoint_union(draw, draw(st.lists(graphs(max_n=4), max_size=2))) for _ in range(outer.n)]
    return outer, parts


@given(joins_with_disconnected_parts())
@settings(max_examples=60, deadline=None)
def test_join_members_keep_their_graphs(join):
    assert_same_members(skip_join_cover, *join)


@st.composite
def composites(draw):
    n = draw(st.integers(4, 2000))
    assume(not factor(n).is_prime)
    return n


@given(composites())
@settings(max_examples=30, deadline=None)
def test_zero_divisor_members_keep_their_graphs(n):
    c = compressed_zn(n)
    assert_same_members(zn_join_cover, c)
    assert_same_members(zn_prime_cover, c)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=30), st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_threshold_points_sit_inside_open_gaps(weights, e):
    rep = threshold_rep(weights, e)
    assert integral(rep)
    assert graph_of_intervals(rep) == graph_of_intervals(oracles.parent_threshold_rep(weights, e))
    # a low-weight point is never the end of a nested interval, so it meets
    # one by lying inside it, not by touching it
    ends = {x for ends, w in zip(rep.intervals, weights) if 2 * w >= e for x in ends}
    assert not ends & {lo for (lo, _), w in zip(rep.intervals, weights) if 2 * w < e}


@given(st.integers(2, 8))
@settings(max_examples=7, deadline=None)
def test_vector_ring_members_keep_their_graphs(k):
    assert_same_members(reduced_ring_box_bounds, k)
    assert_same_members(reduced_cover, boolean_ring_graph(k)[0])


def parent_boxicity_reps(g: Graph):
    """The oracle's witness reps through its own component loop."""
    e_budget = boxicity.budgets_from_env()[1]
    per_comp, value = [], 1
    for comp in g.connected_components():
        sub, vmap = induced_subgraph(g, comp)
        ell, reps = boxicity._component_boxicity(sub, boxicity.DEFAULT_MAX_COVERS, e_budget)
        per_comp.append((vmap, reps))
        value = max(value, ell)
    return oracles.parent_assemble_components(g.n, per_comp, value)


@st.composite
def disconnected_graphs(draw):
    parts = draw(st.lists(graphs(max_n=5).filter(lambda h: h.n), min_size=2, max_size=3))
    g = disjoint_union(draw, parts)
    assume(g.n <= boxicity.DEFAULT_VERTEX_BUDGET)
    return g


@given(disconnected_graphs())
@settings(max_examples=60, deadline=None)
def test_box_layout_is_the_component_loop(g):
    # the same cursor rule, so the very same reps
    reps = boxicity._boxicity_reps(g)[1]
    assert reps == parent_boxicity_reps(g)
    assert all(map(integral, reps))
