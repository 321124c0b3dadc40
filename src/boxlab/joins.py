"""Cover synthesis for generalized joins.

Replacing each vertex of an outer graph by a part graph yields a join whose
boxicity is at most the sum of the parts' boxicities: every interval graph
in a part's cover lifts to one over the whole join by keeping the part's
intervals (squeezed into [0, 1/2]), giving [0, 1] to parts adjacent to it
and [1, 2] to the rest. Complete parts hanging off a clique of the outer
graph contribute nothing and can be skipped entirely, and a part with no
vertices contributes nothing either.

`lift_reps` is the one copy of that lift. It takes plain member tuples, one
per part (empty for a skipped or empty part), writes each part's vertices
straight to caller-chosen target labels and checks nothing; each public
cover built from it is verified once, by the function that returns it.
`cover join` plans its parts with `make_plan`, the zero-divisor join cover
lifts one `unit_rep` per class, and the reduction-based cover here
certifies box(G) <= number of neighborhood classes the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .boxicity import _boxicity_reps
from .errors import InputError
from .graphs import (
    Graph,
    check_edge_budget,
    check_vertex_budget,
    generalized_join,
    is_clique,
    join_edge_count,
    reduced_graph,
)
from .intervals import IntervalCover, IntervalRep, exact, make_cover, point, verified_cover


@dataclass(frozen=True)
class JoinCoverPlan:
    """Outer graph, one part per outer vertex, and each part's members (none if
    skipped or empty)."""

    outer: Graph
    parts: tuple[Graph, ...]
    part_reps: tuple[tuple[IntervalRep, ...], ...]


_UNIT = (0, 1)


def unit_rep(size: int, complete: bool) -> IntervalRep:
    """The one member of a complete or edgeless part of `size` vertices.

    A complete part shares [0, 1]; an edgeless one puts vertex v at the
    point v. One vertex counts as complete, as `Graph.is_complete` says.
    """
    if complete or size == 1:
        return IntervalRep((_UNIT,) * size)
    return IntervalRep(tuple(point(v) for v in range(size)))


def make_plan(outer: Graph, parts, skip=()) -> JoinCoverPlan:
    """Validated plan with the members of every part that is not skipped.

    A part with no vertices has boxicity 0 and takes no member. Other
    complete and edgeless parts take their one `unit_rep`; anything else
    takes the exact boxicity oracle's witness. Nothing is checked here: the
    unit members are correct by construction, and a wrong oracle rep makes
    the lifted join cover fail its one check. Skipped parts must be
    complete and their outer vertices must form a clique. A join over the
    vertex or edge budget is refused before any member is built.
    """
    parts = tuple(parts)
    if len(parts) != outer.n:
        raise InputError(f"need {outer.n} parts, got {len(parts)}")
    check_vertex_budget(sum(p.n for p in parts), "the join")
    check_edge_budget(join_edge_count(outer, parts), "the join")
    skip = frozenset(skip)
    for i in skip:
        if not 0 <= i < outer.n:
            raise InputError(f"skip index {i} out of range")
        if not parts[i].is_complete():
            raise InputError(f"skipped part {i} is not complete")
    if not is_clique(outer, skip):
        raise InputError("skip set is not a clique of the outer graph")
    part_reps: list[tuple[IntervalRep, ...]] = []
    for i, part in enumerate(parts):
        if i in skip or part.n == 0:
            reps = ()
        elif part.is_complete() or part.is_edgeless():
            reps = (unit_rep(part.n, part.is_complete()),)
        else:
            res = _boxicity_reps(part)
            if res is None:
                raise InputError(f"no cover found for part {i} within the default bound")
            reps = tuple(res[1])
        part_reps.append(reps)
    return JoinCoverPlan(outer, parts, tuple(part_reps))


def _squeeze(rep: IntervalRep) -> IntervalRep:
    """Affine copy of the representation inside [0, 1/2].

    A strictly increasing affine map preserves the intersection structure
    exactly, and exact rationals keep the image strictly below 1. The
    image of the lowest endpoint is the int 0.
    """
    if not rep.intervals:
        return rep
    lo_min = min(lo for lo, _ in rep.intervals)
    hi_max = max(hi for _, hi in rep.intervals)
    if hi_max == lo_min:
        return IntervalRep(tuple([point(0)] * rep.n))
    scale = Fraction(1, 2) / (hi_max - lo_min)
    return IntervalRep(
        tuple(
            (exact((lo - lo_min) * scale), exact((hi - lo_min) * scale))
            for lo, hi in rep.intervals
        )
    )


def _lifted_rep(outer: Graph, blocks, part_index: int, part_rep: IntervalRep) -> IntervalRep:
    squeezed = _squeeze(part_rep)
    intervals: list = [None] * sum(len(blk) for blk in blocks)
    for ell, blk in enumerate(blocks):
        if ell == part_index:
            for pos, v in enumerate(blk):
                intervals[v] = squeezed.intervals[pos]
        elif outer.has_edge(ell, part_index):
            for v in blk:
                intervals[v] = _UNIT
        else:
            for v in blk:
                intervals[v] = (1, 2)
    return IntervalRep(tuple(intervals))


def lift_reps(outer: Graph, part_reps, blocks) -> list[IntervalRep]:
    """Unverified lifts of every part member into the join, part by part.

    part_reps[i] holds the members of part i (empty for a skipped or empty
    part); blocks[i] lists the target vertex of each vertex of part i, in
    order. The blocks must partition 0..t-1, and the lifts are over those t
    labels.
    """
    return [
        _lifted_rep(outer, blocks, i, rep) for i, reps in enumerate(part_reps) for rep in reps
    ]


def skip_join_cover(plan: JoinCoverPlan) -> IntervalCover:
    """Verified cover of the join using only the non-skipped parts' members.

    When every part is empty or skipped, with at least one empty, there is
    no member to lift: the skipped parts are complete on an outer clique,
    so the join is complete and takes one `unit_rep` (the one empty member
    when it has no vertex, as in `reduced_cover`). Skipping every part is
    refused.
    """
    joined, blocks = generalized_join(plan.outer, list(plan.parts))
    reps = lift_reps(plan.outer, plan.part_reps, blocks)
    if not reps:
        if plan.parts and all(p.n for p in plan.parts):
            raise InputError("at least one part must not be skipped")
        reps = [unit_rep(joined.n, True)]
    return verified_cover(joined, reps, "join cover")


def reduced_cover(g: Graph) -> IntervalCover:
    """Verified cover of g with one member per neighborhood class.

    The quotient by equal open neighborhoods has independent classes (in a
    loopless graph two vertices with one open neighborhood are never
    adjacent), each an edgeless part of boxicity one, and joining them over
    the quotient rebuilds g with class c's vertices in place of block c.
    Lifting one unit member per class straight onto the class members
    certifies g.
    """
    if g.n == 0:
        return make_cover(g, (IntervalRep(()),))
    quotient, blocks = reduced_graph(g)
    part_reps = [(unit_rep(len(blk), False),) for blk in blocks]
    return verified_cover(g, lift_reps(quotient, part_reps, blocks), "reduced cover")
