"""Cover synthesis for generalized joins.

Replacing each vertex of an outer graph by a part graph yields a join whose
boxicity is at most the sum of the parts' boxicities: every interval graph
in a part's cover lifts to one over the whole join by keeping the part's
intervals (squeezed into [0, 1/2]), giving [0, 1] to parts adjacent to it
and [1, 2] to the rest. Complete parts hanging off a clique of the outer
graph contribute nothing and can be skipped entirely.

`lift_reps` is the one copy of that lift. It writes each part's vertices
straight to caller-chosen target labels and checks nothing; each public
cover built from it is verified once, by the function that returns it.

Also here: the clique-sum lower bound on the join's boxicity, and the
reduction-based cover that certifies box(G) <= number of neighborhood
classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .boxicity import boxicity_exact
from .errors import ConstructionDefectError, InputError
from .graphs import (
    Graph,
    empty_graph,
    generalized_join,
    is_clique,
    is_independent,
    reduced_graph,
)
from .intervals import (
    IntervalCover,
    IntervalRep,
    make_cover,
    make_rep,
    point,
    verified_cover,
    verify_cover,
)
from .solvers import maximal_cliques


@dataclass(frozen=True)
class JoinCoverPlan:
    """Outer graph, one part per outer vertex, covers for non-skipped parts."""

    outer: Graph
    parts: tuple[Graph, ...]
    part_covers: tuple[IntervalCover | None, ...]
    skip: frozenset[int]


def canonical_unit_cover(part: Graph) -> IntervalCover:
    """One-representation cover for a complete or edgeless part."""
    if part.is_complete():
        rep = make_rep([(0, 1)] * part.n)
    elif part.is_edgeless():
        rep = make_rep([point(v) for v in range(part.n)])
    else:
        raise InputError("canonical cover exists only for complete or edgeless parts")
    return make_cover(part, (rep,))


def make_plan(
    outer: Graph,
    parts,
    part_covers=None,
    skip=(),
) -> JoinCoverPlan:
    """Validated plan; missing covers are filled in automatically.

    Complete and edgeless parts short-circuit to canonical one-rep covers;
    anything else goes through the exact boxicity oracle, so supply covers
    yourself for parts beyond its budget. Only supplied covers are checked
    here: the canonical ones are correct by construction and the oracle
    verifies its own witness. Skipped parts must be complete and their
    outer vertices must form a clique.
    """
    parts = tuple(parts)
    if len(parts) != outer.n:
        raise InputError(f"need {outer.n} parts, got {len(parts)}")
    skip = frozenset(skip)
    for i in skip:
        if not 0 <= i < outer.n:
            raise InputError(f"skip index {i} out of range")
        if not parts[i].is_complete():
            raise InputError(f"skipped part {i} is not complete")
    if not is_clique(outer, skip):
        raise InputError("skip set is not a clique of the outer graph")
    if part_covers is None:
        part_covers = [None] * outer.n
    covers: list[IntervalCover | None] = []
    for i, (part, cov) in enumerate(zip(parts, part_covers)):
        if i in skip:
            covers.append(None)
            continue
        if cov is None:
            if part.is_complete() or part.is_edgeless():
                cov = canonical_unit_cover(part)
            else:
                res = boxicity_exact(part)
                if res is None:
                    raise InputError(f"no cover found for part {i} within the default bound")
                cov = res[1]
        elif cov.claimed_graph != part:
            raise InputError(f"cover for part {i} certifies a different graph")
        elif not verify_cover(cov)[0]:
            raise InputError(f"supplied cover for part {i} does not verify")
        covers.append(cov)
    return JoinCoverPlan(outer, parts, tuple(covers), skip)


def _squeeze(rep: IntervalRep) -> IntervalRep:
    """Affine copy of the representation inside [0, 1/2].

    A strictly increasing affine map preserves the intersection structure
    exactly, and exact rationals keep the image strictly below 1.
    """
    if not rep.intervals:
        return rep
    lo_min = min(lo for lo, _ in rep.intervals)
    hi_max = max(hi for _, hi in rep.intervals)
    if hi_max == lo_min:
        return IntervalRep(tuple([point(0)] * rep.n))
    scale = Fraction(1, 2) / (hi_max - lo_min)
    return IntervalRep(
        tuple(((lo - lo_min) * scale, (hi - lo_min) * scale) for lo, hi in rep.intervals)
    )


def _lifted_rep(plan: JoinCoverPlan, blocks, part_index: int, part_rep: IntervalRep) -> IntervalRep:
    squeezed = _squeeze(part_rep)
    intervals: list = [None] * sum(len(blk) for blk in blocks)
    for ell, blk in enumerate(blocks):
        if ell == part_index:
            for pos, v in enumerate(blk):
                intervals[v] = squeezed.intervals[pos]
        elif plan.outer.has_edge(ell, part_index):
            for v in blk:
                intervals[v] = (Fraction(0), Fraction(1))
        else:
            for v in blk:
                intervals[v] = (Fraction(1), Fraction(2))
    return IntervalRep(tuple(intervals))


def lift_reps(plan: JoinCoverPlan, blocks) -> list[IntervalRep]:
    """Unverified lifts of every non-skipped part-cover member into the join.

    blocks[i] lists the target vertex of each vertex of part i, in order;
    the blocks must partition 0..t-1, and the lifts are over those t labels.
    """
    reps: list[IntervalRep] = []
    for i in range(plan.outer.n):
        if i in plan.skip:
            continue
        cov = plan.part_covers[i]
        if cov is None:
            raise InputError(f"part {i} is not skipped but has no cover")
        for part_rep in cov.reps:
            reps.append(_lifted_rep(plan, blocks, i, part_rep))
    return reps


def skip_join_cover(plan: JoinCoverPlan) -> IntervalCover:
    """Verified cover of the join using only the non-skipped parts' covers."""
    if len(plan.skip) == plan.outer.n and plan.outer.n > 0:
        raise InputError("at least one part must not be skipped")
    joined, blocks = generalized_join(plan.outer, list(plan.parts))
    return verified_cover(joined, lift_reps(plan, blocks), "join cover")


def join_cover(plan: JoinCoverPlan) -> IntervalCover:
    """Verified cover of the join with one lift per part-cover member."""
    if plan.skip:
        raise InputError("plan has skipped parts; use skip_join_cover")
    return skip_join_cover(plan)


def clique_sum_lower_bound(outer: Graph, part_box: list[tuple[int, bool]]) -> int:
    """Max over outer cliques of the boxicity sum of their non-complete parts.

    `part_box` pairs each part's boxicity value with an is-complete flag;
    complete parts never contribute. Returns 0 when no non-complete part
    exists. Clique enumeration is exact.
    """
    if len(part_box) != outer.n:
        raise InputError(f"need {outer.n} entries, got {len(part_box)}")
    best = 0
    for clique in maximal_cliques(outer):
        total = sum(part_box[i][0] for i in clique if not part_box[i][1])
        best = max(best, total)
    return best


def reduced_cover(g: Graph) -> IntervalCover:
    """Verified cover of g with one member per neighborhood class.

    The quotient by equal open neighborhoods has independent classes, each
    an edgeless part of boxicity one, and joining them over the quotient
    rebuilds g with class c's vertices in place of block c. Lifting one
    representation per class straight onto the class members certifies g.
    """
    if g.n == 0:
        return make_cover(g, (IntervalRep(()),))
    quotient, classes = reduced_graph(g)
    for blk in classes.blocks:
        if not is_independent(g, blk):
            raise ConstructionDefectError("neighborhood class is not independent", blk)
    plan = make_plan(quotient, [empty_graph(len(blk)) for blk in classes.blocks])
    return verified_cover(g, lift_reps(plan, classes.blocks), "reduced cover")
