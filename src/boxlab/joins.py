"""Cover synthesis for generalized joins.

Replacing each vertex of an outer graph by a part graph yields a join whose
boxicity is at most the sum of the parts' boxicities: every interval graph
in a part's cover lifts to one over the whole join by keeping the part's
intervals, shifted onto [0, w] for a member of width w, giving [0, w + 1]
to parts adjacent to it and [w + 1, w + 2] to the rest; that is
`region_rep` with the one part as its member. Complete parts hanging off a
clique of the outer graph contribute nothing and can be skipped entirely,
and a part with no vertices contributes nothing either.

`lift_reps` is the one copy of that lift. It takes plain member tuples, one
per part (empty for a skipped or empty part), writes each part's vertices
straight to caller-chosen target labels and checks nothing. `join_cover`
is the one exit of the bound: it lifts every member and checks the cover
once. `cover join` is one call of `skip_join_cover`, which plans its
parts with `make_plan`; the zero-divisor join cover lifts one `unit_rep`
per class, and the reduction-based cover here certifies box(G) <= number
of neighborhood classes the same way.
"""

from __future__ import annotations

from .boxicity import _boxicity_reps
from .errors import InputError, ResourceBudgetError
from .graphs import (
    Graph,
    check_cover_budget,
    check_edge_budget,
    check_vertex_budget,
    generalized_join,
    is_clique,
    join_edge_count,
    reduced_graph,
)
from .intervals import IntervalCover, IntervalRep, point, region_rep, verified_cover


_UNIT = (0, 1)


def unit_rep(size: int, complete: bool) -> IntervalRep:
    """The one member of a complete or edgeless part of `size` vertices.

    A complete part shares [0, 1]; an edgeless one puts vertex v at the
    point v. One vertex counts as complete, as `Graph.is_complete` says.
    """
    if complete or size == 1:
        return IntervalRep((_UNIT,) * size)
    return IntervalRep(tuple(point(v) for v in range(size)))


def make_plan(outer: Graph, parts, skip=()) -> tuple[tuple[IntervalRep, ...], ...]:
    """The members of each part, in order: none for a skipped part.

    A part with no vertices has boxicity 0 and takes no member. Other
    complete and edgeless parts take their one `unit_rep`; anything else
    takes the exact boxicity oracle's witness. Nothing is checked here: the
    unit members are correct by construction, and a wrong oracle rep makes
    the lifted join cover fail its one check. Skipped parts must be
    complete and their outer vertices must form a clique. A join over the
    vertex or edge budget is refused before any member is built, and a
    part whose boxicity is over the oracle's bound is refused as a budget.
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
                raise ResourceBudgetError(f"no cover found for part {i} within the default bound")
            reps = tuple(res[1])
        part_reps.append(reps)
    return tuple(part_reps)


def lift_reps(outer: Graph, part_reps, blocks) -> list[IntervalRep]:
    """Unverified lifts of every part member into the join, part by part.

    part_reps[i] holds the members of part i (empty for a skipped or empty
    part); blocks[i] lists the target vertex of each vertex of part i, in
    order. The blocks must partition 0..t-1, and the lifts are over those t
    labels.
    """
    return [region_rep(outer, blocks, {i: rep}) for i, reps in enumerate(part_reps) for rep in reps]


def join_cover(claimed: Graph, outer: Graph, part_reps, blocks, what: str) -> IntervalCover:
    """Verified cover of `claimed`, the join of the parts over `outer`, from their members.

    part_reps and blocks are as in `lift_reps`, which lifts every member.
    A join with nothing to lift has its parts complete on an outer clique,
    or no vertex, so it is complete and takes one `unit_rep` (the one
    empty member when it has no vertex). A cover of more intervals than
    COVER_ENTRY_BUDGET is refused before any lift, and the cover is
    checked once; `what` names it in a refusal or a failure.
    """
    check_cover_budget(sum(map(len, part_reps)) * claimed.n, what)
    reps = lift_reps(outer, part_reps, blocks) or [unit_rep(claimed.n, True)]
    return verified_cover(claimed, reps, what)


def skip_join_cover(outer: Graph, parts, skip=()) -> IntervalCover:
    """Verified cover of the join using only the non-skipped parts' members.

    The parts are planned by `make_plan`. Skipping every part is refused
    before the join is built; a join whose other parts are all empty takes
    `join_cover`'s one shared member.
    """
    parts = tuple(parts)
    part_reps = make_plan(outer, parts, skip)
    if parts and all(p.n for p in parts) and not any(part_reps):
        raise InputError("at least one part must not be skipped")
    joined, blocks = generalized_join(outer, parts)
    return join_cover(joined, outer, part_reps, blocks, "join cover")


def reduced_cover(g: Graph) -> IntervalCover:
    """Verified cover of g with one member per neighborhood class.

    The quotient by equal open neighborhoods has independent classes (in a
    loopless graph two vertices with one open neighborhood are never
    adjacent), each an edgeless part of boxicity one, and joining them over
    the quotient rebuilds g with class c's vertices in place of block c.
    Lifting one unit member per class straight onto the class members
    certifies g; the empty graph has no class and takes `join_cover`'s one
    empty member.
    """
    quotient, blocks = reduced_graph(g)
    part_reps = [(unit_rep(len(blk), False),) for blk in blocks]
    return join_cover(g, quotient, part_reps, blocks, "reduced cover")
