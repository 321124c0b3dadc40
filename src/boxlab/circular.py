"""Circular cliques and chromatic-size interval covers for them.

The graph on vertices 0..k-1 with i ~ j exactly when d <= |i-j| <= k-d has
chromatic number ceil(k/d). A cover of that size is assembled from one
interval supergraph per color class: each class is a window of consecutive
vertices, the window's supergraph comes from one of two explicit
constructions, and vertex-transitivity (rotation) moves the window where
it is needed. Each window construction checks its own supergraph and
window independence, and the assembled cover is verified once, by
`verified_cover`, before it leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstructionDefectError, InputError
from .graphs import Graph, VertexPartition, is_independent, is_spanning_supergraph, make_graph, make_partition
from .intervals import (
    Interval,
    IntervalCover,
    IntervalRep,
    graph_of_intervals,
    point,
    verified_cover,
)


@dataclass(frozen=True)
class CircularParams:
    """Validated (k, d) pair with the derived quotient and remainder."""

    k: int
    d: int

    @property
    def m(self) -> int:
        return self.k // self.d

    @property
    def b(self) -> int:
        return self.k % self.d

    @property
    def chi(self) -> int:
        return -(-self.k // self.d)


def circular_params(k: int, d: int) -> CircularParams:
    if d < 1 or k < 2 * d:
        raise InputError(f"need k >= 2d >= 2, got k={k}, d={d}")
    return CircularParams(k, d)


def circular_clique(k: int, d: int) -> Graph:
    """Graph on 0..k-1 with i ~ j iff d <= |i-j| <= k-d."""
    p = circular_params(k, d)
    edges = [
        (i, j)
        for i in range(p.k)
        for j in range(i + 1, p.k)
        if p.d <= j - i <= p.k - p.d
    ]
    return make_graph(p.k, edges)


def circular_chi(k: int, d: int) -> int:
    return circular_params(k, d).chi


def color_classes(k: int, d: int) -> VertexPartition:
    """Windows of d consecutive vertices (plus a short last window); all independent."""
    p = circular_params(k, d)
    blocks = [list(range(i * p.d, (i + 1) * p.d)) for i in range(p.m)]
    if p.b:
        blocks.append(list(range(p.m * p.d, p.k)))
    part = make_partition(p.k, blocks)
    g = circular_clique(k, d)
    for blk in part.blocks:
        if not is_independent(g, blk):
            raise ConstructionDefectError("color class is not independent", blk)
    return part


def _verify_window_rep(rep: IntervalRep, k: int, d: int, window: range) -> None:
    g = circular_clique(k, d)
    realized = graph_of_intervals(rep)
    if not is_spanning_supergraph(realized, g):
        missing = sorted(g.edges - realized.edges)[0]
        raise ConstructionDefectError(
            f"window rep for (k={k}, d={d}) misses edge {missing}", missing
        )
    if not is_independent(realized, window):
        bad = next(
            (u, v)
            for i, u in enumerate(window)
            for v in list(window)[i + 1 :]
            if realized.has_edge(u, v)
        )
        raise ConstructionDefectError(
            f"window rep for (k={k}, d={d}) joins window pair {bad}", bad
        )


def step_window_rep(k: int, d: int, r: int) -> IntervalRep:
    """Interval supergraph leaving the window 0..r-1 independent.

    Stepped construction: window vertex i sits at the isolated value d-i,
    which meets the ramp [d-i, d+1] of its partner d+i; everything from
    d+r on spans [1, d+1]. Sound on its own for k >= 3d; for shorter k the
    mandatory verification decides, and failure raises rather than
    returning a wrong certificate.
    """
    p = circular_params(k, d)
    if r < 1 or r not in (p.b, p.d):
        raise InputError(f"window size r={r} must be d={p.d} or the remainder {p.b}")
    intervals: list[Interval | None] = [None] * p.k
    for i in range(r):
        intervals[i] = point(p.d - i)
        intervals[p.d + i] = (Fraction(p.d - i), Fraction(p.d + 1))
    for i in range(r, p.d):
        intervals[i] = point(p.d + 1)
    for i in range(p.d + r, p.k):
        intervals[i] = (Fraction(1), Fraction(p.d + 1))
    rep = IntervalRep(tuple(intervals))
    _verify_window_rep(rep, k, d, range(r))
    return rep


def block_window_rep(k: int, d: int) -> IntervalRep:
    """Interval supergraph leaving 0..d-1 independent, for 2d < k < 3d.

    The window vertices sit at halfway points inside unit gaps; the next d
    vertices are grouped into overlapping blocks of width b+1 whose
    intervals slide rightward; the final b vertices span everything.
    """
    p = circular_params(k, d)
    if p.m != 2 or p.b < 1:
        raise InputError(f"block construction needs 2d < k < 3d, got k={k}, d={d}")
    b = p.b
    c, e = divmod(p.d, b + 1)
    intervals: list[Interval | None] = [None] * p.k
    for i in range(p.d):
        intervals[i] = point(Fraction(2 * i - 1, 2))  # i - 1/2, inside (i-1, i)
    for j in range(b + 1):
        intervals[p.d + j] = (Fraction(-1), Fraction(j))
    for i in range(1, c):
        for j in range(b + 1):
            intervals[p.d + i * (b + 1) + j] = (
                Fraction((i - 1) * (b + 1) + j),
                Fraction(i * (b + 1) + j),
            )
    for j in range(e):
        intervals[p.d + c * (b + 1) + j] = (
            Fraction((c - 1) * (b + 1) + j),
            Fraction(c * (b + 1) + j),
        )
    for i in range(2 * p.d, p.k):
        intervals[i] = (Fraction(-1), Fraction(p.d))
    rep = IntervalRep(tuple(intervals))
    _verify_window_rep(rep, k, d, range(p.d))
    return rep


def rotate_rep(rep: IntervalRep, shift: int) -> IntervalRep:
    """Rotate vertex roles: the new rep assigns to (i+shift) mod k what i had."""
    k = rep.n
    if k == 0:
        return rep
    intervals: list[Interval] = [None] * k  # type: ignore[list-item]
    for i in range(k):
        intervals[(i + shift) % k] = rep.intervals[i]
    return IntervalRep(tuple(intervals))


def _matching_rep(k: int, d: int) -> IntervalRep:
    # k == 2d: the graph is a perfect matching {i, i+d}; give each pair its
    # own isolated point
    intervals = [point(i % d) for i in range(k)]
    return IntervalRep(tuple(intervals))


def chi_cover(k: int, d: int) -> IntervalCover:
    """Verified cover of the circular clique with exactly ceil(k/d) members.

    One interval supergraph per color class: class i is the window
    [i*d, (i+1)*d), handled by rotating a window construction into place.
    """
    p = circular_params(k, d)
    reps: list[IntervalRep] = []
    if p.m == 2 and p.b == 0:
        # perfect matching: one interval graph realizes it exactly, and it
        # leaves both classes independent; each class keeps its own copy so
        # the cover size matches the chromatic number
        base = _matching_rep(k, d)
        reps = [base, base]
    elif p.m >= 3:
        full = step_window_rep(k, d, p.d)
        for i in range(p.m):
            reps.append(rotate_rep(full, i * p.d))
        if p.b:
            short = step_window_rep(k, d, p.b)
            reps.append(rotate_rep(short, p.m * p.d))
    else:  # m == 2, b >= 1
        base = block_window_rep(k, d)
        reps = [base, rotate_rep(base, p.d)]
        short = step_window_rep(k, d, p.b)
        reps.append(rotate_rep(short, 2 * p.d))

    cover = verified_cover(circular_clique(k, d), reps, f"cover for (k={k}, d={d})")
    if len(cover) != p.chi:
        raise ConstructionDefectError(
            f"cover for (k={k}, d={d}) has {len(cover)} members, expected {p.chi}",
            (k, d),
        )
    return cover
