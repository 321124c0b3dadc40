"""Circular cliques and chromatic-size interval covers for them.

The graph on vertices 0..k-1 with i ~ j exactly when d <= |i-j| <= k-d has
chromatic number ceil(k/d). Write k = m*d + b with 0 <= b < d. A cover of
that size has one interval supergraph per color class, each class a window
of consecutive vertices: one full-window member (the stepped construction
for m >= 3, the sliding block for m = 2 < k/d, the matching itself for
k = 2d) rotated by i*d for each of the m full windows, plus the stepped
construction on the remainder window rotated by m*d when b > 0. The
window constructions check nothing; `chi_cover` is the check: the
assembled cover is verified once, by `verified_cover`, before it leaves,
which tests that every member contains the circular clique and that the
members meet in exactly it. Its m + (b > 0) members are ceil(k/d) by
construction.
"""

from __future__ import annotations

from .errors import InputError
from .graphs import Graph, check_edge_budget, check_vertex_budget, edges_to_json
from .intervals import Interval, IntervalCover, IntervalRep, point, verified_cover


def circular_params(k: int, d: int) -> tuple[int, int]:
    """(m, b) with k = m*d + b and 0 <= b < d, for a valid pair k >= 2d >= 2."""
    if d < 1 or k < 2 * d:
        raise InputError(f"need k >= 2d >= 2, got k={k}, d={d}")
    return divmod(k, d)


def check_circular_edges(k: int, d: int) -> None:
    """Refuse, before anything is allocated, a circular clique over the edge budget.

    Each vertex meets the k - 2d + 1 others at circular distance d or more.
    """
    circular_params(k, d)
    check_edge_budget(k * (k - 2 * d + 1) // 2, f"the circular clique (k={k}, d={d})")


def check_circular_budget(k: int, d: int) -> None:
    """Refuse, before anything is allocated, a circular clique over the edge or vertex budget."""
    check_circular_edges(k, d)
    # the masks of a near-matching span all k bits
    check_vertex_budget(k, f"the circular clique (k={k}, d={d})")


def circular_clique(k: int, d: int) -> Graph:
    """Graph on 0..k-1 with i ~ j iff d <= |i-j| <= k-d: vertex 0's mask d..k-d, rotated by i."""
    check_circular_budget(k, d)
    ring, base = (1 << k) - 1, (1 << k - 2 * d + 1) - 1 << d
    return Graph.from_adj([(base << i | base >> k - i) & ring for i in range(k)])


def circular_clique_json(k: int, d: int) -> str:
    """Exactly `graph_to_json(circular_clique(k, d))`, written straight from k
    and d: the later neighbours of u are u+d..u+k-d, up to k-1. No bitset is
    built, so only the edge budget bounds it."""
    check_circular_edges(k, d)
    return edges_to_json(k, [(u, v) for u in range(k) for v in range(u + d, min(k, u + k - d + 1))])


def circular_chi(k: int, d: int) -> int:
    m, b = circular_params(k, d)
    return m + (b > 0)


def step_window_rep(k: int, d: int, r: int) -> IntervalRep:
    """Interval supergraph leaving the window 0..r-1 independent.

    Stepped construction: window vertex i sits at the isolated value d-i,
    which meets the ramp [d-i, d+1] of its partner d+i; everything from
    d+r on spans [1, d+1]. Sound on its own for k >= 3d; for shorter k it
    is unchecked here, and the verification of the cover that `chi_cover`
    assembles decides, raising rather than returning a wrong certificate.
    """
    b = circular_params(k, d)[1]
    if r < 1 or r not in (b, d):
        raise InputError(f"window size r={r} must be d={d} or the remainder {b}")
    intervals: list[Interval | None] = [None] * k
    for i in range(r):
        intervals[i] = point(d - i)
        intervals[d + i] = (d - i, d + 1)
    for i in range(r, d):
        intervals[i] = point(d + 1)
    for i in range(d + r, k):
        intervals[i] = (1, d + 1)
    return IntervalRep(tuple(intervals))


def block_window_rep(k: int, d: int) -> IntervalRep:
    """Interval supergraph leaving 0..d-1 independent, for 2d < k < 3d.

    On even coordinates the window vertices sit at the odd points between
    them: vertex t at 2t - 1. The next d vertices hold a block of width
    2b + 2 that slides rightward, vertex d+t spanning [2t - 2b - 2, 2t]
    (clamped at -2); the final b vertices span everything, [-2, 2d].
    """
    m, b = circular_params(k, d)
    if m != 2 or b < 1:
        raise InputError(f"block construction needs 2d < k < 3d, got k={k}, d={d}")
    intervals: list[Interval | None] = [None] * k
    for t in range(d):
        intervals[t] = point(2 * t - 1)
        intervals[d + t] = (max(2 * (t - b - 1), -2), 2 * t)
    for i in range(2 * d, k):
        intervals[i] = (-2, 2 * d)
    return IntervalRep(tuple(intervals))


def rotate_rep(rep: IntervalRep, shift: int) -> IntervalRep:
    """Rotate vertex roles: the new rep assigns to (i+shift) mod k what i had."""
    k = rep.n
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
    """Verified cover of the circular clique with ceil(k/d) members.

    One interval supergraph per color class: class i is the window
    [i*d, (i+1)*d), the full-window member rotated by i*d, and a short
    last class [m*d, k) takes the remainder window rotated by m*d. That
    makes m + (b > 0) = ceil(k/d) members by construction.
    """
    m, b = circular_params(k, d)
    g = circular_clique(k, d)  # first, so its budgets refuse before any rep is built
    if m >= 3:
        full = step_window_rep(k, d, d)
    elif b:
        full = block_window_rep(k, d)
    else:
        # k == 2d, a perfect matching: one interval graph realizes it
        # exactly, and rotating it by d gives it back
        full = _matching_rep(k, d)
    reps = [rotate_rep(full, i * d) for i in range(m)]
    if b:
        reps.append(rotate_rep(step_window_rep(k, d, b), m * d))
    return verified_cover(g, reps, f"cover for (k={k}, d={d})")
