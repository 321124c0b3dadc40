"""Exact boxicity oracle for tiny graphs.

The minimum number of interval graphs on V(G) whose edge intersection is
E(G) is computed per connected component (boxicity of a disjoint union is
the maximum over components). For a non-interval component the search

  1. enumerates candidate interval supergraphs G + A over added-edge sets
     A, smallest first, testing each candidate edge set exactly once;
  2. records the "kill set" of each hit (the non-edges the supergraph
     still excludes), keeping only inclusion-maximal kills; two kills
     whose union is every non-edge certify boxicity 2 immediately;
  3. otherwise solves minimum set cover over the maximal kill sets
     exactly, which is the boxicity, with the chosen supergraphs as the
     witness.

Kill sets are antitone in A, so inclusion-maximal kills (equivalently,
minimal interval completions) suffice for the cover, and the unordered
cover formulation never explores permutations of the same multiset.

Budgets are deliberate: the enumeration is exponential in the number of
non-edges, so the oracle refuses graphs beyond a small configured size.
`BOXLAB_BUDGET` (either "V" or "V:E", vertex count and per-component
non-edge count) overrides the defaults.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import combinations

from .errors import ConstructionDefectError, InputError, ResourceBudgetError
from .graphs import Graph, induced_subgraph, make_graph
from .intervals import IntervalCover, IntervalRep, make_cover, verified_cover
from .recognition import is_interval_graph

DEFAULT_VERTEX_BUDGET = 10
DEFAULT_NONEDGE_BUDGET = 14
DEFAULT_MAX_COVERS = 8


def budgets_from_env() -> tuple[int, int]:
    raw = os.environ.get("BOXLAB_BUDGET")
    if not raw:
        return DEFAULT_VERTEX_BUDGET, DEFAULT_NONEDGE_BUDGET
    try:
        if ":" in raw:
            v, e = raw.split(":", 1)
            return int(v), int(e)
        return int(raw), DEFAULT_NONEDGE_BUDGET
    except ValueError as exc:
        raise InputError(f"malformed BOXLAB_BUDGET {raw!r}") from exc


class _ComponentSearch:
    """Kill-set enumeration and exact cover for one connected component."""

    def __init__(self, g: Graph):
        self.g = g
        self.nonedges = tuple(g.non_edges())
        self.full = (1 << len(self.nonedges)) - 1
        # maximal kill masks with one added-edge set realizing each
        self.kills: list[tuple[int, frozenset]] = []

    def _try_added(self, added: frozenset) -> IntervalRep | None:
        h = make_graph(self.g.n, set(self.g.edges) | set(added))
        ok, payload = is_interval_graph(h)
        return payload if ok else None

    def _note_kill(self, kill: int, added: frozenset) -> tuple[int, int] | None:
        """Record a kill mask; report a covering pair the moment one exists."""
        for k, _ in self.kills:
            if k & kill == kill:
                return None  # dominated, nothing new
        for k, _ in self.kills:
            if k | kill == self.full:
                self.kills.append((kill, added))
                return (k, kill)
        self.kills = [(k, a) for k, a in self.kills if kill & k != k]
        self.kills.append((kill, added))
        return None

    def enumerate_kills(self) -> tuple[int, int] | None:
        """Scan added-edge sets smallest first; stop at a certified 2-cover."""
        m = len(self.nonedges)
        for size in range(m + 1):
            for combo in combinations(range(m), size):
                added = frozenset(self.nonedges[i] for i in combo)
                if self._try_added(added) is None:
                    continue
                kill = self.full
                for i in combo:
                    kill &= ~(1 << i)
                pair = self._note_kill(kill, added)
                if pair is not None:
                    return pair
        return None

    def min_cover(self) -> list[frozenset]:
        """Exact minimum set cover over the maximal kills; added-edge sets out."""
        memo: dict[int, tuple[int, tuple[int, frozenset] | None]] = {0: (0, None)}

        def solve(mask: int) -> int:
            if mask in memo:
                return memo[mask][0]
            lowest = mask & -mask
            best, choice = len(self.nonedges) + 1, None
            for k, added in self.kills:
                if k & lowest:
                    sub = solve(mask & ~k)
                    if sub + 1 < best:
                        best, choice = sub + 1, (k, added)
            memo[mask] = (best, choice)
            return best

        solve(self.full)
        chosen, mask = [], self.full
        while mask:
            _, choice = memo[mask]
            if choice is None:
                raise ConstructionDefectError("cover reconstruction lost its trail")
            k, added = choice
            chosen.append(added)
            mask &= ~k
        return chosen

    def rep_for(self, added: frozenset) -> IntervalRep:
        rep = self._try_added(added)
        if rep is None:
            raise ConstructionDefectError("chosen supergraph stopped being interval", added)
        return rep


def _component_boxicity(g: Graph, max_l: int, nonedge_budget: int):
    """(value, reps) for a connected graph, or None when value exceeds max_l."""
    if g.n == 0:
        return 0, []
    ok, payload = is_interval_graph(g)
    if ok:
        return 1, [payload]
    if max_l < 2:
        return None
    if len(g.non_edges()) > nonedge_budget:
        raise ResourceBudgetError(
            f"component has {len(g.non_edges())} non-edges, budget is {nonedge_budget}"
        )
    searcher = _ComponentSearch(g)
    pair = searcher.enumerate_kills()
    if pair is not None:
        added_by_kill = dict((k, a) for k, a in searcher.kills)
        reps = [searcher.rep_for(added_by_kill[k]) for k in pair]
        return 2, reps
    chosen = searcher.min_cover()
    if len(chosen) > max_l:
        return None
    return len(chosen), [searcher.rep_for(a) for a in chosen]


def boxicity_exact(
    g: Graph,
    max_l: int = DEFAULT_MAX_COVERS,
    vertex_budget: int | None = None,
    nonedge_budget: int | None = None,
) -> tuple[int, IntervalCover] | None:
    """Exact boxicity with a verified witness cover; None when it exceeds max_l.

    Conventions: the empty graph has boxicity 0; any non-empty edgeless or
    complete graph has boxicity 1. Components are solved independently and
    laid out on disjoint segments of the line.
    """
    env_v, env_e = budgets_from_env()
    v_budget = env_v if vertex_budget is None else vertex_budget
    e_budget = env_e if nonedge_budget is None else nonedge_budget
    if g.n > v_budget:
        raise ResourceBudgetError(f"graph has {g.n} vertices, budget is {v_budget}")
    if max_l < 1:
        raise InputError("max_l must be at least 1")
    if g.n == 0:
        return 0, make_cover(g, (IntervalRep(()),))

    comps = g.connected_components()
    per_comp = []
    value = 1
    for comp in comps:
        sub, vmap = induced_subgraph(g, comp)
        res = _component_boxicity(sub, max_l, e_budget)
        if res is None:
            return None
        ell, reps = res
        per_comp.append((vmap, reps))
        value = max(value, ell)

    # assemble: cover j takes each component's j-th rep (first rep repeated
    # once a component runs out), normalized onto disjoint segments so cross
    # pairs stay non-adjacent in every cover
    reps_out = []
    for j in range(value):
        intervals: list = [None] * g.n
        cursor = Fraction(0)
        for vmap, reps in per_comp:
            rep = reps[j] if j < len(reps) else reps[0]
            if not rep.intervals:
                continue
            lo_min = min(lo for lo, _ in rep.intervals)
            hi_max = max(hi for _, hi in rep.intervals)
            shift = cursor - lo_min
            for new_v, old_v in enumerate(vmap):
                lo, hi = rep.intervals[new_v]
                intervals[old_v] = (lo + shift, hi + shift)
            cursor += (hi_max - lo_min) + 1
        reps_out.append(IntervalRep(tuple(intervals)))

    return value, verified_cover(g, reps_out, "assembled witness cover")
