"""Exact boxicity oracle for tiny graphs.

The minimum number of interval graphs on V(G) whose edge intersection is
E(G) is computed per connected component (boxicity of a disjoint union is
the maximum over components). For a non-interval component the search

  1. enumerates candidate interval supergraphs G + A over added-edge sets
     A, smallest first. Each recognition leaves a record (required,
     forbidden) of non-edge masks, and a later A that holds `required` and
     misses `forbidden` is skipped without one. A hit at A records (A, 0):
     an interval superset has its kill set inside A's. A hole or an
     asteroidal triple records its added edges and the non-edges that keep
     it induced, so it survives in every G + A the record covers. A skipped
     candidate would leave the maximal kills and the early 2-cover as they
     are, so the witness is the one the full scan gives;
  2. records the "kill set" of each hit (the non-edges the supergraph
     still excludes) with the representation its recognition returned,
     keeping only inclusion-maximal kills; two kills whose union is every
     non-edge certify boxicity 2 immediately;
  3. otherwise solves minimum set cover over the maximal kill sets
     exactly, which is the boxicity, with the chosen supergraphs'
     representations as the witness, verified once by `boxicity_exact`.

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
from .graphs import Graph, induced_subgraph
from .intervals import IntervalCover, IntervalRep, make_cover, verified_cover
from .recognition import Obstruction, asteroidal_paths, is_interval_graph

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
        self.index = {e: i for i, e in enumerate(self.nonedges)}
        self.full = (1 << len(self.nonedges)) - 1
        # maximal kill masks with the representation of the supergraph that
        # realized each one
        self.kills: list[tuple[int, IntervalRep]] = []
        # (required, forbidden) masks over the non-edges: every added set that
        # holds `required` and misses `forbidden` is already decided
        self.decided: list[tuple[int, int]] = []

    def _mask(self, pairs) -> int:
        """The non-edges of g among `pairs`, as a mask; edges of g are skipped."""
        mask = 0
        for u, v in pairs:
            i = self.index.get((u, v) if u < v else (v, u))
            if i is not None:
                mask |= 1 << i
        return mask

    def _decide(self, added: int, h: Graph, payload: IntervalRep | Obstruction) -> tuple[int, int]:
        """The (required, forbidden) record of one recognition of h = g + added.

        A hole keeps its cycle edges and none of its chords. An asteroidal
        triple keeps its three paths, and each path stays clear of the third
        vertex.
        """
        if isinstance(payload, IntervalRep):
            return added, 0
        w = payload.witness
        if payload.kind == "chordless-cycle":
            k = len(w)
            chords = ((w[i], w[j]) for i, j in combinations(range(k), 2) if j - i not in (1, k - 1))
            return self._mask(zip(w, w[1:] + w[:1])), self._mask(chords)
        paths = asteroidal_paths(h, w)
        if paths is None:
            raise ConstructionDefectError("AT witness lost its paths", w)
        required = forbidden = 0
        for path, third in zip(paths, (w[2], w[0], w[1])):
            required |= self._mask(zip(path, path[1:]))
            forbidden |= self._mask((third, p) for p in path)
        return required, forbidden

    def _note_kill(self, kill: int, rep: IntervalRep) -> list[IntervalRep] | None:
        """Record a kill mask; report a covering pair the moment one exists."""
        for k, _ in self.kills:
            if k & kill == kill:
                return None  # dominated, nothing new
        for k, k_rep in self.kills:
            if k | kill == self.full:
                self.kills.append((kill, rep))
                return [k_rep, rep]
        self.kills = [(k, r) for k, r in self.kills if kill & k != k]
        self.kills.append((kill, rep))
        return None

    def enumerate_kills(self) -> list[IntervalRep] | None:
        """Scan undecided added-edge sets smallest first; stop at a certified 2-cover."""
        m = len(self.nonedges)
        decided = self.decided
        for size in range(m + 1):
            for combo in combinations(range(m), size):
                added = 0
                for i in combo:
                    added |= 1 << i
                if any(added & req == req and not added & forb for req, forb in decided):
                    continue
                adj = list(self.g.adj)
                for i in combo:
                    u, v = self.nonedges[i]
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                h = Graph.from_adj(adj)
                ok, payload = is_interval_graph(h)
                decided.append(self._decide(added, h, payload))
                if not ok:
                    continue
                pair = self._note_kill(self.full & ~added, payload)
                if pair is not None:
                    return pair
        return None

    def min_cover(self) -> list[IntervalRep]:
        """Exact minimum set cover over the maximal kills; their reps out."""
        memo: dict[int, tuple[int, tuple[int, IntervalRep] | None]] = {0: (0, None)}

        def solve(mask: int) -> int:
            if mask in memo:
                return memo[mask][0]
            lowest = mask & -mask
            best, choice = len(self.nonedges) + 1, None
            for k, rep in self.kills:
                if k & lowest:
                    sub = solve(mask & ~k)
                    if sub + 1 < best:
                        best, choice = sub + 1, (k, rep)
            memo[mask] = (best, choice)
            return best

        solve(self.full)
        chosen, mask = [], self.full
        while mask:
            _, choice = memo[mask]
            if choice is None:
                raise ConstructionDefectError("cover reconstruction lost its trail")
            k, rep = choice
            chosen.append(rep)
            mask &= ~k
        return chosen


def _component_boxicity(g: Graph, max_l: int, nonedge_budget: int):
    """(value, reps) for a connected graph, or None when value exceeds max_l."""
    if g.n == 0:
        return 0, []
    ok, payload = is_interval_graph(g)
    if ok:
        return 1, [payload]
    if max_l < 2:
        return None
    searcher = _ComponentSearch(g)
    if len(searcher.nonedges) > nonedge_budget:
        raise ResourceBudgetError(
            f"component has {len(searcher.nonedges)} non-edges, budget is {nonedge_budget}"
        )
    pair = searcher.enumerate_kills()
    if pair is not None:
        return 2, pair
    chosen = searcher.min_cover()
    if len(chosen) > max_l:
        return None
    return len(chosen), chosen


def boxicity_exact(g: Graph, max_l: int = DEFAULT_MAX_COVERS) -> tuple[int, IntervalCover] | None:
    """Exact boxicity with a verified witness cover; None when it exceeds max_l.

    Conventions: the empty graph has boxicity 0; any non-empty edgeless or
    complete graph has boxicity 1. Components are solved independently and
    laid out on disjoint segments of the line.
    """
    res = _boxicity_reps(g, max_l)
    if res is None:
        return None
    return res[0], verified_cover(g, res[1], "assembled witness cover")


def _boxicity_reps(g: Graph, max_l: int = DEFAULT_MAX_COVERS) -> tuple[int, list[IntervalRep]] | None:
    """`boxicity_exact` with its witness reps unchecked, for callers that
    verify a cover built from them."""
    v_budget, e_budget = budgets_from_env()
    if g.n > v_budget:
        raise ResourceBudgetError(f"graph has {g.n} vertices, budget is {v_budget}")
    if max_l < 1:
        raise InputError("max_l must be at least 1")
    if g.n == 0:
        return 0, [IntervalRep(())]

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
    return value, reps_out
