"""Exact boxicity oracle for tiny graphs.

The minimum number of interval graphs on V(G) whose edge intersection is
E(G) is computed per connected component (boxicity of a disjoint union is
the maximum over components). For a non-interval component the search

  1. explores added-edge sets A level by level, one size per level, from
     A = {}, whose obstruction G's own recognition gave. An A whose kill
     set lies inside a kept kill holds a kept hit, and is dropped with
     everything built from it. Otherwise G + A is recognized. An
     obstruction of G + A branches to A + f for each pair f it forbids: a
     hole's chords, or an asteroidal triple's third vertex paired with the
     path that avoids it. Every interval supergraph of G + A adds one such
     f, so every minimal interval completion is reached. Each level is
     deduplicated and sorted in `combinations` order. A non-minimal hit
     would hold a smaller hit kept on an earlier level, so the hits are the
     minimal completions in the order a walk over all 2^m sets finds them,
     and the witness is the one it gives;
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
non-edge count, each non-negative) overrides the defaults.
"""

from __future__ import annotations

import os

from .errors import ConstructionDefectError, InputError, ResourceBudgetError
from .graphs import Graph, bits, empty_graph, induced_subgraph
from .intervals import IntervalCover, IntervalRep, region_rep, verified_cover
from .recognition import Obstruction, is_interval_graph

DEFAULT_VERTEX_BUDGET = 10
DEFAULT_NONEDGE_BUDGET = 14
DEFAULT_MAX_COVERS = 8


def budgets_from_env() -> tuple[int, int]:
    raw = os.environ.get("BOXLAB_BUDGET")
    if not raw:
        return DEFAULT_VERTEX_BUDGET, DEFAULT_NONEDGE_BUDGET
    try:
        v, e = raw.split(":", 1) if ":" in raw else (raw, DEFAULT_NONEDGE_BUDGET)
        budgets = int(v), int(e)
        if min(budgets) < 0:
            raise ValueError("a budget is negative")
    except ValueError as exc:
        raise InputError(f"malformed BOXLAB_BUDGET {raw!r}") from exc
    return budgets


class _ComponentSearch:
    """Kill-set enumeration and exact cover for one connected component."""

    def __init__(self, g: Graph, obstruction: Obstruction):
        self.g = g
        self.obstruction = obstruction
        self.nonedges = tuple(g.non_edges())
        self.index = {e: i for i, e in enumerate(self.nonedges)}
        self.full = (1 << len(self.nonedges)) - 1
        # maximal kill masks with the representation of the supergraph that
        # realized each one
        self.kills: list[tuple[int, IntervalRep]] = []

    def _mask(self, pairs) -> int:
        """The non-edges of g among `pairs`, as a mask; edges of g are skipped."""
        mask = 0
        for u, v in pairs:
            i = self.index.get((u, v) if u < v else (v, u))
            if i is not None:
                mask |= 1 << i
        return mask

    def _forbidden(self, obstruction: Obstruction) -> int:
        """The non-edges of g that every interval supergraph of the obstructed graph adds one of.

        A hole's chords; for an asteroidal triple, each third vertex paired
        with every vertex of the obstruction's path that avoids it.
        """
        w = obstruction.witness
        if obstruction.kind == "chordless-cycle":
            k = len(w)
            # j >= i + 2 skips w[i]'s successor, and w[0]'s predecessor is w[k - 1]
            chords = ((w[i], w[j]) for i in range(k) for j in range(i + 2, k - (i == 0)))
            return self._mask(chords)
        forbidden = 0
        for path, third in zip(obstruction.paths, (w[2], w[0], w[1])):
            forbidden |= self._mask((third, p) for p in path)
        return forbidden

    def _note_kill(self, kill: int, rep: IntervalRep) -> list[IntervalRep] | None:
        """Keep a kill that no kept kill holds, as the caller checks; report a
        covering pair the moment one exists. Kills arrive in nondecreasing
        added-set size, so the new kill holds no kept one either."""
        for k, k_rep in self.kills:
            if k | kill == self.full:
                self.kills.append((kill, rep))
                return [k_rep, rep]
        self.kills.append((kill, rep))
        return None

    def enumerate_kills(self) -> list[IntervalRep] | None:
        """Branch on obstructions, from the one g's recognition gave, one
        added-set size per level; stop at a certified 2-cover."""
        level = [1 << f for f in bits(self._forbidden(self.obstruction))]
        while level:
            children = set()
            for added in level:
                kill = self.full & ~added
                if any(k & kill == kill for k, _ in self.kills):
                    continue  # holds a kept hit
                adj = list(self.g.adj)
                for i in bits(added):
                    u, v = self.nonedges[i]
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                h = Graph.from_adj(adj)
                ok, payload = is_interval_graph(h)
                if ok:
                    pair = self._note_kill(kill, payload)
                    if pair is not None:
                        return pair
                else:
                    children.update(added | 1 << f for f in bits(self._forbidden(payload)))
            level = sorted(children, key=lambda a: list(bits(a)))
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
    """(value, reps) for a non-empty connected graph, or None when value
    exceeds max_l."""
    ok, payload = is_interval_graph(g)
    if ok:
        return 1, [payload]
    if max_l < 2:
        return None
    searcher = _ComponentSearch(g, payload)
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

    blocks, comp_reps = [], []
    value = 1
    for comp in g.connected_components():
        sub, vmap = induced_subgraph(g, comp)
        res = _component_boxicity(sub, max_l, e_budget)
        if res is None:
            return None
        blocks.append(vmap)
        comp_reps.append(res[1])
        value = max(value, res[0])

    # cover j lays each component's j-th rep (its first once it runs out) on
    # a region of its own, so cross pairs stay non-adjacent in every cover
    apart = empty_graph(len(blocks))
    return value, [
        region_rep(apart, blocks, {c: reps[j] if j < len(reps) else reps[0] for c, reps in enumerate(comp_reps)})
        for j in range(value)
    ]
