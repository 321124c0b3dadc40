"""Exact clique number and chromatic number for desk-scale graphs.

Both solvers are branch-and-bound oracles: the clique search is
Bron-Kerbosch with pivoting, the coloring search seeds a maximum clique
with distinct colors and extends by saturation-first backtracking. Every
witness is re-verified before it is returned.
"""

from __future__ import annotations

from .errors import ConstructionDefectError, ResourceBudgetError
from .graphs import Coloring, Graph, is_clique

DEFAULT_SOLVER_LIMIT = 64


def _check_limit(g: Graph, limit: int | None) -> None:
    cap = DEFAULT_SOLVER_LIMIT if limit is None else limit
    if g.n > cap:
        raise ResourceBudgetError(f"graph has {g.n} vertices, solver limit is {cap}")


def _bron_kerbosch(g: Graph, found, hopeless=lambda r, p: False) -> None:
    """Bron-Kerbosch with pivoting: found(r) for every maximal clique r reached.

    A branch is cut before it expands when hopeless(r, p) says no clique
    between r and r | p can matter to the caller.
    """

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            found(r)
            return
        if hopeless(r, p):
            return
        pivot = max(p | x, key=lambda u: len(g.adj[u] & p))
        for v in sorted(p - g.adj[pivot]):
            expand(r | {v}, p & g.adj[v], x & g.adj[v])
            p.remove(v)
            x.add(v)

    if g.n:
        expand(set(), set(range(g.n)), set())


def maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """All maximal cliques, via Bron-Kerbosch with pivoting."""
    out: list[frozenset[int]] = []
    _bron_kerbosch(g, lambda r: out.append(frozenset(r)))
    return out


def clique_number_exact(g: Graph, limit: int | None = None) -> tuple[int, frozenset[int]]:
    """Largest clique size and a witness clique."""
    _check_limit(g, limit)
    if g.n == 0:
        return 0, frozenset()
    best: list[frozenset[int]] = [frozenset([0])]

    def found(r: set[int]) -> None:
        if len(r) > len(best[0]):
            best[0] = frozenset(r)

    _bron_kerbosch(g, found, lambda r, p: len(r) + len(p) <= len(best[0]))
    witness = best[0]
    if not is_clique(g, witness):
        raise ConstructionDefectError("clique witness failed re-verification", witness)
    return len(witness), witness


def _dsatur_greedy(g: Graph) -> list[int]:
    color = [-1] * g.n
    neighbor_colors: list[set[int]] = [set() for _ in range(g.n)]
    for _ in range(g.n):
        v = max(
            (u for u in range(g.n) if color[u] < 0),
            key=lambda u: (len(neighbor_colors[u]), g.degree(u), -u),
        )
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        color[v] = c
        for w in g.adj[v]:
            neighbor_colors[w].add(c)
    return color


def _try_k_coloring(g: Graph, k: int, seed: frozenset[int]) -> list[int] | None:
    """Backtracking k-coloring with a clique pre-colored; None when infeasible."""
    color = [-1] * g.n
    clique = sorted(seed)
    if len(clique) > k:
        return None
    for i, v in enumerate(clique):
        color[v] = i
    uncolored = set(range(g.n)) - set(clique)
    max_used = len(clique) - 1

    def extend(max_used: int) -> bool:
        if not uncolored:
            return True
        # saturation-first choice keeps the search shallow
        v = max(
            uncolored,
            key=lambda u: (
                len({color[w] for w in g.adj[u] if color[w] >= 0}),
                g.degree(u),
                -u,
            ),
        )
        used = {color[w] for w in g.adj[v] if color[w] >= 0}
        uncolored.remove(v)
        # a fresh color beyond max_used+1 is symmetric to max_used+1
        for c in range(min(k, max_used + 2)):
            if c in used:
                continue
            color[v] = c
            if extend(max(max_used, c)):
                return True
            color[v] = -1
        uncolored.add(v)
        return False

    return list(color) if extend(max_used) else None


def chromatic_number_exact(g: Graph, limit: int | None = None) -> tuple[int, Coloring]:
    """Minimum proper coloring size and a witness coloring."""
    _check_limit(g, limit)
    if g.n == 0:
        return 0, Coloring(())
    omega, clique = clique_number_exact(g, limit)
    greedy = _dsatur_greedy(g)
    upper = max(greedy) + 1
    best = greedy
    value = upper
    for k in range(omega, upper):
        attempt = _try_k_coloring(g, k, clique)
        if attempt is not None:
            best = attempt
            value = k
            break
    witness = Coloring(tuple(best))
    if not witness.is_proper(g) or witness.num_colors != value:
        raise ConstructionDefectError("coloring witness failed re-verification", witness)
    return value, witness
