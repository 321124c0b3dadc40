"""Exact clique number and chromatic number for desk-scale graphs.

Both solvers are branch-and-bound oracles: the clique search is
Bron-Kerbosch with pivoting, the coloring search seeds a maximum clique
with distinct colors and extends by saturation-first backtracking. Every
witness is re-verified before it is returned.
"""

from __future__ import annotations

from .errors import ConstructionDefectError, ResourceBudgetError
from .graphs import Coloring, Graph, bits, is_clique

DEFAULT_SOLVER_LIMIT = 64


def _check_limit(g: Graph) -> None:
    if g.n > DEFAULT_SOLVER_LIMIT:
        raise ResourceBudgetError(
            f"graph has {g.n} vertices, solver limit is {DEFAULT_SOLVER_LIMIT}"
        )


def _bron_kerbosch(g: Graph, found, hopeless=lambda r, p: False) -> None:
    """Bron-Kerbosch with pivoting on vertex masks: found(r) for every maximal
    clique mask r reached.

    A branch is cut before it expands when hopeless(r, p) says no clique
    between r and r | p can matter to the caller.
    """

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            found(r)
            return
        if hopeless(r, p):
            return
        pivot = max(bits(p | x), key=lambda u: (g.adj[u] & p).bit_count())
        for v in bits(p & ~g.adj[pivot]):
            expand(r | 1 << v, p & g.adj[v], x & g.adj[v])
            p ^= 1 << v
            x |= 1 << v

    if g.n:
        expand(0, (1 << g.n) - 1, 0)


def maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """All maximal cliques, via Bron-Kerbosch with pivoting."""
    out: list[frozenset[int]] = []
    _bron_kerbosch(g, lambda r: out.append(frozenset(bits(r))))
    return out


def clique_number_exact(g: Graph) -> tuple[int, frozenset[int]]:
    """Largest clique size and a witness clique."""
    _check_limit(g)
    if g.n == 0:
        return 0, frozenset()
    best = [1]  # the mask of vertex 0

    def found(r: int) -> None:
        if r.bit_count() > best[0].bit_count():
            best[0] = r

    _bron_kerbosch(g, found, lambda r, p: (r | p).bit_count() <= best[0].bit_count())
    witness = frozenset(bits(best[0]))
    if not is_clique(g, witness):
        raise ConstructionDefectError("clique witness failed re-verification", witness)
    return len(witness), witness


def _dsatur_greedy(g: Graph) -> list[int]:
    color = [-1] * g.n
    neighbor_colors = [0] * g.n  # bit c set when a neighbour has color c
    for _ in range(g.n):
        v = max(
            (u for u in range(g.n) if color[u] < 0),
            key=lambda u: (neighbor_colors[u].bit_count(), g.degree(u), -u),
        )
        taken = neighbor_colors[v]
        c = (~taken & taken + 1).bit_length() - 1  # the lowest color not taken
        color[v] = c
        for w in bits(g.adj[v]):
            neighbor_colors[w] |= 1 << c
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
                len({color[w] for w in bits(g.adj[u]) if color[w] >= 0}),
                g.degree(u),
                -u,
            ),
        )
        used = {color[w] for w in bits(g.adj[v]) if color[w] >= 0}
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


def chromatic_number_exact(g: Graph) -> tuple[int, Coloring]:
    """Minimum proper coloring size and a witness coloring."""
    _check_limit(g)
    if g.n == 0:
        return 0, Coloring(())
    omega, clique = clique_number_exact(g)
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
