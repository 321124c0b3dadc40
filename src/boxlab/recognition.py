"""Interval graph recognition with certificates in both directions.

Decision procedure: a graph is an interval graph exactly when it is chordal
and has no asteroidal triple. Chordality is tested through a Lex-BFS
perfect-elimination order; the asteroidal-triple search uses per-vertex
component labelings of the graph minus a closed neighborhood.

Positive answers come with a representation extracted from a consecutive
ordering of the maximal cliques; negative answers come with a re-verifiable
obstruction (an induced cycle of length at least 4, or an asteroidal
triple). The clique ordering is found by an exhaustive search with
consecutiveness pruning, tried first under a node budget linear in the
clique count; the cubic asteroidal-triple scan runs only when it fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ConstructionDefectError, ResourceBudgetError
from .graphs import Graph, bits
from .intervals import IntervalRep, interval_adjacency


@dataclass(frozen=True)
class Obstruction:
    kind: str  # "chordless-cycle" | "asteroidal-triple"
    witness: tuple[int, ...]


# ---------------------------------------------------------------------------
# chordality


def lex_bfs_order(g: Graph) -> list[int]:
    """Lexicographic BFS visit order, by partition refinement on int bitsets.

    The cells are the classes of equal label, largest label first. The first
    cell's lowest vertex is visited next, which is the smallest vertex with
    the largest label; then each cell splits into its neighbours and the rest.
    """
    cells = [(1 << g.n) - 1] if g.n else []
    order: list[int] = []
    while cells:
        v = next(bits(cells[0]))
        order.append(v)
        cells[0] ^= 1 << v
        nv = g.adj[v]
        split = []
        for cell in cells:
            inside = cell & nv
            if inside:
                split.append(inside)
                if inside != cell:
                    split.append(cell ^ inside)
            elif cell:
                split.append(cell)
        cells = split
    return order


def perfect_elimination_order(g: Graph) -> list[int] | None:
    """A perfect elimination order, or None when the graph is not chordal.

    The reverse of a Lex-BFS visit order is a perfect elimination order
    exactly on chordal graphs; this runs the standard follower check on it.
    """
    tau = lex_bfs_order(g)[::-1]
    pos = {v: i for i, v in enumerate(tau)}
    rest = (1 << g.n) - 1
    for v in tau:
        rest ^= 1 << v
        later = g.adj[v] & rest
        if later:
            first = min(bits(later), key=pos.__getitem__)
            if later & ~g.adj[first] & ~(1 << first):
                return None
    return tau


def _bfs_path(g: Graph, start: int, goal: int, blocked: int) -> list[int] | None:
    """Shortest path avoiding the mask `blocked`; shortest means the path is induced."""
    if (blocked >> start | blocked >> goal) & 1:
        return None
    layers, seen = [1 << start], blocked | 1 << start
    while not layers[-1] >> goal & 1:
        reach = 0
        for v in bits(layers[-1]):
            reach |= g.adj[v]
        reach &= ~seen
        if not reach:
            return None
        seen |= reach
        layers.append(reach)
    path = [goal]
    for layer in reversed(layers[:-1]):
        path.append(next(bits(layer & g.adj[path[-1]])))
    return path[::-1]


def find_chordless_cycle(g: Graph) -> tuple[int, ...]:
    """An induced cycle of length >= 4; callers guarantee one exists.

    For any hole and any vertex v on it, the two cycle neighbors of v are
    non-adjacent and the rest of the hole connects them while avoiding
    N[v], so scanning all such triples must succeed.
    """
    for v in range(g.n):
        ball, nbrs = g.adj[v] | 1 << v, list(bits(g.adj[v]))
        reach = None
        for x, y in combinations(nbrs, 2):
            if g.adj[x] >> y & 1 or (reach is not None and not reach[x] & reach[y]):
                continue
            path = _bfs_path(g, x, y, ball ^ (1 << x | 1 << y))
            if path is not None:
                return (v, *path)
            if reach is None:
                # after a first miss, skip the pairs with no path: x and y are
                # joined avoiding N[v] exactly when both have a neighbour in
                # one component of g - N[v]
                comps = g.components_within(((1 << g.n) - 1) & ~ball)
                reach = {u: {i for i, c in enumerate(comps) if c & g.adj[u]} for u in nbrs}
    raise ConstructionDefectError("no chordless cycle found in a non-chordal graph")


def is_induced_cycle(g: Graph, cycle: tuple[int, ...]) -> bool:
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    for i, j in combinations(range(k), 2):
        adjacent = g.has_edge(cycle[i], cycle[j])
        consecutive = (j - i == 1) or (i == 0 and j == k - 1)
        if adjacent != consecutive:
            return False
    return True


# ---------------------------------------------------------------------------
# asteroidal triples


def _components_avoiding(g: Graph, z: int) -> list[int]:
    """Component id per vertex in g minus N[z]; -1 inside the removed ball."""
    label = [-1] * g.n
    outside = ((1 << g.n) - 1) & ~(g.adj[z] | 1 << z)
    for comp, mask in enumerate(g.components_within(outside)):
        for v in bits(mask):
            label[v] = comp
    return label


def find_asteroidal_triple(g: Graph) -> tuple[int, int, int] | None:
    """Some asteroidal triple, or None if the graph is AT-free."""
    comp = [_components_avoiding(g, z) for z in range(g.n)]
    full = (1 << g.n) - 1
    non_nbrs = [full & ~(nv | 1 << v) for v, nv in enumerate(g.adj)]
    for x in range(g.n):
        for y in bits(non_nbrs[x] & -2 << x):
            cxy = comp[x][y]
            for z in bits(non_nbrs[x] & non_nbrs[y] & -2 << y):
                if (
                    comp[z][x] == comp[z][y]
                    and comp[y][x] == comp[y][z]
                    and cxy == comp[x][z]
                ):
                    return (x, y, z)
    return None


def asteroidal_paths(g: Graph, triple) -> tuple[list[int], list[int], list[int]] | None:
    """The witness paths of an asteroidal triple (x, y, z), or None if it is not one.

    The paths join x to y, y to z and z to x, each avoiding the closed
    neighbourhood of the third vertex.
    """
    x, y, z = triple
    if len({x, y, z}) != 3:
        return None
    if g.has_edge(x, y) or g.has_edge(y, z) or g.has_edge(x, z):
        return None
    paths = []
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        path = _bfs_path(g, a, b, g.adj[c] | 1 << c)
        if path is None:
            return None
        paths.append(path)
    return tuple(paths)


def is_asteroidal_triple(g: Graph, triple) -> bool:
    return asteroidal_paths(g, triple) is not None


# ---------------------------------------------------------------------------
# maximal cliques and consecutive ordering


def maximal_cliques_chordal(g: Graph, peo: list[int]) -> list[frozenset[int]]:
    """Maximal cliques of a chordal graph from a perfect elimination order.

    The candidates are C(v), v with its later neighbours; the maximal ones
    come out largest first, in elimination order among equal sizes. C(p)
    lies inside another candidate exactly when p is the first later
    neighbour of some u with more later neighbours than p: those of u form
    a clique, so all but p are later neighbours of p. One pass finds them.
    """
    pos = {v: i for i, v in enumerate(peo)}
    later = [[p for w in bits(g.adj[v]) if (p := pos[w]) > i] for i, v in enumerate(peo)]
    inside = set()
    for ps in later:
        if ps:
            first = min(ps)
            if len(ps) > len(later[first]):
                inside.add(first)
    out = [
        frozenset({peo[i]} | {peo[j] for j in ps})
        for i, ps in enumerate(later)
        if i not in inside
    ]
    out.sort(key=len, reverse=True)
    return out


_ORDER_NODE_CAP = 2_000_000


def consecutive_clique_order(
    cliques: list[frozenset[int]], n: int, *, _cap: int = _ORDER_NODE_CAP
) -> list[int] | None:
    """Order clique indices so every vertex's cliques appear consecutively.

    Exhaustive left-to-right placement. The two pruning rules are exactly
    the consecutiveness condition, so the search returns an order whenever
    one exists: the next clique must contain every vertex of the previous
    clique that still has unplaced cliques, and may not contain a vertex
    whose run already ended. More than `_cap` search nodes raise
    `ResourceBudgetError`; below it the answer does not depend on the cap.
    """
    q = len(cliques)
    if q <= 1:
        return list(range(q))
    vert_cliques: dict[int, set[int]] = {}
    for i, c in enumerate(cliques):
        for v in c:
            vert_cliques.setdefault(v, set()).add(i)

    # split by shared vertices; components can be concatenated freely
    parent = list(range(q))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for ids in vert_cliques.values():
        ids = sorted(ids)
        for other in ids[1:]:
            ra, rb = find(ids[0]), find(other)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for i in range(q):
        groups.setdefault(find(i), []).append(i)

    nodes = [0]

    def solve_group(members: list[int]) -> list[int] | None:
        if len(members) == 1:
            return members
        member_set = set(members)
        exclusive = {
            i
            for i in members
            if any(len(vert_cliques[v]) == 1 for v in cliques[i])
        }
        starts = sorted(exclusive) if exclusive else sorted(members)

        def extend(start: int) -> list[int] | None:
            # depth-first over partial orders; each stack frame keeps the
            # untried candidates of one node, best first
            order, placed, seen = [start], {start}, set(cliques[start])
            stack = []
            while True:
                nodes[0] += 1
                if nodes[0] > _cap:
                    raise ResourceBudgetError("clique ordering search exceeded its node cap")
                if len(order) == len(members):
                    return order
                prev = cliques[order[-1]]
                open_vs = {v for v in prev if not vert_cliques[v] <= placed}
                candidates = []
                for i in member_set - placed:
                    c = cliques[i]
                    if open_vs <= c and (c & seen) <= prev:
                        candidates.append(i)
                candidates.sort(key=lambda i: (-len(cliques[i] & prev), i))
                stack.append((order, placed, seen, iter(candidates)))
                while stack:
                    order, placed, seen, untried = stack[-1]
                    i = next(untried, None)
                    if i is not None:
                        break
                    stack.pop()
                else:
                    return None
                order, placed, seen = order + [i], placed | {i}, seen | cliques[i]

        for s in starts:
            res = extend(s)
            if res is not None:
                return res
        return None

    ordered: list[int] = []
    for members in groups.values():
        sub = solve_group(sorted(members))
        if sub is None:
            return None
        ordered.extend(sub)
    return ordered


def rep_from_clique_order(
    cliques: list[frozenset[int]], order: list[int], n: int
) -> IntervalRep:
    """Vertex v gets [first, last] over the positions of cliques containing v."""
    first = [None] * n
    last = [None] * n
    for posn, idx in enumerate(order):
        for v in cliques[idx]:
            if first[v] is None:
                first[v] = posn
            last[v] = posn
    intervals = []
    for v in range(n):
        if first[v] is None:
            raise ConstructionDefectError(f"vertex {v} missing from all cliques")
        intervals.append((Fraction(first[v]), Fraction(last[v])))
    return IntervalRep(tuple(intervals))


# ---------------------------------------------------------------------------
# the recognizer


def is_interval_graph(g: Graph) -> tuple[bool, IntervalRep | Obstruction]:
    """Decide interval-ness; returns a realized-exact representation or an obstruction."""
    if g.n == 0:
        return True, IntervalRep(())
    peo = perfect_elimination_order(g)
    if peo is None:
        hole = find_chordless_cycle(g)
        if not is_induced_cycle(g, hole):
            raise ConstructionDefectError("hole witness failed re-verification", hole)
        return False, Obstruction("chordless-cycle", hole)
    cliques = maximal_cliques_chordal(g, peo)
    try:
        # interval graphs stay far inside this budget; without it the search
        # can go exponential on a chordal graph with an asteroidal triple
        order = consecutive_clique_order(cliques, g.n, _cap=8 * len(cliques) + 64)
    except ResourceBudgetError:
        order = None
    if order is None:
        at = find_asteroidal_triple(g)
        if at is not None:
            if not is_asteroidal_triple(g, at):
                raise ConstructionDefectError("AT witness failed re-verification", at)
            return False, Obstruction("asteroidal-triple", at)
        order = consecutive_clique_order(cliques, g.n)
        if order is None:
            # chordal and AT-free guarantees a consecutive ordering exists
            raise ConstructionDefectError("no consecutive clique ordering found", g)
    rep = rep_from_clique_order(cliques, order, g.n)
    if interval_adjacency(rep) != g.adj:
        raise ConstructionDefectError("extracted representation does not realize the graph", rep)
    return True, rep
