"""Interval graph recognition with certificates in both directions.

Decision procedure: a graph is an interval graph exactly when it is chordal
and has no asteroidal triple. Chordality is tested through a Lex-BFS
perfect-elimination order; the asteroidal-triple search uses per-vertex
component labelings of the graph minus a closed neighborhood.

Positive answers come with a representation extracted from a consecutive
ordering of the maximal cliques; negative answers come with a re-verifiable
obstruction (an induced cycle of length at least 4, or an asteroidal
triple). The clique ordering comes from one deterministic pass of
partition refinement on the cliques; the cubic asteroidal-triple scan runs
only when that pass finds no consecutive order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ConstructionDefectError
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


def consecutive_clique_order(
    cliques: list[frozenset[int]], peo: list[int]
) -> list[int] | None:
    """Order clique indices so every vertex's cliques appear consecutively.

    One pass of partition refinement on the cliques (Habib, McConnell, Paul
    and Viennot, TCS 2000). The classes are contiguous ranges of one array,
    in their final left-to-right order. A pivot is a vertex whose cliques
    lie in two or more classes: in the first of them its cliques move to
    the right end, in the last to the left end. Each pivot is used once.
    With no pivot left, the clique generated last by Lex-BFS among those
    not yet alone moves to the right end of its class; a clique's generator
    is its vertex that comes first in `peo`. Returns None when the final
    order is not consecutive, which happens exactly when no order is.
    """
    q = len(cliques)
    rank = [0] * len(peo)
    for i, v in enumerate(peo):
        rank[v] = i
    vert_cliques: list[list[int]] = [[] for _ in peo]
    for i, c in enumerate(cliques):
        for v in c:
            vert_cliques[v].append(i)
    gen = [min(map(rank.__getitem__, c)) for c in cliques]
    by_gen, nxt = sorted(range(q), key=gen.__getitem__), 0
    arr, pos, cls, span = list(range(q)), list(range(q)), [0] * q, [(0, q)]
    done, queue, head = [False] * len(peo), [], 0
    while True:
        if head < len(queue):
            x = queue[head]
            head += 1
            if done[x]:
                continue
            mine = vert_cliques[x]
            first = last = cls[mine[0]]
            for i in mine:
                k = cls[i]
                if span[k] < span[first]:
                    first = k
                elif span[k] > span[last]:
                    last = k
            if first == last:
                continue  # not a pivot yet; a later split queues x again
            done[x] = True
            moves = (
                (first, [i for i in mine if cls[i] == first], True),
                (last, [i for i in mine if cls[i] == last], False),
            )
        else:
            while nxt < q and span[cls[by_gen[nxt]]][1] - span[cls[by_gen[nxt]]][0] == 1:
                nxt += 1
            if nxt == q:
                break
            moves = ((cls[by_gen[nxt]], [by_gen[nxt]], True),)
        for k, moved, right in moves:
            s, e = span[k]
            if len(moved) == e - s:
                continue
            b = e - len(moved) if right else s + len(moved)
            for t, i in enumerate(moved, b if right else s):
                p, other = pos[i], arr[t]
                arr[p], arr[t] = other, i
                pos[other], pos[i] = p, t
            span[k] = (s, b) if right else (b, e)
            span.append((b, e) if right else (s, b))
            for i in moved:
                cls[i] = len(span) - 1
            # a vertex that now has cliques in both parts has one in the
            # smaller part, and a clique is in the smaller part of at most
            # log2(q) splits
            smaller = moved if 2 * len(moved) <= e - s else arr[s:b] if right else arr[b:e]
            for i in smaller:
                queue.extend(cliques[i])
    for mine in vert_cliques:
        where = [pos[i] for i in mine]
        if max(where) - min(where) >= len(where):
            return None
    return arr


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
    order = consecutive_clique_order(cliques, peo)
    if order is None:
        # chordal without a consecutive clique order: an AT must exist
        at = find_asteroidal_triple(g)
        if at is None:
            raise ConstructionDefectError("no consecutive clique order and no asteroidal triple", g)
        if not is_asteroidal_triple(g, at):
            raise ConstructionDefectError("AT witness failed re-verification", at)
        return False, Obstruction("asteroidal-triple", at)
    rep = rep_from_clique_order(cliques, order, g.n)
    if interval_adjacency(rep) != g.adj:
        raise ConstructionDefectError("extracted representation does not realize the graph", rep)
    return True, rep
