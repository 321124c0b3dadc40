"""Interval graph recognition with certificates in both directions.

Decision procedure: a graph is an interval graph exactly when it is chordal
and has no asteroidal triple (Lekkerkerker and Boland, 1962). Chordality is
tested by one walk of the reverse Lex-BFS order, which keeps each vertex's
later neighbours and follower: a failed check yields a hole through the
failing vertex, and a passed one the maximal cliques, each a tuple led by
its generator. The asteroidal-triple search tries one simplicial vertex per
maximal clique, read off the clique spans (a vertex whose span is one
position), looks only at the components that hold a scattered vertex (one
whose cliques are not consecutive in the refined order), and labels the
components of that part minus a candidate's closed neighborhood only when a
triple needs them.

Positive answers come with a representation extracted from a consecutive
ordering of the maximal cliques; negative answers come with an obstruction
re-verified once: an induced cycle of length at least 4, checked on masks,
or an asteroidal triple, which carries the three paths its re-check found.
The clique ordering comes from one deterministic pass of partition
refinement on the cliques, and one pass over that order reads each
vertex's span of clique positions and the scattered vertices; the
asteroidal-triple search runs only when some vertex is scattered. A
component that holds an asteroidal triple is not interval, so no order of
its maximal cliques is consecutive (Fulkerson and Gross, 1965) and the
refined order scatters one of its vertices; the search returns the triple
it would return on the whole graph (see `find_asteroidal_triple`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConstructionDefectError
from .graphs import Graph, bits
from .intervals import IntervalRep, ends_adjacency


@dataclass(frozen=True)
class Obstruction:
    """A hole, the cycle in order, or an asteroidal triple (x, y, z) with the
    `paths` x to y, y to z and z to x that its re-check found, each missing
    the third vertex's closed neighbourhood; compared on kind and witness."""

    kind: str  # "chordless-cycle" | "asteroidal-triple"
    witness: tuple[int, ...]
    paths: tuple[list[int], ...] = field(default=(), compare=False)


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
        low = cells[0] & -cells[0]
        v = low.bit_length() - 1
        order.append(v)
        cells[0] ^= low
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


@dataclass(frozen=True)
class Elimination:
    order: list[int]  # the reverse Lex-BFS order
    later: list[int]  # by vertex, the mask of its neighbours after it in `order`
    follower: list[int]  # by vertex, the first of them; -1 when there is none
    failure: tuple[int, int, int] | None  # (v, p, w): v's follower p misses w


def perfect_elimination_order(g: Graph) -> Elimination:
    """The follower check on the reverse of a Lex-BFS visit order.

    That order is a perfect elimination order exactly on chordal graphs,
    where `failure` is None. A vertex waits from its own turn to its
    follower's, the first of its later neighbours to come, so each
    follower is set once and checked then. A failure names, of the
    vertices some follower misses, the one Lex-BFS visited first: the
    exact oracle's candidates G + A, which Lex-BFS all enters at vertex 0,
    then tend to report the same hole, and its search tree stays small.
    """
    order = lex_bfs_order(g)[::-1]
    later, follower = [0] * g.n, [-1] * g.n
    rest, waiting, missed, failures = (1 << g.n) - 1, 0, 0, []
    for p in order:
        rest ^= 1 << p
        later[p] = g.adj[p] & rest
        mine = g.adj[p] & waiting
        waiting ^= mine
        for v in bits(mine):
            follower[v] = p
            if miss := later[v] & ~(g.adj[p] | 1 << p):
                missed |= miss
                failures.append((v, p, miss))
        if later[p]:
            waiting |= 1 << p
    failure = None
    if missed:
        w = next(w for w in reversed(order) if missed >> w & 1)
        failure = next((v, p, w) for v, p, miss in failures if miss >> w & 1)
    return Elimination(order, later, follower, failure)


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


def find_chordless_cycle(g: Graph, v: int, p: int, w: int) -> tuple[int, ...]:
    """A hole through v, where the follower check fails: (v, p, ..., w).

    The rest is a shortest path from p to w avoiding N[v] but for p and w:
    it is induced, its inner vertices miss v, and p, w are not adjacent.
    It exists (Rose, Tarjan and Lueker, 1976; Tarjan and Yannakakis, 1984).
    Write a < b when Lex-BFS visits a before b, so w < p < v. (P) If
    a < b < c, ac is an edge and ab is not, the first vertex d, in visit
    order, adjacent to exactly one of b and c has d < a, db an edge and dc
    not, as b's label was at least c's when b was visited. (Q) Then a path
    joins a to b whose inner vertices come before a and miss N(c), by
    induction on a: take d from (P); if d is adjacent to a, take a, d, b;
    if not, (Q) for d < a < b joins d to a with inner vertices before d
    and outside N(b), so outside N(c), as b and c agree on the vertices
    before d; then add b. (Q) for (w, p, v) is the claim.
    """
    path = _bfs_path(g, p, w, (g.adj[v] | 1 << v) ^ (1 << p | 1 << w))
    if path is None:
        raise ConstructionDefectError("no hole through the vertex where the follower check fails", (v, p, w))
    return (v, *path)


def is_induced_cycle(g: Graph, cycle: tuple[int, ...]) -> bool:
    """A hole: k >= 4 distinct vertices, each adjacent within `cycle` to just its predecessor and successor."""
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    ring = sum(1 << v for v in cycle)
    return all(g.adj[v] & ring == 1 << cycle[i - 1] | 1 << cycle[(i + 1) % k] for i, v in enumerate(cycle))


# ---------------------------------------------------------------------------
# asteroidal triples


def find_asteroidal_triple(
    g: Graph, first: list[int], last: list[int], within: int
) -> tuple[int, int, int] | None:
    """Some asteroidal triple of the chordal graph g inside the mask `within`,
    a union of whole components, or None if that part is AT-free.

    `first` and `last` are the vertices' spans in an order of g's maximal
    cliques (`clique_spans`). Only the lowest simplicial vertex of each
    clique is tried; a vertex is simplicial exactly when it lies in one
    maximal clique, that is when first[v] == last[v], as a clique has one
    position. That loses no AT. Let {x, y, z} be one, D the component of
    g - N[x] that holds y and z, and S = N(D), which lies in N(x). D and
    the component C of g - S that holds x are full components of S, so S is
    a minimal separator and, g being chordal, a clique. By Dirac's theorem
    g[C + S] is complete or has two non-adjacent simplicial vertices, so C
    holds a vertex x' simplicial in g[C + S], hence in g. N[y] and N[z] lie
    in D + S, so a path inside C joins x' to x around them, and N[x'] lies
    in C + S, so {x', y, z} is an AT. The same step replaces y, then z. Two
    simplicial vertices of one clique are adjacent twins with the same
    closed neighbourhood, so the lowest stands for them all.

    For x < y < z, pairwise non-adjacent, the triple is an AT when z lies in
    y's component of g - N[x], z in x's of g - N[y], and y in x's of
    g - N[z]. Each candidate's components are labelled the first time a
    triple needs them, as the mask of the component that holds each other
    candidate, so the tests are mask ANDs.

    Only the candidates and components inside `within` are looked at. A
    clique lies in one component, so inside `within` exactly when its
    vertices are: the candidates, per position the lowest vertex of
    `within` with first == last there, are the lowest simplicial vertices
    of the cliques inside `within`, as counting memberships over those
    cliques finds them. When `within` holds every component with a
    scattered vertex of some clique order, the triple is the one the search
    returns on all of g. An AT lies inside one component, as paths join its
    vertices. A component that holds one is not interval, so by Fulkerson
    and Gross no order of its maximal cliques, which are g's maximal cliques
    inside it, is consecutive: the order restricted to them scatters some
    vertex, and so does the whole order. Each AT of g thus lies inside
    `within`, so no triple the loop skips is one. For z in `within`, N[z] lies in z's
    component, so the components of `within` - N[z] are exactly those of
    g - N[z] inside `within`, and every test reads as on all of g; so the
    loop meets the same triples in the same order, less some that are not
    ATs, and returns the same first one.
    """
    lowest: dict[int, int] = {}
    for v in bits(within):
        if first[v] == last[v]:
            lowest.setdefault(first[v], v)
    cand = sum(1 << v for v in lowest.values())
    sides = [None] * g.n

    def side(z: int) -> list[int]:
        """By candidate v outside N[z], the mask of v's component of g - N[z]."""
        mine = sides[z]
        if mine is None:
            mine = sides[z] = [0] * g.n
            for comp in g.components_within(within & ~(g.adj[z] | 1 << z)):
                for v in bits(comp & cand):
                    mine[v] = comp
        return mine

    for x in bits(cand):
        far_x = cand & ~g.adj[x] & -2 << x
        if not far_x:
            continue
        sx = side(x)
        for y in bits(far_x):
            if rest := far_x & ~g.adj[y] & -2 << y & sx[y]:
                for z in bits(rest & side(y)[x]):
                    if side(z)[x] >> y & 1:
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


# ---------------------------------------------------------------------------
# maximal cliques and consecutive ordering


def maximal_cliques_chordal(elim: Elimination) -> list[tuple[int, ...]]:
    """Maximal cliques of a chordal graph from its elimination walk.

    The candidates are C(v), v with its later neighbours, as the tuple of v
    and then its later neighbours in increasing order, so v, the clique's
    generator, comes first in it and in `elim.order`. The maximal ones
    come out largest first, in elimination order among equal sizes. C(p)
    lies inside another candidate exactly when p is the follower of some u
    with more later neighbours than p: those of u form a clique, so all but
    p are later neighbours of p. One pass finds them.
    """
    later, follower = elim.later, elim.follower
    inside = set()
    for v, p in enumerate(follower):
        if p >= 0 and later[v].bit_count() > later[p].bit_count():
            inside.add(p)
    out = [(v, *bits(later[v])) for v in elim.order if v not in inside]
    out.sort(key=len, reverse=True)
    return out


def consecutive_clique_order(cliques: list[tuple[int, ...]], peo: list[int]) -> list[int]:
    """Order clique indices so every vertex's cliques appear consecutively.

    One pass of partition refinement on the cliques (Habib, McConnell, Paul
    and Viennot, TCS 2000). The classes are contiguous ranges of one array,
    in their final left-to-right order. A pivot is a vertex whose cliques
    lie in two or more classes: in the first of them its cliques move to
    the right end, in the last to the left end. Each pivot is used once.
    With no pivot left, the clique generated last by Lex-BFS among those
    not yet alone moves to the right end of its class; a clique's generator
    is its vertex that comes first in `peo`, which `maximal_cliques_chordal`
    puts first in the clique. The refined order is
    consecutive exactly when some order is; `clique_spans` tells which.
    """
    q = len(cliques)
    rank = [0] * len(peo)
    for i, v in enumerate(peo):
        rank[v] = i
    vert_cliques: list[list[int]] = [[] for _ in peo]
    for i, c in enumerate(cliques):
        for v in c:
            vert_cliques[v].append(i)
    gen = [rank[c[0]] for c in cliques]
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
    return arr


def clique_spans(
    cliques: list[tuple[int, ...]], order: list[int], n: int
) -> tuple[list[int], list[int], int]:
    """Each vertex's first and last position among the cliques in `order`, and
    the mask of the scattered vertices, whose cliques are not consecutive
    there: those in fewer cliques than last - first + 1.

    A vertex lies in at most last - first + 1 cliques, one per position, and
    in exactly that many when its cliques are consecutive; so no vertex is
    scattered exactly when the spans add up to the clique sizes, and only
    when they do not are each vertex's cliques counted.
    """
    first, last = [-1] * n, [-1] * n
    for posn, i in enumerate(order):
        for v in cliques[i]:
            if first[v] < 0:
                first[v] = posn
            last[v] = posn
    if -1 in first:
        raise ConstructionDefectError(f"vertex {first.index(-1)} missing from all cliques")
    if sum(last) - sum(first) + n == sum(map(len, cliques)):
        return first, last, 0
    count = [0] * n
    for c in cliques:
        for v in c:
            count[v] += 1
    return first, last, sum(1 << v for v in range(n) if count[v] != last[v] - first[v] + 1)


# ---------------------------------------------------------------------------
# the recognizer


def is_interval_graph(g: Graph) -> tuple[bool, IntervalRep | Obstruction]:
    """Decide interval-ness; returns a realized-exact representation or an obstruction."""
    elim = perfect_elimination_order(g)
    if elim.failure is not None:
        hole = find_chordless_cycle(g, *elim.failure)
        if not is_induced_cycle(g, hole):
            raise ConstructionDefectError("hole witness failed re-verification", hole)
        return False, Obstruction("chordless-cycle", hole)
    cliques = maximal_cliques_chordal(elim)
    order = consecutive_clique_order(cliques, elim.order)
    first, last, scattered = clique_spans(cliques, order, g.n)
    if scattered:
        # chordal without a consecutive clique order: an AT must exist, in a
        # component that holds a scattered vertex (see find_asteroidal_triple)
        within = g.reach(scattered, (1 << g.n) - 1)
        at = find_asteroidal_triple(g, first, last, within)
        if at is None:
            raise ConstructionDefectError("no consecutive clique order and no asteroidal triple", g)
        paths = asteroidal_paths(g, at)
        if paths is None:
            raise ConstructionDefectError("AT witness failed re-verification", at)
        return False, Obstruction("asteroidal-triple", at, paths)
    if ends_adjacency(first, last) != g.adj:
        raise ConstructionDefectError("clique spans do not realize the graph", (first, last))
    return True, IntervalRep(tuple(zip(first, last)))
