"""Independent brute-force oracles used to pin expected test values.

The brute-force oracles are deliberately naive and share no code path with
the package: interval recognition through vertex-order enumeration,
coloring and cliques through exhaustive search. The cover checker and the
intersection graph are the package's earlier edge-set versions, kept as
differential references for the bitset kernel that replaced them. The
list-label Lex-BFS, the unfiltered hole scan, the pairwise maximal-clique
filter, the exhaustive clique-order search and the asteroidal-triple-first
recognizer are the package's earlier recognition steps, kept as references
for the faster ones that replaced them; they read neighbours from the
bitsets of `Graph.adj`. The component and neighbourhood-quotient versions
below are the package's earlier ones on neighbour sets, kept as references
for the bitset versions. The unpruned kill-set scan is the exact boxicity oracle's step 1 before it skipped
already-decided candidates.
"""

from itertools import combinations, permutations
from unittest import mock

from hypothesis import strategies as st

from boxlab import Graph, boxicity_exact, edge_intersection, make_graph
from boxlab import boxicity
from boxlab.errors import ConstructionDefectError, ResourceBudgetError
from boxlab.graphs import bits, make_partition
from boxlab.intervals import CoverViolation, IntervalCover, IntervalRep
from boxlab.recognition import (
    Obstruction,
    _bfs_path,
    find_asteroidal_triple,
    perfect_elimination_order,
    rep_from_clique_order,
)


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return make_graph(n, [])
    edges = draw(st.sets(st.sampled_from(pairs)))
    return make_graph(n, edges)


@st.composite
def interval_graphs(draw, max_n=60):
    """Intersection graph of random integer intervals, vertices in draw order."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    spans = draw(
        st.lists(
            st.tuples(st.integers(0, 3 * n), st.integers(0, 8)), min_size=n, max_size=n
        )
    )
    return make_graph(
        n,
        [
            (u, v)
            for u, v in combinations(range(n), 2)
            if spans[u][0] <= sum(spans[v]) and spans[v][0] <= sum(spans[u])
        ],
    )


@st.composite
def disjoint_interval_graphs(draw, max_n=60):
    """Two random interval graphs side by side, all vertices relabelled."""
    a = draw(interval_graphs(max_n=max_n // 2))
    b = draw(interval_graphs(max_n=max_n // 2))
    n = a.n + b.n
    perm = draw(st.permutations(range(n)))
    edges = [*a.edges, *((a.n + u, a.n + v) for u, v in b.edges)]
    return make_graph(n, [(perm[u], perm[v]) for u, v in edges])


SUBDIVIDED_CLAW = [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]  # AT 2, 4, 6


@st.composite
def planted_graphs(draw, gadget, max_n=60):
    """A random interval graph plus `gadget` (edges over 0..k-1) on new
    vertices, gadget vertex 0 joined to one old vertex, all relabelled."""
    k = 1 + max(max(e) for e in gadget)
    base = draw(interval_graphs(max_n=max_n - k))
    n = base.n + k
    edges = [*base.edges, (draw(st.integers(0, base.n - 1)), base.n)]
    edges += [(base.n + a, base.n + b) for a, b in gadget]
    perm = draw(st.permutations(range(n)))
    return make_graph(n, [(perm[u], perm[v]) for u, v in edges])


def planted_at_graphs(max_n=60):
    return planted_graphs(SUBDIVIDED_CLAW, max_n=max_n)


def planted_hole_graphs(max_n=60):
    return st.integers(4, 8).flatmap(
        lambda h: planted_graphs([(i, (i + 1) % h) for i in range(h)], max_n=max_n)
    )


def brute_is_interval(g: Graph) -> bool:
    """Order characterization: some vertex order has u<v<w, uw edge => uv edge."""
    if g.n <= 1:
        return True
    for order in permutations(range(g.n)):
        pos = {v: i for i, v in enumerate(order)}
        ok = True
        for u in range(g.n):
            later = [pos[w] for w in bits(g.adj[u]) if pos[w] > pos[u]]
            if not later:
                continue
            # everything between u and its furthest later neighbor must be adjacent
            if any(
                not g.has_edge(u, order[i])
                for i in range(pos[u] + 1, max(later))
            ):
                ok = False
                break
        if ok:
            return True
    return False


def brute_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0

    def colorable(k: int) -> bool:
        colors = [-1] * g.n

        def go(v: int) -> bool:
            if v == g.n:
                return True
            for c in range(k):
                if all(colors[w] != c for w in bits(g.adj[v])):
                    colors[v] = c
                    if go(v + 1):
                        return True
                    colors[v] = -1
            return False

        return go(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def brute_clique(g: Graph) -> int:
    best = 1 if g.n else 0
    for size in range(2, g.n + 1):
        if any(
            all(g.has_edge(u, v) for u, v in combinations(sub, 2))
            for sub in combinations(range(g.n), size)
        ):
            best = size
    return best


def brute_maximal_cliques(g: Graph) -> list[list[int]]:
    """Every clique no vertex extends, as sorted lists in increasing order."""
    cliques = [
        list(sub)
        for size in range(1, g.n + 1)
        for sub in combinations(range(g.n), size)
        if all(g.has_edge(u, v) for u, v in combinations(sub, 2))
    ]
    return sorted(
        c for c in cliques
        if not any(all(g.has_edge(u, w) for u in c) for w in range(g.n) if w not in c)
    )


def all_labeled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield make_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def connected_labeled_graphs(n: int):
    for g in all_labeled_graphs(n):
        if len(g.connected_components()) == 1:
            yield g


def atlas_connected(max_n: int = 6) -> list[Graph]:
    """Connected isomorphism representatives with 1..max_n vertices."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for G in graph_atlas_g():
        if not 1 <= G.number_of_nodes() <= max_n or not nx.is_connected(G):
            continue
        nodes = sorted(G.nodes())
        relabel = {v: i for i, v in enumerate(nodes)}
        out.append(
            make_graph(len(nodes), [(relabel[u], relabel[v]) for u, v in G.edges()])
        )
    return out


def net_graph() -> Graph:
    """Triangle 0,1,2 with pendants 3,4,5 hanging off each corner."""
    return make_graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])


def graph_of_intervals(rep: IntervalRep) -> Graph:
    """Intersection graph of the representation (closed-interval semantics)."""
    n = rep.n
    iv = rep.intervals
    order = sorted(range(n), key=lambda v: iv[v][0])
    edges = []
    for a in range(n):
        u = order[a]
        lo_u, hi_u = iv[u]
        for b in range(a + 1, n):
            v = order[b]
            if iv[v][0] > hi_u:
                break  # sorted by lo: no later vertex can reach back
            edges.append((u, v) if u < v else (v, u))
    return make_graph(n, edges)


def verify_cover(cover: IntervalCover) -> tuple[bool, list[CoverViolation]]:
    """Check the cover from scratch; failures are reported, never raised."""
    claimed = cover.claimed_graph
    problems: list[CoverViolation] = []
    realized: list[Graph] = []
    for i, rep in enumerate(cover.reps):
        if rep.n != claimed.n:
            problems.append(CoverViolation("size-mismatch", i, None))
            continue
        h = graph_of_intervals(rep)
        realized.append(h)
        for e in sorted(claimed.edges - h.edges):
            problems.append(CoverViolation("missing-edge", i, e))
    if realized and not problems:
        meet = edge_intersection(realized)
        for e in sorted(meet.edges - claimed.edges):
            problems.append(CoverViolation("uncovered-non-edge", None, e))
    return not problems, problems


def lex_bfs_order(g: Graph) -> list[int]:
    """Lexicographic BFS visit order (simple O(n^2) label version)."""
    labels: list[list[int]] = [[] for _ in range(g.n)]
    visited = [False] * g.n
    order: list[int] = []
    for step in range(g.n):
        v = max(
            (u for u in range(g.n) if not visited[u]),
            key=lambda u: (labels[u], -u),
        )
        visited[v] = True
        order.append(v)
        for w in bits(g.adj[v]):
            if not visited[w]:
                labels[w].append(g.n - step)
    return order


def find_chordless_cycle(g: Graph) -> tuple[int, ...]:
    """The hole scan that runs one path search for every pair of neighbours."""
    for v in range(g.n):
        nbrs = list(bits(g.adj[v]))
        for x, y in combinations(nbrs, 2):
            if g.has_edge(x, y):
                continue
            blocked = (g.adj[v] | 1 << v) & ~(1 << x | 1 << y)
            path = _bfs_path(g, x, y, blocked)
            if path is not None:
                return (v, *path)
    raise ConstructionDefectError("no chordless cycle found in a non-chordal graph")


def maximal_cliques_chordal(g: Graph, peo: list[int]) -> list[frozenset[int]]:
    """Maximal cliques of a chordal graph from a perfect elimination order."""
    pos = {v: i for i, v in enumerate(peo)}
    candidates = []
    for v in peo:
        c = frozenset({v} | {w for w in bits(g.adj[v]) if pos[w] > pos[v]})
        candidates.append(c)
    candidates.sort(key=len, reverse=True)
    out: list[frozenset[int]] = []
    for c in candidates:
        if not any(c <= m for m in out):
            out.append(c)
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


def is_interval_graph(g: Graph):
    """The recognizer that runs the asteroidal-triple scan before any clique order."""
    if g.n == 0:
        return True, IntervalRep(())
    peo = perfect_elimination_order(g)
    if peo is None:
        return False, Obstruction("chordless-cycle", find_chordless_cycle(g))
    at = find_asteroidal_triple(g)
    if at is not None:
        return False, Obstruction("asteroidal-triple", at)
    cliques = maximal_cliques_chordal(g, peo)
    order = consecutive_clique_order(cliques, g.n)
    return True, rep_from_clique_order(cliques, order, g.n)


def set_adj(g: Graph) -> list[set[int]]:
    """Neighbour sets built from the edge set alone."""
    nbrs: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def connected_components(g: Graph) -> list[list[int]]:
    """Components by depth-first search on neighbour sets, in order of their lowest vertex."""
    adj = set_adj(g)
    seen = [False] * g.n
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp, stack = [], [s]
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def reduced_graph(g: Graph):
    """Quotient by equal neighbour sets, classes ordered by their smallest member."""
    by_nbhd: dict[frozenset[int], list[int]] = {}
    for v, nbhd in enumerate(set_adj(g)):
        by_nbhd.setdefault(frozenset(nbhd), []).append(v)
    blocks = sorted(by_nbhd.values(), key=lambda blk: blk[0])
    part = make_partition(g.n, blocks)
    reps = [blk[0] for blk in part.blocks]
    edges = [
        (i, j)
        for i, j in combinations(range(len(reps)), 2)
        if g.has_edge(reps[i], reps[j])
    ]
    return make_graph(len(reps), edges), part


class UnprunedSearch(boxicity._ComponentSearch):
    """The component search that recognizes every added-edge set."""

    def _try_added(self, added: frozenset) -> IntervalRep | None:
        h = make_graph(self.g.n, set(self.g.edges) | set(added))
        ok, payload = boxicity.is_interval_graph(h)
        return payload if ok else None

    def enumerate_kills(self) -> list[IntervalRep] | None:
        """Scan added-edge sets smallest first; stop at a certified 2-cover."""
        m = len(self.nonedges)
        for size in range(m + 1):
            for combo in combinations(range(m), size):
                rep = self._try_added(frozenset(self.nonedges[i] for i in combo))
                if rep is None:
                    continue
                kill = self.full
                for i in combo:
                    kill &= ~(1 << i)
                pair = self._note_kill(kill, rep)
                if pair is not None:
                    return pair
        return None


def unpruned_boxicity_exact(g: Graph, max_l: int = boxicity.DEFAULT_MAX_COVERS):
    """`boxicity_exact` with every component searched by `UnprunedSearch`."""
    with mock.patch.object(boxicity, "_ComponentSearch", UnprunedSearch):
        return boxicity_exact(g, max_l)
