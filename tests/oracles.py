"""Independent brute-force oracles used to pin expected test values.

The brute-force oracles are deliberately naive and share no code path with
the package: interval recognition through vertex-order enumeration,
coloring and cliques through exhaustive search. The cover checker and the
intersection graph are the package's earlier edge-set versions, kept as
differential references for the bitset kernel that replaced them. The
list-label Lex-BFS, the unfiltered hole scan, the pairwise maximal-clique
filter and the asteroidal-triple-first recognizer are the package's earlier
recognition steps, kept as references for the faster ones that replaced them.
"""

from itertools import combinations, permutations

from hypothesis import strategies as st

from boxlab import Graph, edge_intersection, make_graph
from boxlab.errors import ConstructionDefectError
from boxlab.intervals import CoverViolation, IntervalCover, IntervalRep
from boxlab.recognition import (
    Obstruction,
    _bfs_path,
    consecutive_clique_order,
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
            later = [pos[w] for w in g.adj[u] if pos[w] > pos[u]]
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
                if all(colors[w] != c for w in g.adj[v]):
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
        for w in g.adj[v]:
            if not visited[w]:
                labels[w].append(g.n - step)
    return order


def find_chordless_cycle(g: Graph) -> tuple[int, ...]:
    """The hole scan that runs one path search for every pair of neighbours."""
    for v in range(g.n):
        nbrs = sorted(g.adj[v])
        for x, y in combinations(nbrs, 2):
            if g.has_edge(x, y):
                continue
            blocked = (set(g.adj[v]) | {v}) - {x, y}
            path = _bfs_path(g, x, y, blocked)
            if path is not None:
                return (v, *path)
    raise ConstructionDefectError("no chordless cycle found in a non-chordal graph")


def maximal_cliques_chordal(g: Graph, peo: list[int]) -> list[frozenset[int]]:
    """Maximal cliques of a chordal graph from a perfect elimination order."""
    pos = {v: i for i, v in enumerate(peo)}
    candidates = []
    for v in peo:
        c = frozenset({v} | {w for w in g.adj[v] if pos[w] > pos[v]})
        candidates.append(c)
    candidates.sort(key=len, reverse=True)
    out: list[frozenset[int]] = []
    for c in candidates:
        if not any(c <= m for m in out):
            out.append(c)
    return out


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
