"""Independent brute-force oracles used to pin expected test values.

Everything here is deliberately naive and shares no code path with the
package: interval recognition through vertex-order enumeration, coloring
and cliques through exhaustive search. The cover checker and the
intersection graph are the package's earlier edge-set versions, kept as
differential references for the bitset kernel that replaced them.
"""

from itertools import combinations, permutations

from hypothesis import strategies as st

from boxlab import Graph, edge_intersection, make_graph
from boxlab.intervals import CoverViolation, IntervalCover, IntervalRep


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return make_graph(n, [])
    edges = draw(st.sets(st.sampled_from(pairs)))
    return make_graph(n, edges)


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
