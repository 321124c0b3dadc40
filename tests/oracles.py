"""Independent brute-force oracles used to pin expected test values.

The brute-force oracles are deliberately naive and share no code path with
the package: interval recognition through vertex-order enumeration,
coloring and cliques through exhaustive search. The cover checker and the
intersection graph are the package's earlier edge-set versions, kept as
differential references for the bitset kernel that replaced them. The
list-label Lex-BFS, the all-vertex hole scan, the pairwise maximal-clique
filter, the exhaustive clique-order search, the representation built from
a clique order, the full asteroidal-triple scan over every vertex, the
asteroidal-triple search that labels every candidate up front and the
asteroidal-triple-first recognizer are the package's earlier recognition
steps, kept as references for the faster ones that replaced them; they
read neighbours from the bitsets of `Graph.adj`. The component and neighbourhood-quotient versions
below are the package's earlier ones on neighbour sets, kept as references
for the bitset versions. The unpruned kill-set scan is the exact boxicity
oracle's step 1 before it branched on obstructions. The induced
subgraph, generalized join, edge intersection, circular clique, zero-divisor
graph and vector-ring graph are the package's builders from when a graph
kept its edge set, kept as references for the ones that write bitsets.
The clique-sum lower bound on a join's boxicity is the package's earlier
one, kept as the reference the join covers are sandwiched against; it reads
the outer cliques from the brute-force enumeration. The recognizer on
frozenset cliques, with its rank-scan clique order and its asteroidal-triple
search over every component, is the package's pipeline before the cliques
became tuples and the search was confined to the components that hold a
scattered vertex; it pins their representations and triples. It reads
the package's earlier span pass, which returned the spans or None; that
pass and the second walk over the clique order that found the scattered
vertices are kept as references for the one pass that returns both.
The independence test is the package's, moved here because only the tests
read it. The asteroidal-triple search that counted clique memberships and
the pairwise hole check are the package's before the search read the
clique spans and the check read masks, kept as references for them; the
asteroidal-triple test reads the definition on neighbour sets, so the
package's path search is checked against it. The block window built in
three loops, the χ cover with one branch per window shape and a size
check, and the ω = χ certificate that checked its clique pair by pair and
found each colour partner through index lists are the package's before
each stated its rule once, kept as references for them.
The Lex-BFS that rebuilt its list of cells at every step, with the walk
over its reverse order that kept a mask of the vertices waiting for their
follower, is the package's before Lex-BFS kept a parent per cell and the
follower check ran at each visit, kept as the reference all four fields of
its `Elimination` are compared with.
The clique order refinement that queued a copy of every vertex of the
cliques each split set apart, and kept each class as a (start, end)
tuple, is the package's before the queue held clique indices, kept as
the reference its orders are compared with list for list.
The trial division that found a divisor's exponent of one prime is the
package's before each divisor class kept its exponents, kept for that
certificate and as the reference for the valuation table. The vector-ring
cover that wrote its own threshold members is the package's before both
rings went through one valuation cover, kept as the reference for its bytes.
The join lift that squeezed a part's member into [0, 1/2], the threshold
member with its points at j/(s + 1) inside unit gaps, and the exact
oracle's own loop that laid its components out are the package's before
every construction wrote integer endpoints and one layout served joins and
components, kept as the references whose member graphs the integer ones
must realize.
"""

import math
from fractions import Fraction
from collections import Counter
from itertools import combinations, permutations, repeat
from unittest import mock

from hypothesis import strategies as st

from boxlab import Graph, boxicity_exact, make_graph
from boxlab import boxicity
from boxlab import circular
from boxlab.circular import circular_params, rotate_rep, step_window_rep
from boxlab.errors import ConstructionDefectError, InputError, ResourceBudgetError
from boxlab.graphs import Coloring, Edge, _vertex_mask, bits, check_edge_budget, join_edge_count, pairs
from boxlab.zdg import BOOLEAN_RING_MAX_K, ZDG_MAX_N, CompressedZN, augmenting_divisor, threshold_rep
from boxlab.intervals import (
    CoverViolation,
    Interval,
    IntervalCover,
    IntervalRep,
    ends_adjacency,
    exact,
    point,
    verified_cover,
)
from boxlab.joins import _UNIT
from boxlab.recognition import (
    Elimination,
    Obstruction,
    _bfs_path,
    find_chordless_cycle as package_find_chordless_cycle,
    is_induced_cycle,
    perfect_elimination_order,
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


def disjoint_union(draw, parts: list[Graph]) -> Graph:
    """The graphs of `parts` side by side, all vertices relabelled."""
    edges, n = [], 0
    for h in parts:
        edges += [(n + u, n + v) for u, v in h.edges]
        n += h.n
    perm = draw(st.permutations(range(n)))
    return make_graph(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def disjoint_interval_graphs(draw, max_n=60):
    """Two random interval graphs side by side, all vertices relabelled."""
    return disjoint_union(draw, [draw(interval_graphs(max_n=max_n // 2)) for _ in range(2)])


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


@st.composite
def two_at_unions(draw, max_n=60):
    """Two planted-AT graphs and one to three interval graphs side by side,
    all vertices relabelled: the two ATs lie in different components."""
    parts = [draw(planted_at_graphs(max_n=max_n // 4)) for _ in range(2)]
    parts += [draw(interval_graphs(max_n=max_n // 8)) for _ in range(draw(st.integers(1, 3)))]
    return disjoint_union(draw, draw(st.permutations(parts)))


@st.composite
def chordal_graphs(draw, max_n=30):
    """Each new vertex joined to a clique of the graph so far, or to nothing;
    it is simplicial when added, so the graph is chordal. All relabelled."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    adj = [0] * n
    for v in range(1, n):
        if not draw(st.integers(0, 7)):
            continue
        u = draw(st.integers(0, v - 1))
        clique = 1 << u
        for w in bits(adj[u]):
            if adj[w] & clique == clique and draw(st.booleans()):
                clique |= 1 << w
        adj[v] = clique
        for w in bits(clique):
            adj[w] |= 1 << v
    perm = draw(st.permutations(range(n)))
    return make_graph(n, [(perm[u], perm[v]) for u, v in pairs(adj)])


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


def is_independent(g: Graph, vertices) -> bool:
    mask = _vertex_mask(g, vertices)
    return not any(g.adj[v] & mask for v in bits(mask))


def clique_sum_lower_bound(outer: Graph, part_box: list[tuple[int, bool]]) -> int:
    """Max over outer cliques of the boxicity sum of their non-complete parts.

    `part_box` pairs each part's boxicity value with an is-complete flag;
    complete parts never contribute. Returns 0 when no non-complete part
    exists.
    """
    assert len(part_box) == outer.n
    return max(
        (sum(part_box[i][0] for i in clique if not part_box[i][1])
         for clique in brute_maximal_cliques(outer)),
        default=0,
    )


def all_labeled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield make_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def connected_labeled_graphs(n: int):
    for g in all_labeled_graphs(n):
        if len(g.connected_components()) == 1:
            yield g


def atlas_graphs(max_n: int = 6) -> list[Graph]:
    """Isomorphism representatives with 1..max_n vertices, from networkx's atlas."""
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for G in graph_atlas_g():
        if not 1 <= G.number_of_nodes() <= max_n:
            continue
        nodes = sorted(G.nodes())
        relabel = {v: i for i, v in enumerate(nodes)}
        out.append(
            make_graph(len(nodes), [(relabel[u], relabel[v]) for u, v in G.edges()])
        )
    return out


def atlas_connected(max_n: int = 6) -> list[Graph]:
    """Connected isomorphism representatives with 1..max_n vertices."""
    return [g for g in atlas_graphs(max_n) if len(g.connected_components()) == 1]


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


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by `vertices`, relabeled to 0..|S|-1.

    Returns (subgraph, map) where map[new_index] = original vertex.
    """
    sub = sorted(set(vertices))
    for v in sub:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range")
    index = {v: i for i, v in enumerate(sub)}
    edges = [
        (index[u], index[v])
        for u, v in combinations(sub, 2)
        if g.has_edge(u, v)
    ]
    return make_graph(len(sub), edges), tuple(sub)


def generalized_join(g: Graph, parts: list[Graph]) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Replace vertex i of g by parts[i]; join blocks i, j completely when ij is an edge.

    Blocks occupy consecutive vertex ranges in part order. Returns
    (join graph, blocks) where blocks[i] lists the new ids of part i.
    """
    if len(parts) != g.n:
        raise InputError(f"need {g.n} parts, got {len(parts)}")
    check_edge_budget(join_edge_count(g, parts), "the join")
    offsets, total = [], 0
    for p in parts:
        offsets.append(total)
        total += p.n
    edges: list[Edge] = []
    for i, p in enumerate(parts):
        off = offsets[i]
        edges.extend((off + u, off + v) for u, v in p.edges)
    for i, j in g.edges:
        for u in range(offsets[i], offsets[i] + parts[i].n):
            for v in range(offsets[j], offsets[j] + parts[j].n):
                edges.append((u, v))
    blocks = tuple(
        tuple(range(offsets[i], offsets[i] + parts[i].n)) for i in range(g.n)
    )
    return make_graph(total, edges), blocks


def edge_intersection(graphs: list[Graph]) -> Graph:
    """Graph whose edges appear in every input; inputs must share a vertex count."""
    if not graphs:
        raise InputError("need at least one graph")
    n = graphs[0].n
    for h in graphs:
        if h.n != n:
            raise InputError(f"vertex count mismatch: {h.n} != {n}")
    common = frozenset.intersection(*(h.edges for h in graphs))
    return Graph(n, common)


def circular_clique(k: int, d: int) -> Graph:
    """Graph on 0..k-1 with i ~ j iff d <= |i-j| <= k-d."""
    circular_params(k, d)
    check_edge_budget(k * (k - 2 * d + 1) // 2, f"the circular clique (k={k}, d={d})")
    # the j > i with d <= j - i <= k - d, so the cost is k plus the edges
    edges = [(i, j) for i in range(k) for j in range(i + d, min(k, i + k - d + 1))]
    return make_graph(k, edges)


def zdg_zn(N: int) -> tuple[Graph, tuple[int, ...]]:
    """Zero-divisor graph of Z_N with its vertex labels in increasing order.

    Built by scanning every pair against the definition x*y = 0 mod N, so
    it is the reference the compressed constructions are checked against.
    Prime N has no zero divisors and yields the empty graph.
    """
    if N < 2:
        raise InputError(f"need N >= 2, got {N}")
    if N > ZDG_MAX_N:
        raise ResourceBudgetError(f"N = {N} exceeds the direct-graph limit {ZDG_MAX_N}")
    labels = tuple(x for x in range(2, N) if math.gcd(x, N) > 1)
    edges = [
        (i, j)
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
        if labels[i] * labels[j] % N == 0
    ]
    return make_graph(len(labels), edges), labels


def boolean_ring_graph(k: int) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Build the vector-ring graph with clique and chromatic number k, certified.

    The unit vectors form a k-clique, and coloring each vector by its
    lowest set bit is proper (adjacent vectors have disjoint supports) with
    k colors; both are checked, so omega = chi = k without any search.
    """
    if k < 2:
        raise InputError(f"need k >= 2, got {k}")
    if k > BOOLEAN_RING_MAX_K:
        raise ResourceBudgetError(f"vector length {k} exceeds the limit {BOOLEAN_RING_MAX_K}")
    masks = list(range(1, 2**k - 1))
    edges = [
        (i, j)
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
        if masks[i] & masks[j] == 0
    ]
    g = make_graph(len(masks), edges)
    labels = tuple(tuple(m >> t & 1 for t in range(k)) for m in masks)
    unit_indices = [masks.index(1 << t) for t in range(k)]
    for i, u in enumerate(unit_indices):
        for v in unit_indices[i + 1 :]:
            if not g.has_edge(u, v):
                raise ConstructionDefectError("unit vectors are not a clique")
    lowest_bit = Coloring(tuple((m & -m).bit_length() - 1 for m in masks))
    if not lowest_bit.is_proper(g) or lowest_bit.num_colors != k:
        raise ConstructionDefectError(f"lowest-bit coloring is not a proper {k}-coloring")
    return g, labels


def parent_reduced_ring_box_bounds(k: int) -> tuple[int, IntervalCover]:
    """(certified upper bound k, verified cover) for the vector ring.

    Two vectors join exactly when no coordinate is set in both, so the
    graph is the edge intersection over coordinates t of the threshold
    graphs with weight 1 - bit_t and threshold 1: member t puts the vectors
    without bit t on one interval and those with it at points inside it.
    No lower bound is given: box = k fails already for k = 2 and 3
    (boxicity 1 and 2).
    """
    ring_graph, _ = boolean_ring_graph(k)
    masks = range(1, 2**k - 1)
    reps = [threshold_rep([1 - (m >> t & 1) for m in masks], 1) for t in range(k)]
    return k, verified_cover(ring_graph, reps, f"per-coordinate cover of the vector ring of length {k}")


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


def lex_bfs_order(g: Graph) -> tuple[list[int], list[int]]:
    """Lexicographic BFS visit order (simple O(n^2) label version), and each
    vertex's parent: its neighbour visited last before it, or -1."""
    labels: list[list[int]] = [[] for _ in range(g.n)]
    visited = [False] * g.n
    order: list[int] = []
    parent = [-1] * g.n
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
                parent[w] = v
    return order, parent


def parent_lex_bfs_order(g: Graph) -> list[int]:
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


def parent_perfect_elimination_order(g: Graph) -> Elimination:
    """The follower check on the reverse of a Lex-BFS visit order.

    That order is a perfect elimination order exactly on chordal graphs,
    where `failure` is None. A vertex waits from its own turn to its
    follower's, the first of its later neighbours to come, so each
    follower is set once and checked then. A failure names, of the
    vertices some follower misses, the one Lex-BFS visited first: the
    exact oracle's candidates G + A, which Lex-BFS all enters at vertex 0,
    then tend to report the same hole, and its search tree stays small.
    """
    order = parent_lex_bfs_order(g)[::-1]
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


def _components_avoiding(g: Graph, z: int) -> list[int]:
    """Component id per vertex in g minus N[z]; -1 inside the removed ball."""
    label = [-1] * g.n
    outside = ((1 << g.n) - 1) & ~(g.adj[z] | 1 << z)
    for comp, mask in enumerate(g.components_within(outside)):
        for v in bits(mask):
            label[v] = comp
    return label


def full_scan_asteroidal_triple(g: Graph) -> tuple[int, int, int] | None:
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


def _components_avoiding_within(g: Graph, z: int, labelled: int) -> list[int]:
    """Component id in g minus N[z] for each vertex of the mask `labelled`;
    -1 inside the removed ball and for the vertices left unlabelled."""
    label = [-1] * g.n
    outside = ((1 << g.n) - 1) & ~(g.adj[z] | 1 << z)
    for comp, mask in enumerate(g.components_within(outside)):
        for v in bits(mask & labelled):
            label[v] = comp
    return label


def labelling_asteroidal_triple(
    g: Graph, cliques: list[frozenset[int]]
) -> tuple[int, int, int] | None:
    """Some asteroidal triple of the chordal graph g, or None if it is AT-free.

    `cliques` are g's maximal cliques. Only the lowest simplicial vertex of
    each clique is tried; a vertex is simplicial exactly when it lies in one
    maximal clique. That loses no AT. Let {x, y, z} be one, D the component
    of g - N[x] that holds y and z, and S = N(D), which lies in N(x). D and
    the component C of g - S that holds x are full components of S, so S is
    a minimal separator and, g being chordal, a clique. By Dirac's theorem
    g[C + S] is complete or has two non-adjacent simplicial vertices, so C
    holds a vertex x' simplicial in g[C + S], hence in g. N[y] and N[z] lie
    in D + S, so a path inside C joins x' to x around them, and N[x'] lies
    in C + S, so {x', y, z} is an AT. The same step replaces y, then z. Two
    simplicial vertices of one clique are adjacent twins with the same
    closed neighbourhood, so the lowest stands for them all.
    """
    count = [0] * g.n
    for c in cliques:
        for v in c:
            count[v] += 1
    cand = 0
    for c in cliques:
        simplicial = [v for v in c if count[v] == 1]
        if simplicial:
            cand |= 1 << min(simplicial)
    comp = {z: _components_avoiding_within(g, z, cand) for z in bits(cand)}
    for x in bits(cand):
        far_x = cand & ~g.adj[x] & -2 << x
        cx = comp[x]
        for y in bits(far_x):
            cy, cxy = comp[y], cx[y]
            for z in bits(far_x & ~g.adj[y] & -2 << y):
                cz = comp[z]
                if cz[x] == cz[y] and cy[x] == cy[z] and cxy == cx[z]:
                    return (x, y, z)
    return None


def is_interval_graph(g: Graph):
    """The recognizer that runs the asteroidal-triple search before any clique order."""
    if g.n == 0:
        return True, IntervalRep(())
    elim = perfect_elimination_order(g)
    if elim.failure is not None:
        return False, Obstruction("chordless-cycle", find_chordless_cycle(g))
    cliques = maximal_cliques_chordal(g, elim.order)
    at = labelling_asteroidal_triple(g, cliques)
    if at is not None:
        return False, Obstruction("asteroidal-triple", at)
    order = consecutive_clique_order(cliques, g.n)
    return True, rep_from_clique_order(cliques, order, g.n)


def frozenset_cliques_chordal(elim: Elimination) -> list[frozenset[int]]:
    """The maximal cliques of the elimination walk as frozensets."""
    later, follower = elim.later, elim.follower
    inside = set()
    for v, p in enumerate(follower):
        if p >= 0 and later[v].bit_count() > later[p].bit_count():
            inside.add(p)
    out = [frozenset({v} | set(bits(later[v]))) for v in elim.order if v not in inside]
    out.sort(key=len, reverse=True)
    return out


def min_rank_clique_order(cliques: list[frozenset[int]], peo: list[int]) -> list[int]:
    """The clique order refinement that finds each generator by a rank scan."""
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
    return arr


def parent_consecutive_clique_order(cliques: list[tuple[int, ...]], peo: list[int]) -> list[int]:
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


def unconfined_asteroidal_triple(
    g: Graph, cliques: list[frozenset[int]]
) -> tuple[int, int, int] | None:
    """The asteroidal-triple search over every component, on frozenset cliques."""
    count = [0] * g.n
    for c in cliques:
        for v in c:
            count[v] += 1
    cand = 0
    for c in cliques:
        simplicial = [v for v in c if count[v] == 1]
        if simplicial:
            cand |= 1 << min(simplicial)
    full, sides = (1 << g.n) - 1, [None] * g.n

    def side(z: int) -> list[int]:
        """By candidate v outside N[z], the mask of v's component of g - N[z]."""
        mine = sides[z]
        if mine is None:
            mine = sides[z] = [0] * g.n
            for comp in g.components_within(full & ~(g.adj[z] | 1 << z)):
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


def parent_clique_ends(cliques: list[tuple[int, ...]], order: list[int], n: int) -> tuple[list[int], list[int]]:
    """Each vertex's first and last position among the cliques in `order`."""
    first, last = [-1] * n, [-1] * n
    for posn, i in enumerate(order):
        for v in cliques[i]:
            if first[v] < 0:
                first[v] = posn
            last[v] = posn
    if -1 in first:
        raise ConstructionDefectError(f"vertex {first.index(-1)} missing from all cliques")
    return first, last


def parent_clique_spans(
    cliques: list[tuple[int, ...]], order: list[int], n: int
) -> tuple[list[int], list[int]] | None:
    """Each vertex's first and last position among the cliques in `order`, or
    None when some vertex's cliques are not consecutive there.

    A vertex lies in at most last - first + 1 cliques, one per position, and
    in exactly that many when its cliques are consecutive; so the order is
    consecutive exactly when the spans add up to the clique sizes.
    """
    first, last = parent_clique_ends(cliques, order, n)
    if sum(last) - sum(first) + n != sum(map(len, cliques)):
        return None
    return first, last


def parent_scattered_vertices(cliques: list[tuple[int, ...]], order: list[int], n: int) -> int:
    """The mask of the vertices whose cliques are not consecutive in `order`:
    those in fewer cliques than last - first + 1."""
    first, last = parent_clique_ends(cliques, order, n)
    count = [0] * n
    for c in cliques:
        for v in c:
            count[v] += 1
    return sum(1 << v for v in range(n) if count[v] != last[v] - first[v] + 1)


def parent_asteroidal_triple(
    g: Graph, cliques: list[tuple[int, ...]], within: int
) -> tuple[int, int, int] | None:
    """The package's AT search before it read the clique spans: it counts
    each vertex's memberships over the maximal cliques inside `within` and
    tries the lowest vertex of each clique that lies in no other.
    `recognition.find_asteroidal_triple` states why both give one triple."""
    count = [0] * g.n
    kept = [c for c in cliques if within >> c[0] & 1]
    for c in kept:
        for v in c:
            count[v] += 1
    cand = 0
    for c in kept:
        simplicial = [v for v in c if count[v] == 1]
        if simplicial:
            cand |= 1 << min(simplicial)
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


def parent_is_induced_cycle(g: Graph, cycle: tuple[int, ...]) -> bool:
    """The package's hole check before it read masks: pair by pair."""
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    for i, j in combinations(range(k), 2):
        adjacent = g.has_edge(cycle[i], cycle[j])
        consecutive = (j - i == 1) or (i == 0 and j == k - 1)
        if adjacent != consecutive:
            return False
    return True


def is_asteroidal_triple(g: Graph, triple) -> bool:
    """From the definition: three distinct, pairwise non-adjacent vertices,
    each pair joined by a path in g - N[third], found breadth first on
    neighbour sets."""
    adj = set_adj(g)
    x, y, z = triple
    if len({x, y, z}) != 3 or y in adj[x] or z in adj[y] or x in adj[z]:
        return False
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        blocked = adj[c] | {c}
        seen, frontier = {a}, [a]
        while frontier:
            frontier = [w for v in frontier for w in adj[v] - blocked - seen]
            seen.update(frontier)
        if b not in seen:
            return False
    return True


def frozenset_is_interval_graph(g: Graph) -> tuple[bool, IntervalRep | Obstruction]:
    """The recognizer on frozenset cliques with the unconfined asteroidal-triple search."""
    if g.n == 0:
        return True, IntervalRep(())
    elim = perfect_elimination_order(g)
    if elim.failure is not None:
        hole = package_find_chordless_cycle(g, *elim.failure)
        if not is_induced_cycle(g, hole):
            raise ConstructionDefectError("hole witness failed re-verification", hole)
        return False, Obstruction("chordless-cycle", hole)
    cliques = frozenset_cliques_chordal(elim)
    spans = parent_clique_spans(cliques, min_rank_clique_order(cliques, elim.order), g.n)
    if spans is None:
        # chordal without a consecutive clique order: an AT must exist
        at = unconfined_asteroidal_triple(g, cliques)
        if at is None:
            raise ConstructionDefectError("no consecutive clique order and no asteroidal triple", g)
        if not is_asteroidal_triple(g, at):
            raise ConstructionDefectError("AT witness failed re-verification", at)
        return False, Obstruction("asteroidal-triple", at)
    first, last = spans
    if ends_adjacency(first, last) != g.adj:
        raise ConstructionDefectError("clique spans do not realize the graph", spans)
    ends = [Fraction(p) for p in range(len(cliques))]
    return True, IntervalRep(tuple(zip(map(ends.__getitem__, first), map(ends.__getitem__, last))))


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
    blocks = tuple(tuple(blk) for blk in sorted(by_nbhd.values(), key=lambda blk: blk[0]))
    reps = [blk[0] for blk in blocks]
    edges = [
        (i, j)
        for i, j in combinations(range(len(reps)), 2)
        if g.has_edge(reps[i], reps[j])
    ]
    return make_graph(len(reps), edges), blocks


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
                if any(k & kill == kill for k, _ in self.kills):
                    continue  # dominated, nothing new
                pair = self._note_kill(kill, rep)
                if pair is not None:
                    return pair
        return None


def unpruned_boxicity_exact(g: Graph, max_l: int = boxicity.DEFAULT_MAX_COVERS):
    """`boxicity_exact` with every component searched by `UnprunedSearch`."""
    with mock.patch.object(boxicity, "_ComponentSearch", UnprunedSearch):
        return boxicity_exact(g, max_l)


def parent_block_window_rep(k: int, d: int) -> IntervalRep:
    """Interval supergraph leaving 0..d-1 independent, for 2d < k < 3d.

    The window vertices sit at halfway points inside unit gaps; the next d
    vertices are grouped into overlapping blocks of width b+1 whose
    intervals slide rightward; the final b vertices span everything.
    """
    m, b = circular_params(k, d)
    if m != 2 or b < 1:
        raise InputError(f"block construction needs 2d < k < 3d, got k={k}, d={d}")
    c, e = divmod(d, b + 1)
    intervals: list[Interval | None] = [None] * k
    for i in range(d):
        intervals[i] = point(Fraction(2 * i - 1, 2))  # i - 1/2, inside (i-1, i)
    for j in range(b + 1):
        intervals[d + j] = (Fraction(-1), Fraction(j))
    for i in range(1, c):
        for j in range(b + 1):
            intervals[d + i * (b + 1) + j] = (
                Fraction((i - 1) * (b + 1) + j),
                Fraction(i * (b + 1) + j),
            )
    for j in range(e):
        intervals[d + c * (b + 1) + j] = (
            Fraction((c - 1) * (b + 1) + j),
            Fraction(c * (b + 1) + j),
        )
    for i in range(2 * d, k):
        intervals[i] = (Fraction(-1), Fraction(d))
    return IntervalRep(tuple(intervals))


def _matching_rep(k: int, d: int) -> IntervalRep:
    # k == 2d: the graph is a perfect matching {i, i+d}; give each pair its
    # own isolated point
    intervals = [point(i % d) for i in range(k)]
    return IntervalRep(tuple(intervals))


def parent_chi_cover(k: int, d: int) -> IntervalCover:
    """Verified cover of the circular clique with exactly ceil(k/d) members.

    One interval supergraph per color class: class i is the window
    [i*d, (i+1)*d), handled by rotating a window construction into place.
    """
    m, b = circular_params(k, d)
    g = circular.circular_clique(k, d)  # first, so its budgets refuse before any rep is built
    reps: list[IntervalRep] = []
    if m == 2 and b == 0:
        # perfect matching: one interval graph realizes it exactly, and it
        # leaves both classes independent; each class keeps its own copy so
        # the cover size matches the chromatic number
        base = _matching_rep(k, d)
        reps = [base, base]
    elif m >= 3:
        full = step_window_rep(k, d, d)
        for i in range(m):
            reps.append(rotate_rep(full, i * d))
        if b:
            short = step_window_rep(k, d, b)
            reps.append(rotate_rep(short, m * d))
    else:  # m == 2, b >= 1
        base = parent_block_window_rep(k, d)
        reps = [base, rotate_rep(base, d)]
        short = step_window_rep(k, d, b)
        reps.append(rotate_rep(short, 2 * d))

    cover = verified_cover(g, reps, f"cover for (k={k}, d={d})")
    if len(cover) != -(-k // d):
        raise ConstructionDefectError(
            f"cover for (k={k}, d={d}) has {len(cover)} members, expected {-(-k // d)}",
            (k, d),
        )
    return cover


def _exponent_of(value: int, prime: int) -> int:
    e = 0
    while value % prime == 0:
        value //= prime
        e += 1
    return e


def parent_omega_chi_certificate(c: CompressedZN) -> tuple[int, tuple[int, ...], Coloring]:
    """Clique number = chromatic number of the compressed graph, certified.

    Returns (value, clique, coloring) where the clique has exactly `value`
    vertices and the coloring is proper with exactly `value` colors, so
    both bounds meet without any search. Every claim is re-checked before
    returning.
    """
    f = c.f
    value = f.root_divisor_count + f.b - 1
    xis = [augmenting_divisor(f, eta) for eta in range(1, f.b + 1)]
    big_clique = tuple(sorted(set(c.nilpotent) | set(xis)))
    if len(big_clique) != value:
        raise ConstructionDefectError(
            f"clique has {len(big_clique)} members, formula says {value}"
        )
    index_of = {d: i for i, d in enumerate(c.divisors)}
    for i, d in enumerate(big_clique):
        for e in big_clique[i + 1 :]:
            if not c.graph.has_edge(index_of[d], index_of[e]):
                raise ConstructionDefectError(f"clique members {d}, {e} not adjacent")

    psi = {d: i for i, d in enumerate(big_clique)}
    xi_by_eta = {eta: xi for eta, xi in zip(range(1, f.b + 1), xis)}
    colors = []
    for d in c.divisors:
        if d in psi:
            colors.append(psi[d])
            continue
        r = [(_exponent_of(d, p), n, p) for p, n in f.even_part]
        low_even = [i for i, (ri, n, _) in enumerate(r) if ri < n]
        if low_even:
            sigma = max(low_even)
            _, n_sigma, p_sigma = r[sigma]
            partner = f.N // p_sigma**n_sigma
        else:
            s = [(_exponent_of(d, q), m) for q, m in f.odd_part]
            low_odd = [j for j, (sj, m) in enumerate(s) if sj <= m]
            if not low_odd:
                raise ConstructionDefectError(f"divisor {d} fits no coloring case")
            partner = xi_by_eta[max(low_odd) + 1]
        colors.append(psi[partner])

    coloring = Coloring(tuple(colors))
    if not coloring.is_proper(c.graph):
        bad = next(
            (c.divisors[u], c.divisors[v])
            for u, v in pairs(c.graph.adj)
            if colors[u] == colors[v]
        )
        raise ConstructionDefectError(f"coloring merges adjacent classes {bad}", bad)
    if coloring.num_colors != value:
        raise ConstructionDefectError(
            f"coloring uses {coloring.num_colors} colors, formula says {value}"
        )
    return value, big_clique, coloring


def parent_squeeze(rep: IntervalRep) -> IntervalRep:
    """Affine copy of the representation inside [0, 1/2].

    A strictly increasing affine map preserves the intersection structure
    exactly, and exact rationals keep the image strictly below 1. The
    image of the lowest endpoint is the int 0.
    """
    if not rep.intervals:
        return rep
    lo_min = min(lo for lo, _ in rep.intervals)
    hi_max = max(hi for _, hi in rep.intervals)
    if hi_max == lo_min:
        return IntervalRep(tuple([point(0)] * rep.n))
    scale = Fraction(1, 2) / (hi_max - lo_min)
    return IntervalRep(
        tuple(
            (exact((lo - lo_min) * scale), exact((hi - lo_min) * scale))
            for lo, hi in rep.intervals
        )
    )


def parent_lifted_rep(outer: Graph, blocks, part_index: int, part_rep: IntervalRep) -> IntervalRep:
    squeezed = parent_squeeze(part_rep)
    intervals: list = [None] * sum(len(blk) for blk in blocks)
    for ell, blk in enumerate(blocks):
        if ell == part_index:
            for pos, v in enumerate(blk):
                intervals[v] = squeezed.intervals[pos]
        elif outer.has_edge(ell, part_index):
            for v in blk:
                intervals[v] = _UNIT
        else:
            for v in blk:
                intervals[v] = (1, 2)
    return IntervalRep(tuple(intervals))


def parent_lift_reps(outer: Graph, part_reps, blocks) -> list[IntervalRep]:
    """`joins.lift_reps` over the squeezing lift."""
    return [
        parent_lifted_rep(outer, blocks, i, rep) for i, reps in enumerate(part_reps) for rep in reps
    ]


def parent_threshold_rep(weights, e: int) -> IntervalRep:
    """Interval representation of the threshold graph: x ~ y exactly when w(x) + w(y) >= e.

    A vertex with 2w >= e gets the nested interval [0, w - ceil(e/2) + 1],
    one shared per weight. A vertex with 2w < e gets its own point in the
    open unit gap above floor(e/2) - w, and the interval of weight w'
    reaches into that gap exactly when w' >= e - w; two points never meet.
    The j-th of the s vertices of one low weight, in vertex order, sits at
    j/(s+1) of the way across its gap.
    """
    half_down, half_up = e // 2, (e + 1) // 2
    spans = {w: repeat((0, w - half_up + 1)) for w in set(weights) if 2 * w >= e}
    for w, s in Counter(w for w in weights if 2 * w < e).items():
        gap = (half_down - w) * (s + 1)
        spans[w] = iter([(x, x) for x in (Fraction(gap + j, s + 1) for j in range(1, s + 1))])
    return IntervalRep(tuple([next(spans[w]) for w in weights]))


def parent_assemble_components(n: int, per_comp, value: int) -> list[IntervalRep]:
    """The exact oracle's witness reps from (vmap, reps) per component, by its own loop."""
    # assemble: cover j takes each component's j-th rep (first rep repeated
    # once a component runs out), normalized onto disjoint segments so cross
    # pairs stay non-adjacent in every cover; the recognizer's reps have int
    # endpoints, so the segments do too
    reps_out = []
    for j in range(value):
        intervals: list = [None] * n
        cursor = 0
        for vmap, reps in per_comp:
            rep = reps[j] if j < len(reps) else reps[0]
            lo_min = min(lo for lo, _ in rep.intervals)
            hi_max = max(hi for _, hi in rep.intervals)
            shift = cursor - lo_min
            for new_v, old_v in enumerate(vmap):
                lo, hi = rep.intervals[new_v]
                intervals[old_v] = (lo + shift, hi + shift)
            cursor += (hi_max - lo_min) + 1
        reps_out.append(IntervalRep(tuple(intervals)))
    return reps_out
