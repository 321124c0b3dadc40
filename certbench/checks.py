"""Independent checkers for boxlab certificates.

Nothing here imports boxlab. Graphs are rebuilt from their definitions as
adjacency bitsets (`adj[v]` is an int whose bit u is set when uv is an
edge), interval representations are read from the JSON the program emits
and compared with exact rationals, and obstructions are re-derived by
search. The slow exact boxicity search at the bottom is only used by
`make_refs.py` and for the tiny join parts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations


class BitGraph:
    """Simple graph on 0..n-1 with int-bitset adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: list[int]):
        self.n = n
        self.adj = adj

    @classmethod
    def from_edges(cls, n: int, edges) -> "BitGraph":
        adj = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            m = self.adj[u] >> (u + 1)
            v = u + 1
            while m:
                if m & 1:
                    out.append((u, v))
                m >>= 1
                v += 1
        return out

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def non_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v in combinations(range(self.n), 2) if not self.has_edge(u, v)]

    def relabel(self, perm: list[int]) -> "BitGraph":
        """Copy with vertex v renamed perm[v]."""
        return BitGraph.from_edges(self.n, ((perm[u], perm[v]) for u, v in self.edges()))

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return reach(self, 0, 0) == (1 << self.n) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, BitGraph) and self.n == other.n and self.adj == other.adj


def reach(g: BitGraph, start: int, blocked: int) -> int:
    """Bitset of vertices reachable from start without entering `blocked`."""
    if blocked >> start & 1:
        return 0
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= g.adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & ~seen & ~blocked
        seen |= frontier
    return seen


def graph_from_obj(obj: dict) -> BitGraph:
    return BitGraph.from_edges(int(obj["n"]), (tuple(e) for e in obj["edges"]))


# ---------------------------------------------------------------------------
# graphs rebuilt from their definitions


def zero_divisors(N: int) -> list[int]:
    """Nonzero zero divisors of Z_N in increasing order."""
    return [x for x in range(2, N) if math.gcd(x, N) > 1]


def zdg_graph(N: int) -> BitGraph:
    """Gamma(Z_N): the zero divisors in increasing order, x ~ y iff N | xy."""
    labels = zero_divisors(N)
    adj = [0] * len(labels)
    for i, x in enumerate(labels):
        for j in range(i + 1, len(labels)):
            if x * labels[j] % N == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return BitGraph(len(labels), adj)


def boolean_graph(k: int) -> BitGraph:
    """Zero-divisor graph of F_2^k: vectors 1..2^k-2 as bitmasks, disjoint supports join."""
    masks = list(range(1, 2**k - 1))
    adj = [0] * len(masks)
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if a & masks[j] == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return BitGraph(len(masks), adj)


def circular_graph(k: int, d: int) -> BitGraph:
    """G^d_k: vertices 0..k-1, i ~ j iff d <= |i-j| <= k-d."""
    return BitGraph.from_edges(
        k, ((i, j) for i in range(k) for j in range(i + 1, k) if d <= j - i <= k - d)
    )


def join_graph(outer: BitGraph, parts: list[BitGraph]) -> BitGraph:
    """Generalized join with part i on a consecutive block, blocks in part order."""
    offsets, total = [], 0
    for p in parts:
        offsets.append(total)
        total += p.n
    edges = []
    for i, p in enumerate(parts):
        edges.extend((offsets[i] + u, offsets[i] + v) for u, v in p.edges())
    for i, j in outer.edges():
        edges.extend(
            (u, v)
            for u in range(offsets[i], offsets[i] + parts[i].n)
            for v in range(offsets[j], offsets[j] + parts[j].n)
        )
    return BitGraph.from_edges(total, edges)


# ---------------------------------------------------------------------------
# arithmetic


def prime_exponents(N: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p, left = 2, N
    while p * p <= left:
        while left % p == 0:
            out[p] = out.get(p, 0) + 1
            left //= p
        p += 1
    if left > 1:
        out[left] = out.get(left, 0) + 1
    return out


def zn_closed_form_bound(N: int) -> int:
    """The abstract's bound for N = prod p_i^(2n_i) prod q_j^(2m_j+1).

    prod(2n_i+1) prod(2m_j+2) - prod(n_i+1) prod(m_j+1) - 1; the first
    product is the divisor count and the second counts e // 2 + 1 per prime.
    """
    exps = prime_exponents(N).values()
    return math.prod(e + 1 for e in exps) - math.prod(e // 2 + 1 for e in exps) - 1


def squarefree_chi(g: BitGraph, N: int) -> int | None:
    """Certified chromatic number of Gamma(Z_N) for squarefree N, else None.

    Clique: the N/p over the primes p. Colouring: a zero divisor x gets the
    index of the smallest prime not dividing it; two such x, y with the same
    colour miss a common prime, so N does not divide xy. Both are checked on g.
    """
    exps = prime_exponents(N)
    if any(e > 1 for e in exps.values()):
        return None
    primes = sorted(exps)
    labels = zero_divisors(N)
    index = {x: i for i, x in enumerate(labels)}
    clique = [index[N // p] for p in primes]
    colour = [next(i for i, p in enumerate(primes) if x % p) for x in labels]
    return _certified_chi(g, clique, colour)


def boolean_chi(g: BitGraph, k: int) -> int | None:
    """Certified chromatic number of the F_2^k graph: unit vectors and lowest set bit."""
    clique = [(1 << t) - 1 for t in range(k)]  # vertex i is mask i+1
    colour = [((m & -m).bit_length() - 1) for m in range(1, 2**k - 1)]
    return _certified_chi(g, clique, colour)


def _certified_chi(g: BitGraph, clique: list[int], colour: list[int]) -> int | None:
    if any(not g.has_edge(u, v) for u, v in combinations(clique, 2)):
        return None
    if any(colour[u] == colour[v] for u, v in g.edges()):
        return None
    if len(set(colour)) != len(clique):
        return None
    return len(clique)


# ---------------------------------------------------------------------------
# interval representations and covers


def rep_graph(rep: dict) -> BitGraph:
    """Intersection graph of an emitted representation, closed intervals, exact.

    Endpoints [num, den] are brought to one common denominator, which keeps
    order and ties. Vertex v meets exactly the u with lo_u <= hi_v and
    hi_u >= lo_v; both sets are prefixes of a sorted order, so each
    neighbourhood is one AND of two prefix bitsets.
    """
    n = int(rep["n"])
    ivs = rep["intervals"]
    if sorted(ivs, key=int) != [str(v) for v in range(n)]:
        raise ValueError("interval keys are not 0..n-1")
    fr = [(Fraction(*ivs[str(v)][0]), Fraction(*ivs[str(v)][1])) for v in range(n)]
    den = math.lcm(*(f.denominator for pair in fr for f in pair)) if fr else 1
    lo = [int(a * den) for a, _ in fr]
    hi = [int(b * den) for _, b in fr]
    if any(a > b for a, b in zip(lo, hi)):
        raise ValueError("empty interval")
    by_lo = sorted(range(n), key=lo.__getitem__)
    by_hi = sorted(range(n), key=hi.__getitem__, reverse=True)
    lo_sorted = [lo[v] for v in by_lo]
    neg_hi_sorted = [-hi[v] for v in by_hi]
    pre_lo, pre_hi = [0], [0]
    for v in by_lo:
        pre_lo.append(pre_lo[-1] | 1 << v)
    for v in by_hi:
        pre_hi.append(pre_hi[-1] | 1 << v)
    adj = [
        pre_lo[bisect_right(lo_sorted, hi[v])]
        & pre_hi[bisect_right(neg_hi_sorted, -lo[v])]
        & ~(1 << v)
        for v in range(n)
    ]
    return BitGraph(n, adj)


def cover_problems(obj: dict, expected: BitGraph) -> list[str]:
    """Why a cover object fails to certify `expected`; empty when it certifies it.

    The embedded graph must be `expected`, every representation must realize
    a spanning supergraph, and the realized graphs must meet in exactly the
    edges of `expected`.
    """
    problems = []
    if graph_from_obj(obj["graph"]) != expected:
        problems.append("embedded graph differs from the rebuilt graph")
    reps = obj["reps"]
    if not reps:
        return problems + ["cover has no representations"]
    meet = [(1 << expected.n) - 1 & ~(1 << v) for v in range(expected.n)]
    for i, rep in enumerate(reps):
        if int(rep["n"]) != expected.n:
            problems.append(f"rep {i} has {rep['n']} vertices, graph has {expected.n}")
            continue
        h = rep_graph(rep)
        if any(g_v & ~h_v for g_v, h_v in zip(expected.adj, h.adj)):
            problems.append(f"rep {i} misses an edge")
        meet = [a & b for a, b in zip(meet, h.adj)]
    if not problems and meet != expected.adj:
        problems.append("representations meet in a non-edge")
    return problems


# ---------------------------------------------------------------------------
# obstruction witnesses


def is_hole(g: BitGraph, cycle) -> bool:
    """Induced cycle of length at least 4."""
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k or any(not 0 <= v < g.n for v in cycle):
        return False
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j == i + 1 or (i == 0 and j == k - 1)
            if g.has_edge(cycle[i], cycle[j]) != consecutive:
                return False
    return True


def is_asteroidal_triple(g: BitGraph, triple) -> bool:
    """Pairwise non-adjacent, and each pair joined by a path avoiding N[third]."""
    if len(triple) != 3 or len(set(triple)) != 3 or any(not 0 <= v < g.n for v in triple):
        return False
    x, y, z = triple
    if g.has_edge(x, y) or g.has_edge(y, z) or g.has_edge(x, z):
        return False
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        if not reach(g, a, g.adj[c] | 1 << c) >> b & 1:
            return False
    return True


# ---------------------------------------------------------------------------
# slow exact boxicity (reference values only)


def is_chordal(g: BitGraph) -> bool:
    """Maximum cardinality search, then the clique test on earlier neighbours."""
    n = g.n
    weight = [0] * n
    numbered = 0
    for _ in range(n):
        v = max((u for u in range(n) if not numbered >> u & 1), key=lambda u: (weight[u], -u))
        earlier = g.adj[v] & numbered
        # earlier neighbours must form a clique
        m = earlier
        while m:
            low = m & -m
            u = low.bit_length() - 1
            if earlier & ~low & ~g.adj[u]:
                return False
            m ^= low
        numbered |= 1 << v
        m = g.adj[v] & ~numbered
        while m:
            low = m & -m
            weight[low.bit_length() - 1] += 1
            m ^= low
    return True


def is_interval(g: BitGraph) -> bool:
    """Lekkerkerker-Boland: chordal and free of asteroidal triples."""
    if not is_chordal(g):
        return False
    for x, y, z in combinations(range(g.n), 3):
        if is_asteroidal_triple(g, (x, y, z)):
            return False
    return True


def boxicity(g: BitGraph) -> int:
    """Least number of interval supergraphs of g whose edges meet in E(g).

    Added-edge sets are tried smallest first; a superset of a set that
    already gave an interval graph is skipped, because its remaining
    non-edges are a subset of that one's. The answer is the least number of
    the kept non-edge sets whose union is every non-edge.
    """
    if g.n == 0:
        return 0
    non = g.non_edges()
    full = (1 << len(non)) - 1
    hits: list[int] = []
    for size in range(len(non) + 1):
        for combo in combinations(range(len(non)), size):
            added = sum(1 << i for i in combo)
            if any(added & h == h for h in hits):
                continue
            adj = list(g.adj)
            for i in combo:
                u, v = non[i]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            if is_interval(BitGraph(g.n, adj)):
                hits.append(added)
    kills = [full & ~h for h in hits]
    for k in range(1, len(kills) + 1):
        for chosen in combinations(kills, k):
            union = 0
            for c in chosen:
                union |= c
            if union == full:
                return k
    raise ValueError("complete graph missing from the interval supergraphs")


def clique_sum_lower_bound(outer: BitGraph, part_box: list[int], part_complete: list[bool]) -> int:
    """Max over cliques of the outer graph of the boxicity sum of non-complete parts."""
    best = 0
    for size in range(1, outer.n + 1):
        for sub in combinations(range(outer.n), size):
            if all(outer.has_edge(u, v) for u, v in combinations(sub, 2)):
                best = max(best, sum(part_box[i] for i in sub if not part_complete[i]))
    return best
