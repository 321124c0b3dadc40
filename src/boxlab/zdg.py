"""Zero-divisor graphs of integers mod N and of 0/1 vector rings.

For composite N the nonzero zero divisors of Z_N, with x ~ y exactly when
x*y = 0 mod N, compress by gcd: all elements with gcd(x, N) = d behave
identically, so the compressed graph lives on the proper divisors of N,
with d ~ d' when N divides d*d'. The class of d induces a complete block
when N divides d^2 and an independent block otherwise, and joining the
blocks over the compressed graph rebuilds the full graph exactly.

The divisor arithmetic certifies the clique number and chromatic number of
the compressed graph without search: the nilpotent divisors and one
augmenting divisor per odd-exponent prime form the clique, and every other
divisor takes the colour of one partner in it, read off its exponents. It
also yields verified interval covers of the full graph (one threshold
member per prime of N, or the paper's join construction), and decides
which N have an interval zero-divisor graph.
For a prime power the per-prime cover has one member, and that verified
member is the explicit interval representation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import repeat

from .errors import ConstructionDefectError, InputError, ResourceBudgetError
from .graphs import (
    Coloring,
    Graph,
    bits,
    check_edge_budget,
    is_clique,
    pairs,
)
from .intervals import IntervalCover, IntervalRep, verified_cover
from .joins import join_cover, unit_rep


# ---------------------------------------------------------------------------
# arithmetic


@dataclass(frozen=True)
class FactoredN:
    """Prime factorization split by exponent parity.

    even_part lists (p, n) for primes with exponent 2n; odd_part lists
    (q, m) for primes with exponent 2m+1 (so a bare prime has m = 0).
    """

    N: int
    even_part: tuple[tuple[int, int], ...]
    odd_part: tuple[tuple[int, int], ...]

    @property
    def a(self) -> int:
        return len(self.even_part)

    @property
    def b(self) -> int:
        return len(self.odd_part)

    @property
    def exponents(self) -> dict[int, int]:
        """The exponent of each prime of N, primes ascending: the order of every valuation tuple."""
        both = [(p, 2 * n) for p, n in self.even_part] + [(q, 2 * m + 1) for q, m in self.odd_part]
        return dict(sorted(both))

    @property
    def divisor_count(self) -> int:
        """Number of divisors of N, 1 and N included: prod (2n+1) * prod (2m+2)."""
        return math.prod(e + 1 for e in self.exponents.values())

    @property
    def root_divisor_count(self) -> int:
        """Number of divisors d of N with N | d^2, N included: prod (n+1) * prod (m+1)."""
        return math.prod(e // 2 + 1 for e in self.exponents.values())

    @property
    def divisor_graph_edges(self) -> int:
        """Edges of the divisor graph: pairs of distinct proper divisors d, d' with N | dd'.

        Per prime, (e+1)(e+2)/2 exponent pairs sum to at least e. Of those
        ordered pairs of divisors, drop the ones holding N (1 pairs only
        with N) and the nilpotent proper divisors paired with themselves,
        then halve.
        """
        ordered = math.prod((e + 1) * (e + 2) // 2 for e in self.exponents.values())
        ordered -= 2 * self.divisor_count - 1
        return (ordered - (self.root_divisor_count - 1)) // 2

    @property
    def is_prime(self) -> bool:
        return self.even_part == () and len(self.odd_part) == 1 and self.odd_part[0][1] == 0

    @property
    def is_prime_power(self) -> bool:
        return len(self.even_part) + len(self.odd_part) == 1


def factor(N: int) -> FactoredN:
    """Trial-division factorization split by exponent parity."""
    if N < 2:
        raise InputError(f"need N >= 2, got {N}")
    left = N
    even, odd = [], []
    p = 2
    while p * p <= left:
        if left % p == 0:
            exp = 0
            while left % p == 0:
                left //= p
                exp += 1
            (even if exp % 2 == 0 else odd).append((p, exp // 2))
        p += 1 if p == 2 else 2
    if left > 1:
        odd.append((left, 0))
    return FactoredN(N, tuple(sorted(even)), tuple(sorted(odd)))


# ---------------------------------------------------------------------------
# the graphs


# the multiples walk builds Z_9240, the slowest direct graph measured below
# this limit, in 0.05 s of CPU (Python 3.11, 2-core VM)
ZDG_MAX_N = 10_000


def check_direct_limit(N: int) -> None:
    """Refuse an N whose zero-divisor graph is over the direct-graph limit ZDG_MAX_N."""
    if N > ZDG_MAX_N:
        raise ResourceBudgetError(f"N = {N} exceeds the direct-graph limit {ZDG_MAX_N}")


def zdg_zn(N: int) -> tuple[Graph, tuple[int, ...]]:
    """Zero-divisor graph of Z_N with its vertex labels in increasing order.

    Built element by element from the definition x*y = 0 mod N, which holds
    exactly when N / gcd(x, N) divides y: row x sets the bit of every
    nonzero multiple of that step below N (each shares a factor with N, so
    each is a label) except x's own. It reads no divisor class, so it is
    the reference the compressed constructions are checked against. Prime
    N has no zero divisors and yields the empty graph.
    """
    if N < 2:
        raise InputError(f"need N >= 2, got {N}")
    check_direct_limit(N)
    labels = tuple(x for x in range(2, N) if math.gcd(x, N) > 1)
    index = dict(zip(labels, range(len(labels))))
    adj = []
    for i, x in enumerate(labels):
        row = 0
        step = N // math.gcd(x, N)
        for y in range(step, N, step):
            row |= 1 << index[y]
        adj.append(row & ~(1 << i))
    return Graph.from_adj(adj), labels


def _zero_product_graph(labels: tuple[int, ...], N: int) -> Graph:
    """labels[i] ~ labels[j] exactly when their product is 0 mod N, by scanning every pair.

    It builds the divisor graph of `compressed_zn`, where N reaches
    10^12 and a walk over the multiples below N would never end.
    """
    adj = [0] * len(labels)
    for i, x in enumerate(labels):
        for j in range(i + 1, len(labels)):
            if x * labels[j] % N == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph.from_adj(adj)


@dataclass(frozen=True)
class CompressedZN:
    """The one record per N: the divisor quotient of the zero-divisor graph of Z_N.

    Vertex i is the proper divisor divisors[i]; sizes[i] counts the
    elements with that gcd; complete[i] says whether the class induces a
    complete block (N divides the divisor squared); valuations[i] holds the
    exponents of N's primes, ascending, in divisors[i].
    """

    f: FactoredN
    divisors: tuple[int, ...]
    graph: Graph
    sizes: tuple[int, ...]
    complete: tuple[bool, ...]
    valuations: tuple[tuple[int, ...], ...]

    @property
    def N(self) -> int:
        return self.f.N

    @property
    def nilpotent(self) -> tuple[int, ...]:
        """Divisors whose class is complete, ascending; together they form a clique."""
        return tuple(d for d, comp in zip(self.divisors, self.complete) if comp)

    @cached_property
    def direct(self) -> tuple[Graph, tuple[int, ...]]:
        """The direct graph `zdg_zn(N)`, built on first use."""
        return zdg_zn(self.N)

    @cached_property
    def positions(self) -> tuple[tuple[int, ...], ...]:
        """Per divisor class, the direct-graph positions of its elements in increasing order."""
        positions: dict[int, list[int]] = {d: [] for d in self.divisors}
        for i, x in enumerate(self.direct[1]):
            positions[math.gcd(x, self.N)].append(i)
        for d, size in zip(self.divisors, self.sizes):
            if len(positions[d]) != size:
                raise ConstructionDefectError(f"class of divisor {d} has unexpected size")
        return tuple(tuple(positions[d]) for d in self.divisors)


# factoring is trial division up to sqrt(N), and the divisor graph a scan
# of every pair of divisors that runs only inside EDGE_BUDGET
COMPRESSED_MAX_N = 10**12


def compressed_zn(N: int) -> CompressedZN:
    """Factor N once and derive its divisor classes; every Z_N certificate reads the record."""
    if N > COMPRESSED_MAX_N:
        raise ResourceBudgetError(f"N = {N} exceeds the divisor-graph limit {COMPRESSED_MAX_N}")
    f = factor(N)
    if f.is_prime:
        raise InputError(f"{N} is prime; the compressed graph needs a composite N")
    check_edge_budget(f.divisor_graph_edges, f"the divisor graph of Z_{N}")
    # every divisor d of N with its exponents, primes ascending, and phi(N/d),
    # the size of its class
    classes = {1: ((), 1)}
    for p, e in f.exponents.items():
        classes = {
            d * p**i: (exps + (i,), phi * (p ** (e - i - 1) * (p - 1) if i < e else 1))
            for d, (exps, phi) in classes.items()
            for i in range(e + 1)
        }
    divs = tuple(sorted(d for d in classes if 1 < d < N))
    if len(divs) != f.divisor_count - 2:
        raise ConstructionDefectError(
            f"divisor count {len(divs)} does not match the factorization ({f.divisor_count - 2})"
        )
    valuations, sizes = zip(*(classes[d] for d in divs))
    zero_divisor_count = N - 1 - classes[1][1]
    if sum(sizes) != zero_divisor_count:
        raise ConstructionDefectError(
            f"class sizes sum to {sum(sizes)}, expected {zero_divisor_count}"
        )
    complete = tuple(d * d % N == 0 for d in divs)
    if sum(complete) != f.root_divisor_count - 1:
        raise ConstructionDefectError(
            f"{sum(complete)} nilpotent divisors, the formula says {f.root_divisor_count - 1}"
        )
    return CompressedZN(f, divs, _zero_product_graph(divs, N), sizes, complete, valuations)


def expand_compressed(c: CompressedZN) -> Graph:
    """Check the direct graph, and return it, against the class blocks joined over c.graph.

    Each element's row must be the classes joined to its own, and its own class
    when complete, less the element; the classes partition the direct vertices.
    """
    g = c.direct[0]  # first, so the direct graph's limit refuses before anything else
    masks = [sum(1 << v for v in members) for members in c.positions]
    for i, members in enumerate(c.positions):
        row = sum(masks[j] for j in bits(c.graph.adj[i])) | (masks[i] if c.complete[i] else 0)
        if any(g.adj[v] != row & ~(1 << v) for v in members):
            raise ConstructionDefectError(
                f"expanded graph for N={c.N} disagrees with the direct construction"
            )
    return g


# ---------------------------------------------------------------------------
# divisor certificates


def augmenting_divisor(f: FactoredN, eta: int) -> int:
    """The divisor dropping the eta-th odd prime to half height (1-based eta).

    It lies outside the nilpotent clique but is adjacent to all of it and
    to every other augmenting divisor, which is what pushes the clique
    number past the nilpotent count. Only its position is checked here;
    `omega_chi_certificate` checks those adjacencies.
    """
    if not 1 <= eta <= f.b:
        raise InputError(f"eta must be in 1..{f.b}, got {eta}")
    q, m = f.odd_part[eta - 1]
    xi = f.N // q ** (m + 1)
    if xi <= 1 or xi * xi % f.N == 0:
        raise ConstructionDefectError(f"augmenting divisor {xi} landed in the wrong place")
    return xi


def omega_chi_certificate(c: CompressedZN) -> tuple[int, tuple[int, ...], Coloring]:
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
    if not is_clique(c.graph, [index_of[d] for d in big_clique]):
        raise ConstructionDefectError(f"clique {big_clique} has members that are not adjacent")

    psi = {d: i for i, d in enumerate(big_clique)}
    colors = []
    for d, exps in zip(c.divisors, c.valuations):
        if d in psi:
            colors.append(psi[d])
            continue
        v = dict(zip(f.exponents, exps))
        low_even = [p**n for p, n in f.even_part if v[p] < n]
        if low_even:
            partner = f.N // low_even[-1]
        else:
            low_odd = [xi for (q, m), xi in zip(f.odd_part, xis) if v[q] <= m]
            if not low_odd:
                raise ConstructionDefectError(f"divisor {d} fits no coloring case")
            partner = low_odd[-1]
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


def compressed_box_bound(c: CompressedZN) -> int:
    """Boxicity upper bound: compressed vertices minus the nilpotent clique, minus one more.

    Equals (number of proper divisors) - (nilpotent divisor count) by
    construction; that identity is asserted.
    """
    value = c.f.divisor_count - c.f.root_divisor_count - 1
    check = len(c.divisors) - len(c.nilpotent)
    if value != check:
        raise ConstructionDefectError(
            f"bound formula {value} disagrees with vertex/clique count {check}"
        )
    return value


def zn_join_cover(c: CompressedZN) -> IntervalCover:
    """Verified cover of the full zero-divisor graph, skipping the nilpotent clique.

    The nilpotent classes are complete and pairwise joined, so they lift
    nothing; every other class is independent and lifts its one `unit_rep`
    onto its positions in the direct graph. The size is exactly the
    compressed vertex count minus the nilpotent clique size.
    """
    if all(c.complete):
        raise InputError(
            f"every class of N={c.N} is nilpotent; the skip construction needs one more class"
        )
    # the positions first: the direct graph's limit refuses before the members are built
    positions = c.positions
    part_reps = [() if comp else (unit_rep(n, False),) for n, comp in zip(c.sizes, c.complete)]
    what = f"cover of the zero-divisor graph of {c.N}"
    return join_cover(c.direct[0], c.graph, part_reps, positions, what)


# ---------------------------------------------------------------------------
# interval characterization


def is_box_one(c: CompressedZN) -> bool:
    """True exactly when the zero-divisor graph of Z_N is an interval graph.

    That happens for prime powers p^n with n >= 2, for N = 2p, and for
    N = 2p^2 with p an odd prime. Every other composite N contains an
    induced 4-cycle through two joined independent classes of size at
    least 2: with three or more primes, drop one prime's exponent
    (N/p, p^a, N/p^a, N/q^b are four distinct such elements); with two odd
    primes or two exponents above 1, the top pure-prime-power classes
    serve; and for 2p^a with a >= 3 the classes of p^(a-1) and 2p do. In
    the surviving cases the graph is a caterpillar-like layering that
    nested intervals realize (for 2p^2: the complete class of 2p on
    [0, 1], the class of p at points inside (0, 1), p^2 on [1, 2], and the
    class of 2 at points inside (1, 2)).
    """
    if c.f.is_prime_power:
        return True
    exps = c.f.exponents
    if len(exps) != 2 or 2 not in exps or exps[2] != 1:
        return False
    odd_exponent = next(e for p, e in exps.items() if p != 2)
    return odd_exponent <= 2


# ---------------------------------------------------------------------------
# threshold covers: one member per prime (or vector coordinate)


def threshold_rep(weights, e: int) -> IntervalRep:
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


def valuation_cover(g: Graph, valuations, exponents, what: str) -> IntervalCover:
    """Verified cover of g as the edge intersection of one threshold graph per factor.

    Member t joins u and v exactly when valuations[u][t] + valuations[v][t]
    >= exponents[t], and `verified_cover` checks that the members meet in
    exactly g. Both rings here are such an intersection: Z_N with one factor
    per prime of N, the 0/1 vectors with one per coordinate.
    """
    reps = [threshold_rep([w[t] for w in valuations], e) for t, e in enumerate(exponents)]
    return verified_cover(g, reps, what)


def zn_prime_cover(c: CompressedZN) -> IntervalCover:
    """Verified cover of the full zero-divisor graph with one member per prime of N.

    x*y = 0 mod N exactly when v_p(x) + v_p(y) >= e for every p^e exactly
    dividing N, and for a zero divisor x the exponent min(v_p(x), e) is
    v_p(gcd(x, N)). So the graph is the edge intersection of one threshold
    graph per prime, in ascending p, each weighing an element by its class's
    valuation from the record. For N = p^n the one member realizes the graph
    exactly: the layers p^i and p^j join exactly when i + j >= n.
    """
    valuations = [()] * len(c.direct[1])
    for exps, members in zip(c.valuations, c.positions):
        for v in members:
            valuations[v] = exps
    what = f"per-prime cover of the zero-divisor graph of {c.N}"
    return valuation_cover(c.direct[0], valuations, c.f.exponents.values(), what)


# ---------------------------------------------------------------------------
# 0/1 vector rings


BOOLEAN_RING_MAX_K = 8  # 2^8 - 2 = 254 vertices, each with its own cover member


def boolean_ring_graph(k: int) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Zero-divisor graph of the length-k 0/1 vectors with their bit tuples as labels.

    Vertices are the 2^k - 2 vectors other than 0 and 1; two vectors join
    exactly when their componentwise product is 0, that is when their
    supports are disjoint. Its clique and chromatic number are both k (the
    unit vectors; the colour of a vector's lowest set bit), but no command
    reports them, so nothing is checked here: the graph's one certificate,
    the per-coordinate cover, is verified where it is built.
    """
    if k < 2:
        raise InputError(f"need k >= 2, got {k}")
    if k > BOOLEAN_RING_MAX_K:
        raise ResourceBudgetError(f"vector length {k} exceeds the limit {BOOLEAN_RING_MAX_K}")
    masks = range(1, 2**k - 1)
    # vector m is vertex m - 1
    g = Graph.from_adj([sum(1 << s - 1 for s in masks if not s & m) for m in masks])
    labels = tuple(tuple(m >> t & 1 for t in range(k)) for m in masks)
    return g, labels


def reduced_ring_box_bounds(k: int) -> IntervalCover:
    """Verified cover of the vector ring with k members, so its boxicity is at most k.

    Two vectors join exactly when no coordinate is set in both, so the
    graph is the edge intersection over coordinates t of the threshold
    graphs with valuation 1 - bit_t and exponent 1: member t puts the
    vectors without bit t on one interval and those with it at points
    inside it. No lower bound is given: box = k fails already for k = 2
    and 3 (boxicity 1 and 2).
    """
    g, labels = boolean_ring_graph(k)
    what = f"per-coordinate cover of the vector ring of length {k}"
    return valuation_cover(g, [[1 - bit for bit in label] for label in labels], [1] * k, what)


# ---------------------------------------------------------------------------
# reporting


def zn_report(N: int) -> dict:
    """Machine-readable summary of everything certified for one N."""
    try:
        c = compressed_zn(N)
    except InputError:
        if N < 2:
            raise  # N < 2 is refused, not a prime
        return {
            "N": N,
            "prime": True,
            "vertices": 0,
            "boxicity": 0,
            "note": "empty graph, boxicity 0 by convention",
        }
    value, clique, _ = omega_chi_certificate(c)
    bound = compressed_box_bound(c)
    clamped = bound < 1
    return {
        "N": N,
        "prime": False,
        "factorization": {
            "even": [[p, n] for p, n in c.f.even_part],
            "odd": [[q, m] for q, m in c.f.odd_part],
        },
        "S": list(c.nilpotent),
        "T": list(clique),
        "omega_chi": value,
        "box_upper": max(bound, 1),
        "box_upper_clamped": clamped,
        "box_one": is_box_one(c),
    }
