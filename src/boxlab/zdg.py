"""Zero-divisor graphs of integers mod N and of 0/1 vector rings.

For composite N the nonzero zero divisors of Z_N, with x ~ y exactly when
x*y = 0 mod N, compress by gcd: all elements with gcd(x, N) = d behave
identically, so the compressed graph lives on the proper divisors of N,
with d ~ d' when N divides d*d'. The class of d induces a complete block
when N divides d^2 and an independent block otherwise, and joining the
blocks over the compressed graph rebuilds the full graph exactly.

The divisor arithmetic certifies the clique number and chromatic number of
the compressed graph without search, yields a verified interval cover of
the full graph through the join construction, and decides which N have an
interval zero-divisor graph, with explicit representations for the prime
power cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstructionDefectError, InputError, ResourceBudgetError
from .graphs import Coloring, Graph, complete_graph, empty_graph, generalized_join, make_graph
from .intervals import Interval, IntervalCover, IntervalRep, graph_of_intervals, point, verified_cover
from .joins import lift_reps, make_plan


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
        out = {p: 2 * n for p, n in self.even_part}
        out.update({q: 2 * m + 1 for q, m in self.odd_part})
        return out

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


def _divisors(N: int) -> list[int]:
    exps = factor(N).exponents
    divs = [1]
    for p, e in exps.items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def proper_divisors(N: int) -> list[int]:
    return [d for d in _divisors(N) if 1 < d < N]


def euler_phi(m: int) -> int:
    if m == 1:
        return 1
    result = m
    for p in factor(m).exponents:
        result = result // p * (p - 1)
    return result


# ---------------------------------------------------------------------------
# the graphs


def zdg_zn(N: int) -> tuple[Graph, tuple[int, ...]]:
    """Zero-divisor graph of Z_N with its vertex labels in increasing order.

    Prime N has no zero divisors and yields the empty graph.
    """
    if N < 2:
        raise InputError(f"need N >= 2, got {N}")
    labels = tuple(x for x in range(2, N) if math.gcd(x, N) > 1)
    edges = [
        (i, j)
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
        if labels[i] * labels[j] % N == 0
    ]
    return make_graph(len(labels), edges), labels


@dataclass(frozen=True)
class CompressedZN:
    """Divisor quotient of the zero-divisor graph of Z_N.

    Vertex i is the proper divisor divisors[i]; sizes[i] counts the
    elements with that gcd; complete[i] says whether the class induces a
    complete block (N divides the divisor squared).
    """

    N: int
    divisors: tuple[int, ...]
    graph: Graph
    sizes: tuple[int, ...]
    complete: tuple[bool, ...]


def compressed_zn(N: int) -> CompressedZN:
    f = factor(N)
    if f.is_prime:
        raise InputError(f"{N} is prime; the compressed graph needs a composite N")
    divs = tuple(proper_divisors(N))
    expected = math.prod(2 * n + 1 for _, n in f.even_part) * math.prod(
        2 * m + 2 for _, m in f.odd_part
    ) - 2
    if len(divs) != expected:
        raise ConstructionDefectError(
            f"divisor count {len(divs)} does not match the factorization ({expected})"
        )
    edges = [
        (i, j)
        for i in range(len(divs))
        for j in range(i + 1, len(divs))
        if divs[i] * divs[j] % N == 0
    ]
    sizes = tuple(euler_phi(N // d) for d in divs)
    zero_divisor_count = N - 1 - euler_phi(N)
    if sum(sizes) != zero_divisor_count:
        raise ConstructionDefectError(
            f"class sizes sum to {sum(sizes)}, expected {zero_divisor_count}"
        )
    complete = tuple(d * d % N == 0 for d in divs)
    return CompressedZN(N, divs, make_graph(len(divs), edges), sizes, complete)


def _class_parts(c: CompressedZN) -> list[Graph]:
    return [
        complete_graph(size) if comp else empty_graph(size)
        for size, comp in zip(c.sizes, c.complete)
    ]


def _class_positions(c: CompressedZN, labels: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Per divisor class, the direct-graph positions of its elements in increasing order."""
    positions: dict[int, list[int]] = {d: [] for d in c.divisors}
    for i, x in enumerate(labels):
        positions[math.gcd(x, c.N)].append(i)
    for d, size in zip(c.divisors, c.sizes):
        if len(positions[d]) != size:
            raise ConstructionDefectError(f"class of divisor {d} has unexpected size")
    return [tuple(positions[d]) for d in c.divisors]


def expand_compressed(c: CompressedZN) -> Graph:
    """Rebuild the full graph by joining class blocks; checked against the direct one."""
    joined, _ = generalized_join(c.graph, _class_parts(c))
    direct, labels = zdg_zn(c.N)
    # join blocks are consecutive ranges in class order
    to_direct = [v for blk in _class_positions(c, labels) for v in blk]
    relabeled = make_graph(
        joined.n, ((to_direct[u], to_direct[v]) for u, v in joined.edges)
    )
    if relabeled != direct:
        raise ConstructionDefectError(
            f"expanded graph for N={c.N} disagrees with the direct construction"
        )
    return relabeled


# ---------------------------------------------------------------------------
# divisor certificates


def nilpotent_divisors(f: FactoredN) -> tuple[int, ...]:
    """Proper divisors d with N | d^2; their classes are the complete blocks.

    Sorted ascending. The count is checked against the closed form (one
    less than the product over primes of (half-exponent + 1)).
    """
    if f.is_prime:
        raise InputError("prime N has no compressed graph")
    out = tuple(d for d in proper_divisors(f.N) if d * d % f.N == 0)
    expected = math.prod(n + 1 for _, n in f.even_part) * math.prod(
        m + 1 for _, m in f.odd_part
    ) - 1
    if len(out) != expected:
        raise ConstructionDefectError(
            f"nilpotent divisor count {len(out)} does not match the formula ({expected})"
        )
    for i, d in enumerate(out):
        for e in out[i + 1 :]:
            if d * e % f.N != 0:
                raise ConstructionDefectError(f"divisors {d}, {e} are not adjacent")
    return out


def augmenting_divisor(f: FactoredN, eta: int) -> int:
    """The divisor dropping the eta-th odd prime to half height (1-based eta).

    It lies outside the nilpotent clique but is adjacent to all of it and
    to every other augmenting divisor, which is what pushes the clique
    number past the nilpotent count.
    """
    if not 1 <= eta <= f.b:
        raise InputError(f"eta must be in 1..{f.b}, got {eta}")
    q, m = f.odd_part[eta - 1]
    xi = f.N // q ** (m + 1)
    if xi <= 1 or xi * xi % f.N == 0:
        raise ConstructionDefectError(f"augmenting divisor {xi} landed in the wrong place")
    for s in nilpotent_divisors(f):
        if xi * s % f.N != 0:
            raise ConstructionDefectError(f"augmenting divisor {xi} misses {s}")
    for other in range(1, f.b + 1):
        if other == eta:
            continue
        q2, m2 = f.odd_part[other - 1]
        xi2 = f.N // q2 ** (m2 + 1)
        if xi * xi2 % f.N != 0:
            raise ConstructionDefectError(
                f"augmenting divisors {xi}, {xi2} are not adjacent"
            )
    return xi


def _exponent_of(value: int, prime: int) -> int:
    e = 0
    while value % prime == 0:
        value //= prime
        e += 1
    return e


def omega_chi_certificate(f: FactoredN) -> tuple[int, tuple[int, ...], Coloring]:
    """Clique number = chromatic number of the compressed graph, certified.

    Returns (value, clique, coloring) where the clique has exactly `value`
    vertices and the coloring is proper with exactly `value` colors, so
    both bounds meet without any search. Every claim is re-checked before
    returning.
    """
    if f.is_prime:
        raise InputError("prime N has no compressed graph")
    c = compressed_zn(f.N)
    value = math.prod(n + 1 for _, n in f.even_part) * math.prod(
        m + 1 for _, m in f.odd_part
    ) + f.b - 1
    clique_s = nilpotent_divisors(f)
    xis = [augmenting_divisor(f, eta) for eta in range(1, f.b + 1)]
    big_clique = tuple(sorted(set(clique_s) | set(xis)))
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
            for u, v in c.graph.edges
            if colors[u] == colors[v]
        )
        raise ConstructionDefectError(f"coloring merges adjacent classes {bad}", bad)
    if coloring.num_colors != value:
        raise ConstructionDefectError(
            f"coloring uses {coloring.num_colors} colors, formula says {value}"
        )
    return value, big_clique, coloring


def compressed_box_bound(f: FactoredN) -> int:
    """Boxicity upper bound: compressed vertices minus the nilpotent clique, minus one more.

    Equals (number of proper divisors) - (nilpotent divisor count) by
    construction; that identity is asserted.
    """
    if f.is_prime:
        raise InputError("prime N has no compressed graph")
    value = (
        math.prod(2 * n + 1 for _, n in f.even_part)
        * math.prod(2 * m + 2 for _, m in f.odd_part)
        - math.prod(n + 1 for _, n in f.even_part) * math.prod(m + 1 for _, m in f.odd_part)
        - 1
    )
    check = len(proper_divisors(f.N)) - len(nilpotent_divisors(f))
    if value != check:
        raise ConstructionDefectError(
            f"bound formula {value} disagrees with vertex/clique count {check}"
        )
    return value


def zn_join_cover(c: CompressedZN) -> IntervalCover:
    """Verified cover of the full zero-divisor graph, skipping the nilpotent clique.

    One representation per non-nilpotent divisor class, so the size is
    exactly the compressed vertex count minus the nilpotent clique size.
    """
    f = factor(c.N)
    skip_divisors = set(nilpotent_divisors(f))
    skip = frozenset(i for i, d in enumerate(c.divisors) if d in skip_divisors)
    if len(skip) == len(c.divisors):
        raise InputError(
            f"every class of N={c.N} is nilpotent; the skip construction needs one more class"
        )
    plan = make_plan(c.graph, _class_parts(c), skip=skip)
    direct, labels = zdg_zn(c.N)
    reps = lift_reps(plan, _class_positions(c, labels))
    return verified_cover(direct, reps, f"cover of the zero-divisor graph of {c.N}")


# ---------------------------------------------------------------------------
# interval characterization


def is_box_one(N: int) -> bool:
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
    f = factor(N)
    if f.is_prime:
        raise InputError(f"{N} is prime; its zero-divisor graph is empty")
    if f.is_prime_power:
        return True
    exps = f.exponents
    if len(exps) != 2 or 2 not in exps or exps[2] != 1:
        return False
    odd_exponent = next(e for p, e in exps.items() if p != 2)
    return odd_exponent <= 2


def prime_power_rep(p: int, n: int) -> IntervalRep:
    """Explicit interval representation of the zero-divisor graph of Z_{p^n}.

    Layers are the classes of gcd(x, p^n) = p^i for 1 <= i <= n-1; layers i
    and j join exactly when i + j >= n. Upper layers get nested intervals
    anchored at 0, lower layers get isolated points in unit gaps placed so
    each layer touches exactly the tail of upper layers it joins; the
    middle layer sits at [0, 1] (with extra in-gap points when n is odd).
    The result is checked for exact equality with the direct graph.
    """
    N = p**n
    f = factor(N)
    if not f.is_prime_power or f.is_prime or n < 2:
        raise InputError(f"need a prime power with exponent >= 2, got {p}^{n}")
    direct, labels = zdg_zn(N)
    layer_members: dict[int, list[int]] = {}
    for x in labels:
        i = _exponent_of(math.gcd(x, N), p)
        layer_members.setdefault(i, []).append(x)
    for members in layer_members.values():
        members.sort()

    layer_interval: dict[int, list[Interval]] = {}

    def gap_points(base: int, count: int) -> list[Interval]:
        return [point(Fraction(base * (count + 1) + j, count + 1)) for j in range(1, count + 1)]

    if n == 2:
        layer_interval[1] = [(Fraction(0), Fraction(1))] * len(layer_members[1])
    elif n == 3:
        layer_interval[2] = [(Fraction(0), Fraction(1))] * len(layer_members[2])
        layer_interval[1] = [
            point(Fraction(1, j)) for j in range(1, len(layer_members[1]) + 1)
        ]
    else:
        half_down = n // 2
        half_up = (n + 1) // 2
        for i in range(1, half_down):
            layer = n - i  # upper layers n-1 down to ceil(n/2)+1
            layer_interval[layer] = [
                (Fraction(0), Fraction(half_down - i + 1))
            ] * len(layer_members[layer])
        for i in range(half_up + 1, n):
            layer = n - i  # lower layers floor(n/2)-1 down to 1
            layer_interval[layer] = gap_points(i - half_up, len(layer_members[layer]))
        if n % 2 == 0:
            mid = n // 2
            layer_interval[mid] = [(Fraction(0), Fraction(1))] * len(layer_members[mid])
        else:
            layer_interval[half_down] = gap_points(0, len(layer_members[half_down]))
            layer_interval[half_up] = [(Fraction(0), Fraction(1))] * len(
                layer_members[half_up]
            )

    by_label: dict[int, Interval] = {}
    for layer, members in layer_members.items():
        for member, iv in zip(members, layer_interval[layer]):
            by_label[member] = iv
    rep = IntervalRep(tuple(by_label[x] for x in labels))
    if graph_of_intervals(rep) != direct:
        raise ConstructionDefectError(
            f"representation for {p}^{n} does not realize the zero-divisor graph"
        )
    return rep


# ---------------------------------------------------------------------------
# 0/1 vector rings


@dataclass(frozen=True)
class BooleanRingGraph:
    """Zero-divisor graph of length-k 0/1 vectors under componentwise product.

    Vertices are the vectors other than all-zeros and all-ones; two vectors
    join exactly when their supports are disjoint. The graph equals its own
    neighborhood quotient (all classes are singletons).
    """

    k: int
    graph: Graph
    labels: tuple[tuple[int, ...], ...]


BOOLEAN_RING_MAX_K = 8  # 2^8 - 2 = 254 vertices, each with its own cover member


def boolean_ring_graph(k: int) -> BooleanRingGraph:
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
    return BooleanRingGraph(k, g, labels)


def reduced_ring_box_bounds(k: int) -> tuple[int, int, IntervalCover]:
    """(claimed lower bound, certified upper bound, verified cover) for the vector ring.

    The lower bound k is reported as claimed, not certified: the
    neighborhood classes here are singletons, so the clique-sum argument
    does not apply. The upper bound 2^k - 2 comes with a verified cover of
    one representation per vertex.
    """
    ring = boolean_ring_graph(k)
    n = ring.graph.n
    plan = make_plan(ring.graph, [empty_graph(1)] * n)
    # singleton blocks in vertex order: the join is the graph itself
    reps = lift_reps(plan, [(v,) for v in range(n)])
    cover = verified_cover(ring.graph, reps, "vector-ring cover")
    if len(cover) != 2**k - 2:
        raise ConstructionDefectError(
            f"vector-ring cover has {len(cover)} members, expected {2**k - 2}"
        )
    return k, 2**k - 2, cover


# ---------------------------------------------------------------------------
# reporting


def zn_report(N: int) -> dict:
    """Machine-readable summary of everything certified for one N."""
    f = factor(N)
    if f.is_prime:
        return {
            "N": N,
            "prime": True,
            "vertices": 0,
            "boxicity": 0,
            "note": "empty graph, boxicity 0 by convention",
        }
    value, clique, _ = omega_chi_certificate(f)
    bound = compressed_box_bound(f)
    clamped = bound < 1
    return {
        "N": N,
        "prime": False,
        "factorization": {
            "even": [[p, n] for p, n in f.even_part],
            "odd": [[q, m] for q, m in f.odd_part],
        },
        "S": list(nilpotent_divisors(f)),
        "T": list(clique),
        "omega_chi": value,
        "box_upper": max(bound, 1),
        "box_upper_clamped": clamped,
        "box_one": is_box_one(N),
    }
