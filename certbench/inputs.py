"""Seeded inputs for the three workloads.

Every input is a pure function of the run seed. Graph structures come from
fixed pools named by pool seeds, so every run seed asks for about the same
work: the `box` graphs and join instances (their exact boxicities are
stored in refs.json) and the `recognize` graphs (pool seed = slot number).
The run seed shuffles the order of operations and renames the vertices of
every graph it hands over, which keeps the stored boxicities valid.
"""

from __future__ import annotations

import random
from itertools import combinations

from checks import BitGraph, zdg_graph

# ---------------------------------------------------------------------------
# ring_cover: fixed command list


def _non_prime_power_composites(lo: int, hi: int) -> list[int]:
    out = []
    for N in range(lo, hi + 1):
        primes = [p for p in range(2, N) if N % p == 0 and all(p % q for q in range(2, p))]
        if len(primes) >= 2:
            out.append(N)
    return out


# squarefree (reduced rings) and repeated-prime N above the small sweep
RING_LARGE_N = (210, 330, 180)
RING_SMALL_N = tuple(_non_prime_power_composites(6, 150))
RING_BOOLEAN_K = (4, 5, 6)


def ring_commands() -> list[tuple[str, int]]:
    return (
        [("zdg", N) for N in RING_SMALL_N + RING_LARGE_N]
        + [("boolean", k) for k in RING_BOOLEAN_K]
    )


# ---------------------------------------------------------------------------
# small_certs: circular pairs, box pool, join pool

CIRCULAR_PAIRS = tuple((k, d) for d in range(2, 7) for k in range(2 * d, 31))

BOX_POOL_SIZE = 8
BOX_VERTICES = 10
BOX_NON_EDGES = (10, 14)


def box_pool_graph(pool_seed: int) -> BitGraph:
    """Connected 10-vertex graph with 10..14 non-edges (the oracle's default budget edge)."""
    rng = random.Random(pool_seed)
    pairs = list(combinations(range(BOX_VERTICES), 2))
    while True:
        missing = set(rng.sample(pairs, rng.randint(*BOX_NON_EDGES)))
        g = BitGraph.from_edges(BOX_VERTICES, (e for e in pairs if e not in missing))
        if g.is_connected():
            return g


JOIN_POOL_SIZE = 40
JOIN_MAX_VERTICES = 10
JOIN_MAX_NON_EDGES = 14


def _random_graph(rng: random.Random, n: int) -> BitGraph:
    return BitGraph.from_edges(n, (e for e in combinations(range(n), 2) if rng.random() < 0.5))


def join_candidate(pool_seed: int):
    """(outer, parts, skip) shaped like the join acceptance instances.

    The outer graph is connected with 2..4 vertices and parts have 1..4
    vertices. Complete parts whose outer vertices form a clique are skipped,
    as long as one part stays. Returns None when the join exceeds the
    reference search's size (10 vertices, 14 non-edges).
    """
    rng = random.Random(pool_seed)
    outer = _random_graph(rng, rng.randint(2, 4))
    parts = [_random_graph(rng, rng.randint(1, 4)) for _ in range(outer.n)]
    if not outer.is_connected():
        return None
    total = sum(p.n for p in parts)
    non_edges = total * (total - 1) // 2 - sum(len(p.edges()) for p in parts) - sum(
        parts[i].n * parts[j].n for i, j in outer.edges()
    )
    if total > JOIN_MAX_VERTICES or non_edges > JOIN_MAX_NON_EDGES:
        return None
    skip: list[int] = []
    for i, p in enumerate(parts):
        complete = len(p.edges()) == p.n * (p.n - 1) // 2
        if complete and all(outer.has_edge(i, j) for j in skip):
            skip.append(i)
    if len(skip) == outer.n:
        skip.pop()
    return outer, parts, skip


def join_pool_seeds() -> list[int]:
    """First JOIN_POOL_SIZE pool seeds whose candidate fits the reference search."""
    out, s = [], 0
    while len(out) < JOIN_POOL_SIZE:
        if join_candidate(s) is not None:
            out.append(s)
        s += 1
    return out


def permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabeled_join(outer: BitGraph, parts: list[BitGraph], skip: list[int], rng: random.Random):
    """Isomorphic instance: outer vertices renamed, parts moved along and renamed inside."""
    perm = permutation(rng, outer.n)
    new_parts: list[BitGraph] = [None] * outer.n  # type: ignore[list-item]
    for i, p in enumerate(parts):
        new_parts[perm[i]] = p.relabel(permutation(rng, p.n))
    return outer.relabel(perm), new_parts, sorted(perm[i] for i in skip)


# ---------------------------------------------------------------------------
# recognize: graphs drawn from the run seed


def _interval_edges(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    order = sorted(range(len(intervals)), key=lambda v: intervals[v])
    edges = []
    for a, u in enumerate(order):
        hi_u = intervals[u][1]
        for v in order[a + 1 :]:
            if intervals[v][0] > hi_u:
                break
            edges.append((u, v))
    return edges


def random_interval_edges(rng: random.Random, n: int, max_len: int) -> list[tuple[int, int]]:
    """Intersection graph of n random integer intervals on [0, 10n], lengths below max_len."""
    intervals = []
    for _ in range(n):
        lo = rng.randrange(10 * n)
        intervals.append((lo, lo + rng.randrange(max_len)))
    return _interval_edges(intervals)


def with_hole(rng: random.Random, n: int, max_len: int) -> list[tuple[int, int]]:
    """Random interval graph plus an induced cycle of length 4..8 hung off one vertex."""
    h = rng.randint(4, 8)
    base = n - h
    edges = random_interval_edges(rng, base, max_len)
    cycle = list(range(base, n))
    edges += [(cycle[i], cycle[(i + 1) % h]) for i in range(h)]
    edges.append((rng.randrange(base), cycle[0]))
    return edges


def with_asteroidal_triple(rng: random.Random, n: int, max_len: int) -> list[tuple[int, int]]:
    """Random interval graph plus a centre with three legs of length two (chordal, not interval)."""
    base = n - 7
    edges = random_interval_edges(rng, base, max_len)
    c = base
    edges.append((rng.randrange(base), c))
    for leg in range(3):
        a, b = base + 1 + 2 * leg, base + 2 + 2 * leg
        edges += [(c, a), (a, b)]
    return edges


# (vertices, maximum interval length) per slot
_LENGTHS = (40, 80, 120, 160, 200)
RECOGNIZE_INTERVAL = tuple(
    (n, _LENGTHS[i % 5])
    for n, count in ((100, 24), (150, 16), (200, 2), (300, 1))
    for i in range(count)
)
RECOGNIZE_PATH_SIZES = (100, 150)
# p^n, 2p and 2p^2 with 101..131 vertices, plus N = 18 = 2 * 3^2
RECOGNIZE_ZDG_N = (256, 625, 1331, 2 * 101, 2 * 11**2, 18)
RECOGNIZE_HOLE = tuple((n, _LENGTHS[i % 5]) for i, n in enumerate((100, 100, 100, 150, 150) * 6))
RECOGNIZE_AT = tuple((n, _LENGTHS[i % 5]) for i, n in enumerate((100, 100, 100, 150) * 5))


def recognize_graphs(seed: int) -> list[tuple[str, BitGraph]]:
    """(kind, graph) pairs; kind is interval, path, zdg, hole or at.

    Slot i of each kind draws its graph from Random(i), so the structures
    are the same for every run seed; the run seed renames the vertices.
    """
    raw: list[tuple[str, int, list[tuple[int, int]]]] = []
    for i, (n, max_len) in enumerate(RECOGNIZE_INTERVAL):
        raw.append(("interval", n, random_interval_edges(random.Random(i), n, max_len)))
    for n in RECOGNIZE_PATH_SIZES:
        raw.append(("path", n, [(i, i + 1) for i in range(n - 1)]))
    for N in RECOGNIZE_ZDG_N:
        g = zdg_graph(N)
        raw.append(("zdg", g.n, g.edges()))
    for i, (n, max_len) in enumerate(RECOGNIZE_HOLE):
        raw.append(("hole", n, with_hole(random.Random(i), n, max_len)))
    for i, (n, max_len) in enumerate(RECOGNIZE_AT):
        raw.append(("at", n, with_asteroidal_triple(random.Random(i), n, max_len)))
    rng = random.Random(seed)
    out = []
    for kind, n, edges in raw:
        perm = permutation(rng, n)
        out.append((kind, BitGraph.from_edges(n, ((perm[u], perm[v]) for u, v in edges))))
    return out
