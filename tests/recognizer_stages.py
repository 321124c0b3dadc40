"""CPU time of each stage of `is_interval_graph` on fixed inputs.

The interval inputs are the band graph (intervals [i, i + n/2] at n = 2000,
about 1.5M edges and 1000 maximal cliques of about 1000 vertices), the
path on 10 000 vertices, and 100 random interval graphs on 150 vertices
(seeds 0..99, integer intervals on [0, 1500] whose lengths stay below 40,
80, 120, 160 or 200 by seed, as certbench's `recognize` draws them). The
other two rows are drawn as that workload draws its hole and asteroidal-
triple slots, from Random(slot): 30 random interval graphs of 100 or 150
vertices with an induced 4..8-cycle hung off one vertex, where the
follower check fails and one path search finds the hole, and 20 with a
centre on three legs of length two, which are chordal and reach the
asteroidal-triple search. Each graph's vertices are then renamed by one
shuffle of Random(0). It imports only the standard library and the
package:

    PYTHONPATH=src python tests/recognizer_stages.py

prints one row per input: the seconds of CPU time of each stage, best of
5, where a stage takes the previous stage's output, and of the whole call.
A stage that an input does not reach reads "-": the hole graphs stop after
the walk, and the asteroidal-triple graphs before the final check. For
the rows of many graphs a time is the sum over them.
"""

import random
import time

from boxlab import Graph, is_interval_graph, path_graph
from boxlab.graphs import bits
from boxlab.intervals import ends_adjacency
from boxlab.recognition import (
    clique_spans,
    consecutive_clique_order,
    lex_bfs_order,
    maximal_cliques_chordal,
    perfect_elimination_order,
)

REPEATS = 5


def band_graph(n: int) -> Graph:
    """The interval graph of [i, i + n/2] for i < n."""
    return Graph.from_adj(ends_adjacency(range(n), [i + n // 2 for i in range(n)]))


def random_interval_graph(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    lo = [rng.randrange(10 * n) for _ in range(n)]
    length = 40 * (1 + seed % 5)
    return Graph.from_adj(ends_adjacency(lo, [a + rng.randrange(length) for a in lo]))


def random_intervals(rng: random.Random, n: int, max_len: int) -> list[tuple[int, int]]:
    """n integer intervals on [0, 10n] with lengths below max_len, each drawn start then length."""
    out = []
    for _ in range(n):
        lo = rng.randrange(10 * n)
        out.append((lo, lo + rng.randrange(max_len)))
    return out


def with_hole(slot: int, n: int, max_len: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """n - h random intervals, and the edges of a hole on h = 4..8 more vertices hung off one of them."""
    rng = random.Random(slot)
    h = rng.randint(4, 8)
    base = n - h
    intervals = random_intervals(rng, base, max_len)
    extra = [(base + i, base + (i + 1) % h) for i in range(h)]
    return intervals, [*extra, (rng.randrange(base), base)]


def with_asteroidal_triple(slot: int, n: int, max_len: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """n - 7 random intervals, and the edges of a centre hung off one of them with three legs of length two."""
    rng = random.Random(slot)
    base = n - 7
    intervals = random_intervals(rng, base, max_len)
    extra = [(rng.randrange(base), base)]
    for leg in range(3):
        a = base + 1 + 2 * leg
        extra += [(base, a), (a, a + 1)]
    return intervals, extra


def planted_graphs(plant, sizes) -> list[Graph]:
    """One graph per slot, with its vertices renamed by a shuffle of Random(0)."""
    rng, out = random.Random(0), []
    for slot, n in enumerate(sizes):
        intervals, extra = plant(slot, n, 40 * (1 + slot % 5))
        rows = [*ends_adjacency(*zip(*intervals)), *[0] * (n - len(intervals))]
        for u, v in extra:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        perm = rng.sample(range(n), n)
        renamed = [0] * n
        for v, row in enumerate(rows):
            renamed[perm[v]] = sum(1 << perm[w] for w in bits(row))
        out.append(Graph.from_adj(renamed))
    return out


def stage_runs(g: Graph) -> dict:
    """By stage that g reaches, a function of no arguments that runs it on g's inputs to it."""
    elim = perfect_elimination_order(g)
    runs = {"lex_bfs": lambda: lex_bfs_order(g), "walk": lambda: perfect_elimination_order(g)}
    if elim.failure is None:
        cliques = maximal_cliques_chordal(elim)
        order = consecutive_clique_order(cliques, elim.order)
        first, last, scattered = clique_spans(cliques, order, g.n)
        runs["cliques"] = lambda: maximal_cliques_chordal(elim)
        runs["order"] = lambda: consecutive_clique_order(cliques, elim.order)
        runs["spans"] = lambda: clique_spans(cliques, order, g.n)
        if not scattered:
            runs["check"] = lambda: ends_adjacency(first, last) == g.adj
    runs["total"] = lambda: is_interval_graph(g)
    return runs


def best_times(graphs: list[Graph]) -> dict:
    """By stage, the least over REPEATS rounds of its CPU time summed over `graphs`."""
    runs = [stage_runs(g) for g in graphs]
    best = dict.fromkeys(runs[0], float("inf"))
    assert all(r.keys() == best.keys() for r in runs), "the graphs of one row reach different stages"
    for _ in range(REPEATS):
        for stage in best:
            t0 = time.process_time()
            for r in runs:
                r[stage]()
            best[stage] = min(best[stage], time.process_time() - t0)
    return best


def main() -> None:
    inputs = {
        "band n=2000": [band_graph(2000)],
        "path n=10000": [path_graph(10_000)],
        "100 random n=150": [random_interval_graph(150, seed) for seed in range(100)],
        "30 hole graphs": planted_graphs(with_hole, (100, 100, 100, 150, 150) * 6),
        "20 AT graphs": planted_graphs(with_asteroidal_triple, (100, 100, 100, 150) * 5),
    }
    stages = ("lex_bfs", "walk", "cliques", "order", "spans", "check", "total")
    print(f"{'input':<18}" + "".join(f"{stage:>9}" for stage in stages))
    for name, graphs in inputs.items():
        best = best_times(graphs)
        print(f"{name:<18}" + "".join(f"{best[s]:>9.4f}" if s in best else f"{'-':>9}" for s in stages))


if __name__ == "__main__":
    main()
