"""CPU time of each stage of `is_interval_graph` on three fixed inputs.

The inputs are the band graph (intervals [i, i + n/2] at n = 2000, about
1.5M edges and 1000 maximal cliques of about 1000 vertices), the path on
10 000 vertices, and 100 random interval graphs on 150 vertices (seeds
0..99, integer intervals on [0, 1500] whose lengths stay below 40, 80, 120,
160 or 200 by seed, as certbench's `recognize` draws them). All are
interval graphs, so the asteroidal-triple search never runs. It imports
only the standard library and the package:

    PYTHONPATH=src python tests/recognizer_stages.py

prints one row per input: the seconds of CPU time of each stage, best of
5, where a stage takes the previous stage's output, and of the whole call.
For the random graphs a time is the sum over the 100 graphs.
"""

import random
import time

from boxlab import Graph, is_interval_graph, path_graph
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


def stage_runs(g: Graph) -> dict:
    """By stage, a function of no arguments that runs it on g's inputs to it."""
    elim = perfect_elimination_order(g)
    cliques = maximal_cliques_chordal(elim)
    order = consecutive_clique_order(cliques, elim.order)
    first, last, _ = clique_spans(cliques, order, g.n)
    return {
        "lex_bfs": lambda: lex_bfs_order(g),
        "walk": lambda: perfect_elimination_order(g),
        "cliques": lambda: maximal_cliques_chordal(elim),
        "order": lambda: consecutive_clique_order(cliques, elim.order),
        "spans": lambda: clique_spans(cliques, order, g.n),
        "check": lambda: ends_adjacency(first, last) == g.adj,
        "total": lambda: is_interval_graph(g),
    }


def best_times(graphs: list[Graph]) -> dict:
    """By stage, the least over REPEATS rounds of its CPU time summed over `graphs`."""
    runs = [stage_runs(g) for g in graphs]
    best = dict.fromkeys(runs[0], float("inf"))
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
    }
    header = None
    for name, graphs in inputs.items():
        best = best_times(graphs)
        if header is None:
            header = f"{'input':<18}" + "".join(f"{stage:>9}" for stage in best)
            print(header)
        print(f"{name:<18}" + "".join(f"{t:>9.4f}" for t in best.values()))


if __name__ == "__main__":
    main()
