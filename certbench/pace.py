"""Machine-speed calibration for the timings.

The benchmark shares its machine with other work, and the interpreter's
speed drifts by tens of percent over minutes (see README.md). A fixed
pure-Python kernel, built from the same operations as the graph code under
test (sets, lists, frozensets of int pairs, breadth-first search), runs
between every two operations. Each operation's wall time is scaled by
REFERENCE_NS over the median kernel time around it, which reports it in
milliseconds at the reference speed: the speed at which the kernel takes
REFERENCE_NS.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

REFERENCE_NS = 600_000
WINDOW = 4  # kernel samples taken on each side of an operation


def kernel() -> int:
    n = 96
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in ((i * 7 + 1) % n, (i * 13 + 5) % n, (i * 29 + 3) % n):
            if i != j:
                adj[i].add(j)
                adj[j].add(i)
    total = 0
    for s in range(0, n, 6):
        seen = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        total += len(seen)
    edges = frozenset((i, (i * 5 + 2) % n) for i in range(n))
    return total + sum(1 for u, v in sorted(edges) if (u + v) % 3 == 0)


def sample() -> int:
    """Wall time of one kernel run, in ns."""
    t0 = perf_counter_ns()
    kernel()
    return perf_counter_ns() - t0


def scaled(ns: int, kernels: list[int], i: int) -> float:
    """ns of operation i at the reference speed; kernels[i] ran just before it, kernels[i+1] just after."""
    around = kernels[max(0, i + 1 - WINDOW) : i + 1 + WINDOW]
    return ns * REFERENCE_NS / statistics.median(around)
