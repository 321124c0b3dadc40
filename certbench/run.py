#!/usr/bin/env python3
"""Certificate benchmark for boxlab: one workload per run, one process, one thread.

    python3 certbench/run.py --workload ring_cover --seed 1 --seconds 25 --trace 0

Workloads: ring_cover, recognize, small_certs (see certbench/README.md).
The program is reached only through `boxlab.cli.run(argv)` and
`boxlab.is_interval_graph`, imported from `src/` next to this directory.
Each run executes whole rounds of a fixed, seeded list of operations; the
round count depends on --seconds alone, never on how fast the machine is.
Every certificate is checked by `checks.py`, which shares no code with
boxlab. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; --trace 1 reports per-layer metrics
instead of end-to-end ones and writes the spans under certbench/_work/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import pace  # noqa: E402
from layertrace import Tracer  # noqa: E402

WORKLOADS = ("ring_cover", "recognize", "small_certs")
ROUND_SECONDS = 5  # nominal length of one round; rounds = round(--seconds / this)
SETUP_REPEATS = 15


# ---------------------------------------------------------------------------
# the program under test


def load_boxlab():
    """Import boxlab afresh from ROOT/src; anything else on sys.path is refused."""
    for name in [m for m in sys.modules if m == "boxlab" or m.startswith("boxlab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    boxlab = importlib.import_module("boxlab")
    importlib.import_module("boxlab.cli")
    if not Path(boxlab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"boxlab imported from {boxlab.__file__}, not from {SRC}")
    return boxlab


# ---------------------------------------------------------------------------
# operations: run() is the timed call, check() is independent


class CliOp:
    """One `boxlab` command line, run in-process with its output in a file."""

    def __init__(self, kind: str, argv: list[str], out: Path, check):
        self.kind = kind
        self.argv = argv + ["-o", str(out)]
        self.out = out
        self.check = check  # bytes -> (problems, reps)

    def run(self, boxlab):
        self.out.unlink(missing_ok=True)
        err = io.StringIO()
        with redirect_stderr(err):
            t0 = perf_counter_ns()
            rc = boxlab.cli.run(self.argv)
            t1 = perf_counter_ns()
        if rc != 0:
            return rc, t1 - t0, err.getvalue().encode()
        return rc, t1 - t0, self.out.read_bytes()


class RecognizeOp:
    """One `is_interval_graph` call on a freshly built Graph (its adjacency is a cached property)."""

    def __init__(self, kind: str, g: checks.BitGraph):
        self.kind = kind
        self.g = g
        self.n = g.n
        self.edges = frozenset(g.edges())

    def run(self, boxlab):
        graph = boxlab.Graph(self.n, self.edges)
        t0 = perf_counter_ns()
        ok, payload = boxlab.is_interval_graph(graph)
        t1 = perf_counter_ns()
        if ok:
            obj = boxlab.rep_to_obj(payload)
        else:
            obj = {"kind": payload.kind, "witness": list(payload.witness)}
        return 0, t1 - t0, json.dumps(obj, indent=2).encode()

    def check(self, data: bytes):
        obj = json.loads(data)
        if "intervals" in obj:
            if self.kind in ("hole", "at"):
                return [f"{self.kind} graph reported interval"], 1
            if checks.rep_graph(obj) != self.g:
                return ["representation does not realize the graph"], 1
            return [], 1
        if self.kind in ("interval", "path"):
            return [f"{self.kind} graph reported non-interval"], 0
        witness = obj["witness"]
        valid = {
            "chordless-cycle": checks.is_hole,
            "asteroidal-triple": checks.is_asteroidal_triple,
        }.get(obj["kind"])
        if valid is None or not valid(self.g, witness):
            return [f"invalid {obj['kind']} witness {witness}"], 0
        return [], 0


# ---------------------------------------------------------------------------
# certificate checks built on checks.py


def cover_check(g: checks.BitGraph, size_problems):
    """Check a cover of g; size_problems(reps) adds what the cover's size must satisfy."""

    def check(data: bytes):
        obj = json.loads(data)
        reps = len(obj["reps"])
        return checks.cover_problems(obj, g) + size_problems(reps), reps

    return check


def zdg_check(N: int):
    g = checks.zdg_graph(N)
    bound = checks.zn_closed_form_bound(N)
    chi = checks.squarefree_chi(g, N)

    def size_problems(reps: int) -> list[str]:
        out = []
        if reps > bound:
            out.append(f"{reps} reps exceed the closed-form bound {bound}")
        if chi is not None and not chi <= reps <= 2**chi - 2:
            out.append(f"{reps} reps outside the reduced-ring range [{chi}, {2**chi - 2}]")
        return out

    return cover_check(g, size_problems)


def boolean_check(k: int):
    g = checks.boolean_graph(k)
    chi = checks.boolean_chi(g, k)
    return cover_check(g, lambda reps: [] if chi is not None and chi <= reps <= 2**chi - 2
                       else [f"{reps} reps outside the reduced-ring range for chi={chi}"])


def circular_check(k: int, d: int):
    chi = -(-k // d)
    return cover_check(checks.circular_graph(k, d),
                       lambda reps: [] if reps == chi else [f"{reps} reps, chromatic number is {chi}"])


def box_check(g: checks.BitGraph, value: int):
    def check(data: bytes):
        obj = json.loads(data)
        if obj.get("exceeded") or obj.get("boxicity") != value:
            return [f"boxicity {obj.get('boxicity')} but the reference value is {value}"], 0
        problems = checks.cover_problems(obj["cover"], g)
        reps = len(obj["cover"]["reps"])
        if reps != value:
            problems.append(f"witness has {reps} reps for boxicity {value}")
        return problems, reps

    return check


def join_check(outer, parts, skip, oracle: int):
    part_box = [checks.boxicity(p) for p in parts]
    complete = [len(p.edges()) == p.n * (p.n - 1) // 2 for p in parts]
    lower = checks.clique_sum_lower_bound(outer, part_box, complete)
    part_sum = sum(b for i, b in enumerate(part_box) if i not in skip)
    return cover_check(
        checks.join_graph(outer, parts),
        lambda reps: [] if lower <= oracle <= reps <= part_sum else [
            f"sandwich fails: lower {lower}, oracle {oracle}, cover {reps}, part sum {part_sum}"],
    )


# ---------------------------------------------------------------------------
# workloads


def _write_graph(path: Path, g: checks.BitGraph) -> None:
    path.write_text(json.dumps({"n": g.n, "edges": [list(e) for e in g.edges()]}))


def ring_cover_ops(seed: int, tmp: Path) -> list:
    out = tmp / "cover.json"
    ops = []
    for family, value in inputs.ring_commands():
        if family == "zdg":
            ops.append(CliOp("zdg", ["cover", "zdg", "--n", str(value)], out, zdg_check(value)))
        else:
            ops.append(CliOp("boolean", ["cover", "boolean", "--k", str(value)], out, boolean_check(value)))
    return ops


def recognize_ops(seed: int, tmp: Path) -> list:
    return [RecognizeOp(kind, g) for kind, g in inputs.recognize_graphs(seed)]


def load_refs() -> dict:
    return json.loads((HERE / "refs.json").read_text())


def small_certs_ops(seed: int, tmp: Path) -> list:
    rng = random.Random(seed)
    refs = load_refs()
    out = tmp / "cover.json"
    files: dict[str, Path] = {}

    def graph_file(g: checks.BitGraph) -> str:
        """Path of a file holding g; equal graphs share one file, which keeps set-up I/O small."""
        text = json.dumps({"n": g.n, "edges": [list(e) for e in g.edges()]})
        if text not in files:
            files[text] = tmp / f"g{len(files)}.json"
            files[text].write_text(text)
        return str(files[text])

    ops = []
    for k, d in inputs.CIRCULAR_PAIRS:
        argv = ["cover", "circular", "--k", str(k), "--d", str(d)]
        ops.append(CliOp("circular", argv, out, circular_check(k, d)))
    for ref in refs["box"]:
        g = inputs.box_pool_graph(ref["pool_seed"]).relabel(inputs.permutation(rng, inputs.BOX_VERTICES))
        ops.append(CliOp("box", ["box", "--graph", graph_file(g)], out, box_check(g, ref["boxicity"])))
    for ref in refs["join"]:
        outer, parts, skip = inputs.relabeled_join(*inputs.join_candidate(ref["pool_seed"]), rng)
        argv = ["cover", "join", "--outer", graph_file(outer)]
        for p in parts:
            argv += ["--part", graph_file(p)]
        for s in skip:
            argv += ["--skip", str(s)]
        ops.append(CliOp("join", argv, out, join_check(outer, parts, skip, ref["boxicity"])))
    return ops


WORKLOAD_OPS = {"ring_cover": ring_cover_ops, "recognize": recognize_ops, "small_certs": small_certs_ops}


def warm_up_ops(workload: str, tmp: Path) -> list:
    """A few tiny operations of the workload's kinds, run untimed after import."""
    out = tmp / "warm.json"
    ignore = lambda data: ([], 0)  # noqa: E731
    if workload == "ring_cover":
        return [CliOp("zdg", ["cover", "zdg", "--n", "12"], out, ignore),
                CliOp("boolean", ["cover", "boolean", "--k", "3"], out, ignore)]
    if workload == "recognize":
        return [RecognizeOp("path", checks.BitGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))]
    c5 = tmp / "warm_c5.json"
    _write_graph(c5, checks.circular_graph(5, 2))
    k1 = tmp / "warm_k1.json"
    _write_graph(k1, checks.BitGraph(1, [0]))
    return [CliOp("box", ["box", "--graph", str(c5)], out, ignore),
            CliOp("circular", ["cover", "circular", "--k", "5", "--d", "2"], out, ignore),
            CliOp("join", ["cover", "join", "--outer", str(c5)] + ["--part", str(k1)] * 5, out, ignore)]


def setup(workload: str, seed: int, tmp: Path):
    """Import, seeded inputs and temp files, warm-up. Returns (boxlab, shuffled ops)."""
    boxlab = load_boxlab()
    ops = WORKLOAD_OPS[workload](seed, tmp)
    random.Random(seed).shuffle(ops)
    for op in warm_up_ops(workload, tmp):
        rc, _, data = op.run(boxlab)
        if rc != 0:
            raise RuntimeError(f"warm-up {op.kind} exited {rc}: {data.decode(errors='replace')}")
    return boxlab, ops


# ---------------------------------------------------------------------------
# measurement


class Pass:
    """Results of running every round once: times per operation, first-round outputs."""

    def __init__(self, n_ops: int):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.raw_ns: list[list[int]] = [[] for _ in range(n_ops)]
        self.scaled_ns: list[list[float]] = [[] for _ in range(n_ops)]
        self.digests: list[str | None] = [None] * n_ops
        self.bytes = 0
        self.reps = 0
        self.kernels: list[int] = []

    def times(self, ops: list, scaled: bool = True) -> list[tuple[str, float]]:
        """(kind, ns) per operation that succeeded: median over rounds of its scaled
        time, or its fastest raw time."""
        if scaled:
            return [(op.kind, statistics.median(t)) for op, t in zip(ops, self.scaled_ns) if t]
        return [(op.kind, min(t)) for op, t in zip(ops, self.raw_ns) if t]


def run_pass(boxlab, ops: list, rounds: int, after_first_round=None) -> Pass:
    """Run the op list `rounds` times; check the first outputs, then require identical bytes.

    A calibration kernel runs before the first operation and after each one.
    """
    res = Pass(len(ops))
    for r in range(rounds):
        if r == 1 and after_first_round:
            after_first_round()
        kernels = [pace.sample()]
        timed: list[tuple[int, int]] = []
        for i, op in enumerate(ops):
            gc.collect()  # the checker's garbage is not billed to the next call
            res.attempted += 1
            try:
                rc, ns, data = op.run(boxlab)
            except Exception as exc:  # a crash counts as a failed operation
                rc, ns, data = -1, 0, repr(exc).encode()
            kernels.append(pace.sample())
            label = f"{op.kind} {' '.join(getattr(op, 'argv', [])[:-2])}"
            if rc != 0:
                res.failed += 1
                res.problems.append(f"{label}: exit {rc}: {data[-300:]!r}")
                continue
            timed.append((i, ns))
            digest = hashlib.sha256(data).hexdigest()
            if res.digests[i] is None:
                res.digests[i] = digest
                res.bytes += len(data)
                problems, reps = op.check(data)
                res.reps += reps
                res.problems.extend(f"{label}: {p}" for p in problems)
            elif digest != res.digests[i]:
                res.problems.append(f"{label}: output changed in round {r}")
        res.kernels += kernels
        for i, ns in timed:
            res.raw_ns[i].append(ns)
            res.scaled_ns[i].append(pace.scaled(ns, kernels, i))
    return res


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(res: Pass, ops: list, setup_s: float) -> dict:
    ms = [ns / 1e6 for _, ns in res.times(ops)]
    return {
        "certs_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "cert_p50_ms": (statistics.median(ms), "ms"),
        "cert_p90_ms": (quantile(ms, 0.90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cert_kb": (res.bytes / 1024, "KB"),
        "cover_reps": (res.reps, "reps"),
    }


def summary(res: Pass, ops: list, label: str) -> None:
    print(f"{label}: {res.attempted} attempted, {res.failed} failed, {len(res.problems)} problems",
          file=sys.stderr)
    for scaled in (True, False):
        by_kind: dict[str, list[float]] = {}
        for kind, ns in res.times(ops, scaled):
            by_kind.setdefault(kind, []).append(ns)
        print("  scaled (median over rounds):" if scaled else "  raw wall time (fastest round):",
              file=sys.stderr)
        for kind, ns in sorted(by_kind.items()):
            print(f"    {kind:<9} n={len(ns):4d}  sum={sum(ns) / 1e9:8.3f}s  "
                  f"p50={statistics.median(ns) / 1e6:9.3f}ms", file=sys.stderr)
        every = [ns for v in by_kind.values() for ns in v]
        if every:
            print(f"    certs/s={len(every) / (sum(every) / 1e9):.3f}", file=sys.stderr)
    for p in res.problems[:20]:
        print(f"  PROBLEM {p}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5 * ROUND_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    rounds = max(1, round(args.seconds / ROUND_SECONDS))

    WORK.mkdir(exist_ok=True)
    tmp_dirs: list[Path] = []
    try:
        kernels, setup_ns = [pace.sample() for _ in range(3)], []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter_ns()
            tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
            tmp_dirs.append(tmp)
            boxlab, ops = setup(args.workload, args.seed, tmp)
            setup_ns.append(perf_counter_ns() - t0)
            kernels += [pace.sample() for _ in range(3)]
        # one speed for the whole set-up phase: a set-up is short next to the drift
        setup_s = statistics.median(setup_ns) * pace.REFERENCE_NS / statistics.median(kernels) / 1e9
        gc.freeze()  # inputs and checkers live to the end; keep them out of collections

        plain = run_pass(boxlab, ops, rounds)
        summary(plain, ops, f"{args.workload} seed={args.seed} rounds={rounds}")
        correct = not plain.problems
        attempted, failed = plain.attempted, plain.failed
        if not args.trace:
            metrics = end_to_end(plain, ops, setup_s)
        else:
            tracer = Tracer()
            tracer.install()
            try:
                # spans are kept for the first round; counts and times cover all
                traced = run_pass(boxlab, ops, rounds, lambda: setattr(tracer, "record", False))
            finally:
                tracer.uninstall()
            summary(traced, ops, "traced")
            attempted += traced.attempted
            failed += traced.failed
            identical = traced.digests == plain.digests
            if not identical:
                print("traced certificates differ from untraced ones", file=sys.stderr)
            correct = correct and not traced.problems and identical
            certs = sum(d is not None for d in traced.digests)
            metrics = tracer.metrics(certs, rounds, pace.REFERENCE_NS / statistics.median(traced.kernels))
            plain_ns = sum(ns for _, ns in plain.times(ops))
            traced_ns = sum(ns for _, ns in traced.times(ops))
            metrics["trace.overhead_pct"] = (100 * (traced_ns / plain_ns - 1), "%")
            tracer.write(str(WORK / f"trace-{args.workload}-seed{args.seed}"))
    finally:
        for tmp in tmp_dirs:
            shutil.rmtree(tmp, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"certbench: cannot import boxlab from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
