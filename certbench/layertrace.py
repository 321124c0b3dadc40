"""Per-layer tracing from outside the program.

`Tracer.install` replaces every attribute of every loaded `boxlab` module
that is bound to a traced function with a timing wrapper, so calls through
`from .intervals import verify_cover` style names are caught as well as
calls inside the defining module. `uninstall` puts the originals back.

Every call adds to per-function counts and times. While `record` is set,
it also records a span (function id, parent span, start ns, end ns) in a
flat int64 array held in memory; `write` dumps it at the end of the run.
Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns

LAYERS = {
    "cli": ("run",),
    "zdg": ("zdg_zn", "compressed_zn", "zn_join_cover", "boolean_ring_graph", "reduced_ring_box_bounds"),
    "joins": ("make_plan", "skip_join_cover"),
    "intervals": ("verify_cover", "graph_of_intervals"),
    "graphs": ("make_graph", "generalized_join", "edge_intersection"),
    "recognition": (
        "is_interval_graph",
        "lex_bfs_order",
        "perfect_elimination_order",
        "find_asteroidal_triple",
        "find_chordless_cycle",
        "maximal_cliques_chordal",
        "consecutive_clique_order",
    ),
    "solvers": ("maximal_cliques", "clique_number_exact", "chromatic_number_exact"),
    "boxicity": ("boxicity_exact",),
    "circular": ("chi_cover", "step_window_rep", "block_window_rep"),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# traced, but reached by no CLI command (only joins.clique_sum_lower_bound
# calls it), so it is left out of the reported metrics
UNREPORTED = ("solvers.maximal_cliques",)

SPAN_FIELDS = ("name_id", "parent", "start_ns", "end_ns")


class Tracer:
    """Per-function counts, times and spans for the functions in NAMES."""

    def __init__(self):
        n = len(NAMES)
        self.calls = [0] * n
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        self.spans = array("q")
        self.record = True
        self.stack: list[list[int]] = []  # [span index, child ns]
        self.interval_vertices = 0
        self.candidates = 0
        self.candidate_hits = 0
        self._box_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn):
        calls, total, self_ns, spans, stack = self.calls, self.total_ns, self.self_ns, self.spans, self.stack
        name = NAMES[fid]
        is_box = name == "boxicity.boxicity_exact"
        is_recog = name == "recognition.is_interval_graph"
        is_goi = name == "intervals.graph_of_intervals"

        def traced(*args, **kwargs):
            idx = -1
            if self.record:
                idx = len(spans) // 4
                spans.extend((fid, stack[-1][0] if stack else -1, 0, 0))
            frame = [idx, 0]
            stack.append(frame)
            if is_box:
                self._box_depth += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if is_box:
                    self._box_depth -= 1
                dur = end - start
                if idx >= 0:
                    spans[4 * idx + 2] = start
                    spans[4 * idx + 3] = end
                calls[fid] += 1
                total[fid] += dur
                self_ns[fid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if is_recog and self._box_depth:
                self.candidates += 1
                self.candidate_hits += bool(result[0])
            if is_goi:
                self.interval_vertices += args[0].n
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        originals = {}
        for fid, name in enumerate(NAMES):
            mod, fn = name.split(".")
            originals[id(getattr(sys.modules[f"boxlab.{mod}"], fn))] = fid
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "boxlab" and not modname.startswith("boxlab."):
                continue
            for attr, value in list(vars(module).items()):
                fid = originals.get(id(value))
                if fid is None:
                    continue
                if fid not in wrappers:
                    wrappers[fid] = self._wrap(fid, value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[fid])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def metrics(self, certs: int, rounds: int, scale: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per round of the workload.

        `certs` is the certificates of one round; times are multiplied by
        `scale`, which brings them to the calibration's reference speed.
        """
        out: dict[str, tuple[float, str]] = {}
        for fid, name in enumerate(NAMES):
            if name in UNREPORTED:
                continue
            out[f"{name}.calls"] = (self.calls[fid] / rounds, "count")
            out[f"{name}.total_s"] = (self.total_ns[fid] * scale / 1e9 / rounds, "s")
            out[f"{name}.self_s"] = (self.self_ns[fid] * scale / 1e9 / rounds, "s")
        verify = self.calls[NAMES.index("intervals.verify_cover")] / rounds
        out["intervals.graph_of_intervals.vertices"] = (self.interval_vertices / rounds, "count")
        out["intervals.verify_cover.per_cert"] = (verify / certs if certs else 0.0, "ratio")
        out["boxicity.candidates"] = (self.candidates / rounds, "count")
        out["boxicity.hit_ratio"] = (
            self.candidate_hits / self.candidates if self.candidates else 0.0,
            "ratio",
        )
        return out

    def write(self, path_stem: str) -> None:
        """Spans to <stem>.spans (native int64, 4 per span); names and layout to <stem>.json."""
        with open(path_stem + ".spans", "wb") as fh:
            self.spans.tofile(fh)
        with open(path_stem + ".json", "w") as fh:
            json.dump(
                {
                    "names": list(NAMES),
                    "fields": list(SPAN_FIELDS),
                    "spans": len(self.spans) // 4,
                    "itemsize": self.spans.itemsize,
                    "byteorder": sys.byteorder,
                },
                fh,
                indent=2,
            )
