#!/usr/bin/env python3
"""Regenerate certbench/refs.json: exact boxicity of the `box` and join pools.

    python3 certbench/make_refs.py

The values come from `checks.boxicity`, a slow search with its own interval
test that shares no code with boxlab. Each entry names the pool seed that
`inputs.py` turns into the graph, so the file holds seeds and values only.
Takes a few minutes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402


def main() -> int:
    started = time.perf_counter()
    box = []
    for s in range(inputs.BOX_POOL_SIZE):
        g = inputs.box_pool_graph(s)
        box.append({"pool_seed": s, "non_edges": len(g.non_edges()), "boxicity": checks.boxicity(g)})
        print(f"box  seed {s:3d}: {box[-1]}", file=sys.stderr)
    join = []
    for s in inputs.join_pool_seeds():
        outer, parts, _ = inputs.join_candidate(s)
        g = checks.join_graph(outer, parts)
        join.append({"pool_seed": s, "vertices": g.n, "boxicity": checks.boxicity(g)})
        print(f"join seed {s:3d}: {join[-1]}", file=sys.stderr)
    lines = ['{"box": ['] + [f"  {json.dumps(e)}," for e in box]
    lines[-1] = lines[-1].rstrip(",")
    lines += ['], "join": ['] + [f"  {json.dumps(e)}," for e in join]
    lines[-1] = lines[-1].rstrip(",")
    (HERE / "refs.json").write_text("\n".join(lines + ["]}", ""]))
    print(f"wrote refs.json in {time.perf_counter() - started:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
