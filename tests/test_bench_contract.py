"""What the certificate benchmark in certbench/ needs from boxlab.

The benchmark reaches boxlab through `cli.run`, builds `Graph(n, edges)`
for `is_interval_graph` and serializes its answer with `rep_to_obj`; with
tracing on, it looks up every function named in `layertrace.LAYERS` by
module and name. Deleting or renaming any of those breaks the benchmark,
so it is pinned here. The benchmark module is loaded from its file and
not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import boxlab
import boxlab.cli

LAYERTRACE = Path(__file__).resolve().parent.parent / "certbench" / "layertrace.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("certbench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    "name", [f"{mod}.{fn}" for mod, fns in _layers().items() for fn in fns]
)
def test_traced_layer_resolves(name):
    mod, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"boxlab.{mod}"), fn))


def test_entry_points_used_by_run_py():
    assert callable(boxlab.cli.run)
    ok, rep = boxlab.is_interval_graph(boxlab.Graph(3, frozenset({(0, 1), (1, 2)})))
    assert ok
    assert set(boxlab.rep_to_obj(rep)) == {"n", "intervals"}
    ok, cert = boxlab.is_interval_graph(boxlab.Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})))
    assert not ok
    assert cert.kind and list(cert.witness)
