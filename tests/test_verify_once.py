"""Every cover is verified exactly once, by the public function that returns it.

`verify_cover` and `graph_of_intervals` are counted at every place the
package binds them, so a second check hidden behind any import is seen.
"""

import json
import sys

import pytest

from boxlab import cycle_graph, intervals, reduced_cover
from boxlab.cli import run

COUNTED = ("verify_cover", "graph_of_intervals")


@pytest.fixture
def calls(monkeypatch):
    counts = dict.fromkeys(COUNTED, 0)
    for name in COUNTED:
        original = getattr(intervals, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "boxlab" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "zdg", "--n", "72"],
        ["cover", "boolean", "--k", "4"],
    ],
    ids=" ".join,
)
def test_join_cover_commands_verify_once(argv, calls, capsys):
    assert run(argv) == 0
    reps = len(json.loads(capsys.readouterr().out)["reps"])
    assert calls == {"verify_cover": 1, "graph_of_intervals": reps}


def test_circular_cover_verifies_once(calls, capsys):
    assert run(["cover", "circular", "--k", "13", "--d", "5"]) == 0
    assert calls["verify_cover"] == 1


def test_reduced_cover_verifies_once(calls):
    cover = reduced_cover(cycle_graph(4))
    assert len(cover) == 2
    assert calls == {"verify_cover": 1, "graph_of_intervals": 2}


def test_circular_sweep_verifies_each_cover_once(calls, capsys):
    assert run(["sweep", "circular", "--dmax", "4", "--kmax", "14"]) == 0
    cases = len(capsys.readouterr().out.strip().splitlines()) - 1
    assert cases == 27
    assert calls["verify_cover"] == cases
