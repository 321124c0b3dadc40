"""Every cover is verified exactly once, by the public function that returns it.

`verify_cover`, `graph_of_intervals`, `interval_adjacency` under both and
the kernel under all three, `ends_adjacency`, are counted at every place
the package binds them, so a second check hidden behind any import is
seen. `verify_cover` runs the kernel once per member and builds no graph.
"""

import json

import pytest

import boxlab.circular
import boxlab.zdg
from boxlab import (
    ConstructionDefectError,
    complete_graph,
    compressed_zn,
    cycle_graph,
    empty_graph,
    graph_to_obj,
    intervals,
    path_graph,
    reduced_cover,
)
from boxlab.circular import chi_cover
from boxlab.cli import run
from boxlab.intervals import IntervalRep, point
from boxlab.zdg import omega_chi_certificate

COUNTED = ("verify_cover", "graph_of_intervals", "interval_adjacency", "ends_adjacency")


@pytest.fixture
def calls(count_calls):
    return count_calls(intervals, COUNTED)


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "zdg", "--n", "72"],
        ["cover", "boolean", "--k", "4"],
        ["cover", "zdg", "--n", "72", "--method", "join"],
        ["cover", "boolean", "--k", "4", "--method", "join"],
    ],
    ids=" ".join,
)
def test_join_cover_commands_verify_once(argv, calls, capsys):
    assert run(argv) == 0
    reps = len(json.loads(capsys.readouterr().out)["reps"])
    assert calls == {"verify_cover": 1, "graph_of_intervals": 0, "interval_adjacency": reps, "ends_adjacency": reps}


def test_join_cover_checks_part_witnesses_only_in_the_lifted_cover(tmp_path, calls, capsys):
    # the c4 part's two oracle reps are checked once, inside the join cover
    argv = ["cover", "join"]
    for flag, g in (("--outer", path_graph(3)), ("--part", cycle_graph(4)),
                    ("--part", complete_graph(2)), ("--part", empty_graph(3))):
        path = tmp_path / f"{len(argv)}.json"
        path.write_text(json.dumps(graph_to_obj(g)))
        argv += [flag, str(path)]
    assert run(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["reps"]) == 4
    assert calls["verify_cover"] == 1


def test_circular_cover_verifies_once(calls, capsys):
    # 3 members, each realized once by verify_cover and nowhere else
    assert run(["cover", "circular", "--k", "13", "--d", "5"]) == 0
    assert calls == {"verify_cover": 1, "graph_of_intervals": 0, "interval_adjacency": 3, "ends_adjacency": 3}


def test_box_witness_is_recognized_and_verified_once(tmp_path, calls, capsys):
    # the two witness reps are the ones their recognitions returned, each
    # checked there by one kernel call on its clique positions against the
    # graph's own bitsets; verify_cover runs the kernel on each once more
    gpath = tmp_path / "c4.json"
    gpath.write_text(json.dumps(graph_to_obj(cycle_graph(4))))
    assert run(["box", "--graph", str(gpath)]) == 0
    assert json.loads(capsys.readouterr().out)["boxicity"] == 2
    assert calls == {"verify_cover": 1, "graph_of_intervals": 0, "interval_adjacency": 2, "ends_adjacency": 4}


def test_reduced_cover_verifies_once(calls):
    cover = reduced_cover(cycle_graph(4))
    assert len(cover) == 2
    assert calls == {"verify_cover": 1, "graph_of_intervals": 0, "interval_adjacency": 2, "ends_adjacency": 2}


def test_reduced_cover_of_the_empty_graph_verifies_once(calls):
    # no class to lift: the one empty member leaves through the same check
    assert reduced_cover(empty_graph(0)).reps == (IntervalRep(()),)
    assert calls == {"verify_cover": 1, "graph_of_intervals": 0, "interval_adjacency": 1, "ends_adjacency": 1}


def test_circular_sweep_verifies_each_cover_once(calls, capsys):
    assert run(["sweep", "circular", "--dmax", "4", "--kmax", "14"]) == 0
    cases = len(capsys.readouterr().out.strip().splitlines()) - 1
    assert cases == 27
    assert calls["verify_cover"] == cases


def test_zdg_sweep_realizes_only_the_verified_members(calls, monkeypatch, capsys):
    # a prime power's explicit rep is its per-prime cover's one member, so
    # no rep is realized outside verify_cover
    members = []
    counted = intervals.verify_cover

    def recording(cover):
        members.append(len(cover))
        return counted(cover)

    monkeypatch.setattr(intervals, "verify_cover", recording)
    assert run(["sweep", "zdg", "--nmax", "100"]) == 0
    # 74 per-prime covers and 64 join covers
    assert calls["verify_cover"] == len(members) == 138
    assert calls["interval_adjacency"] == sum(members) == 368


def test_only_the_checker_and_the_recognizer_import_the_adjacency_kernels(package_imports):
    # every other rep is realized inside verify_cover, where it leaves the library
    def importers(name):
        return [
            module
            for module, names in package_imports.items()
            if any(imported.split(".")[-1] == name for imported in names)
        ]

    assert importers("interval_adjacency") == []
    assert importers("ends_adjacency") == ["recognition.py"]


# The builders below check nothing themselves; these show that the one exit
# check catches what a builder-side check would have.


def test_chi_cover_rejects_a_window_rep_that_misses_an_edge(monkeypatch):
    original = boxlab.circular.step_window_rep

    def far_last_vertex(k, d, r):
        # the last vertex moves far off and loses all its edges
        rep = original(k, d, r)
        return IntervalRep(rep.intervals[:-1] + (point(100),))

    monkeypatch.setattr(boxlab.circular, "step_window_rep", far_last_vertex)
    with pytest.raises(ConstructionDefectError, match="failed verification"):
        chi_cover(7, 2)


def test_omega_chi_certificate_rejects_a_non_adjacent_augmenting_divisor(monkeypatch):
    # 2 * 12 = 24 is not 0 mod 72, so 2 is no neighbour of the nilpotent clique
    monkeypatch.setattr(boxlab.zdg, "augmenting_divisor", lambda f, eta: 2)
    with pytest.raises(ConstructionDefectError, match="not adjacent"):
        omega_chi_certificate(compressed_zn(72))
