import argparse
import json
import math
import os
import subprocess
import sys
from itertools import combinations, count, islice
from pathlib import Path

import pytest

import boxlab.circular
import boxlab.cli
import boxlab.graphs
import boxlab.intervals
import boxlab.joins
import boxlab.recognition
import boxlab.zdg
from boxlab import (
    ConstructionDefectError,
    chi_cover,
    complete_graph,
    complete_multipartite,
    cover_from_obj,
    cover_to_obj,
    cycle_graph,
    empty_graph,
    graph_to_obj,
    make_graph,
    path_graph,
    verify_cover,
)
from boxlab.cli import run
from boxlab.graphs import COVER_ENTRY_BUDGET, EDGE_BUDGET, VERIFY_MAX_N
from boxlab.intervals import VIOLATION_LIMIT, CoverViolation
from boxlab.zdg import COMPRESSED_MAX_N
from oracles import verify_cover as oracle_verify_cover


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_circular(capsys):
    code, out, _ = run_capture(capsys, ["gen", "circular", "--k", "5", "--d", "2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 5
    assert obj["edges"] == [[0, 2], [0, 3], [1, 3], [1, 4], [2, 4]]


def test_gen_zdg_labels(capsys):
    code, out, _ = run_capture(capsys, ["gen", "zdg", "--n", "12"])
    assert code == 0
    obj = json.loads(out)
    assert obj["labels"] == [2, 3, 4, 6, 8, 9, 10]


def test_gen_zdg_compressed(capsys):
    code, out, _ = run_capture(capsys, ["gen", "zdg", "--n", "12", "--compressed"])
    assert code == 0
    obj = json.loads(out)
    assert obj["labels"] == [2, 3, 4, 6]
    assert obj["class_size"] == [2, 2, 2, 1]


def test_cover_circular_then_verify(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    cpath = tmp_path / "c.json"
    code, _, err = run_capture(
        capsys, ["cover", "circular", "--k", "7", "--d", "2", "-o", str(cpath)]
    )
    assert code == 0
    assert "size 4" in err
    code, _, _ = run_capture(capsys, ["gen", "circular", "--k", "7", "--d", "2", "-o", str(gpath)])
    assert code == 0
    code, out, _ = run_capture(capsys, ["verify", "--graph", str(gpath), "--cover", str(cpath)])
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_rejects_overcover(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    cpath = tmp_path / "c.json"
    gpath.write_text(json.dumps(graph_to_obj(cycle_graph(4))))
    # one K4 representation claiming C4
    cover_obj = {
        "graph": graph_to_obj(cycle_graph(4)),
        "reps": [
            {
                "n": 4,
                "intervals": {
                    str(v): [[0, 1], [1, 1]] for v in range(4)
                },
            }
        ],
    }
    cpath.write_text(json.dumps(cover_obj))
    code, out, err = run_capture(capsys, ["verify", "--graph", str(gpath), "--cover", str(cpath)])
    assert code == 1
    payload = json.loads(out)
    assert payload["verified"] is False
    assert any("uncovered-non-edge" in v for v in payload["violations"])
    assert "(0, 2)" in err


SRC = str(Path(boxlab.cli.__file__).parents[1])


@pytest.mark.parametrize("module", ["boxlab", "boxlab.cli"])
def test_python_m_exits_as_run(module, tmp_path, capsys):
    # from a fresh interpreter, a cover that fails its check exits 1 and a
    # generator prints the bytes run() prints
    bad = _verify_files(tmp_path, graph_to_obj(path_graph(3)), {str(v): [[0, 1], [0, 1]] for v in range(3)})
    for argv, expected in ((bad, 1), (["gen", "zdg", "--n", "6"], 0)):
        code, out, _ = run_capture(capsys, argv)
        assert code == expected
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC}, cwd=tmp_path,
        )
        assert (proc.returncode, proc.stdout) == (code, out)


def _verify_files(tmp_path, graph_obj, intervals):
    gpath = tmp_path / "g.json"
    cpath = tmp_path / "c.json"
    gpath.write_text(json.dumps(graph_obj))
    rep = {"n": graph_obj["n"], "intervals": intervals}
    cpath.write_text(json.dumps({"graph": graph_obj, "reps": [rep]}))
    return ["verify", "--graph", str(gpath), "--cover", str(cpath)]


def test_verify_lists_at_most_the_violation_limit(tmp_path, capsys):
    # one member puts all 300 vertices of an edgeless graph on [0, 1]: 44 850 non-edges
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    gpath.write_text(json.dumps(graph_to_obj(empty_graph(300))))
    member = {"n": 300, "intervals": {str(v): [[0, 1], [1, 1]] for v in range(300)}}
    cpath.write_text(json.dumps({"graph": graph_to_obj(empty_graph(300)), "reps": [member]}))
    code, out, err = run_capture(capsys, ["verify", "--graph", str(gpath), "--cover", str(cpath)])
    assert code == 1
    violations = json.loads(out)["violations"]
    assert len(violations) == VIOLATION_LIMIT
    assert violations[0] == "uncovered-non-edge at intersection: (0, 1)"
    assert err.splitlines() == violations + [
        f"the list stops at the limit of {VIOLATION_LIMIT} violations"
    ]


def test_verify_rejects_fractional_endpoint(tmp_path, capsys):
    # as written, [3/2, 2] misses [0, 1]; truncating 1.5 to 1 would make them touch
    argv = _verify_files(
        tmp_path, {"n": 2, "edges": [[0, 1]]}, {"0": [[0, 1], [1, 1]], "1": [[1.5, 1], [2, 1]]}
    )
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert "1.5" in err


def test_verify_rejects_fractional_edge_endpoint(tmp_path, capsys):
    argv = _verify_files(
        tmp_path, {"n": 2, "edges": [[0, 1.9]]}, {"0": [[0, 1], [1, 1]], "1": [[1, 1], [2, 1]]}
    )
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert "1.9" in err


def test_verify_rejects_intervals_that_are_not_an_object(tmp_path, capsys):
    argv = _verify_files(tmp_path, {"n": 2, "edges": [[0, 1]]}, [1, 2])
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert "intervals" in err


def test_verify_rejects_a_cover_that_embeds_another_graph(tmp_path, capsys):
    # the one member realizes the path 0-1-2 given as --graph, but the cover
    # embeds the graph with the edge 0-1 alone
    path = {"n": 3, "edges": [[0, 1], [1, 2]]}
    argv = _verify_files(tmp_path, path, {str(v): [[v, 1], [v + 1, 1]] for v in range(3)})
    cpath = tmp_path / "c.json"
    cover_obj = json.loads(cpath.read_text())
    cover_obj["graph"] = {"n": 3, "edges": [[0, 1]]}
    cpath.write_text(json.dumps(cover_obj))
    code, out, err = run_capture(capsys, argv)
    assert code == 1
    assert json.loads(out) == {"verified": False, "violations": ["embedded graph differs from --graph"]}
    assert err == "embedded graph differs from --graph\n"


@pytest.mark.parametrize("keys", [("0", "1", "+1"), ("0", "+1", "1")], ids="-".join)
def test_verify_rejects_two_keys_for_one_vertex(keys, tmp_path, capsys):
    # two keys name vertex 1, once at [0, 1] (touching vertex 0) and once at
    # [5, 6]; the verdict would hang on key order, so both orders are refused
    spots = ([[0, 1], [1, 1]], [[0, 1], [1, 1]], [[5, 1], [6, 1]])
    argv = _verify_files(tmp_path, {"n": 2, "edges": []}, dict(zip(keys, spots)))
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert "'+1'" in err


def _first_primes(count):
    sieve = bytearray([1]) * 250_000  # the 20 000th prime is 224 737
    sieve[:2] = b"\0\0"
    for p in range(2, 500):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, len(sieve), p)))
    primes = [p for p, is_prime in enumerate(sieve) if is_prime]
    assert len(primes) >= count
    return primes[:count]


@pytest.mark.parametrize("edges", [[], [[0, 1]]], ids=["edgeless", "one-edge"])
def test_verify_survives_a_prime_denominator_per_vertex(edges, tmp_path, capsys):
    # vertex v sits at 1/p_v for the v-th prime, so a common denominator
    # would have about 15 * n bits; the check sorts the Fractions instead
    n = 20_000
    intervals = {str(v): [[1, p], [1, p]] for v, p in enumerate(_first_primes(n))}
    argv = _verify_files(tmp_path, {"n": n, "edges": edges}, intervals)
    code, out, _ = run_capture(capsys, argv)
    cover = cover_from_obj(json.loads((tmp_path / "c.json").read_text()))
    ok, violations = oracle_verify_cover(cover)
    assert (code, ok) == ((0, True) if not edges else (1, False))
    assert json.loads(out)["violations"] == [str(v) for v in violations]


def test_verify_refuses_a_graph_over_its_vertex_limit(tmp_path, capsys):
    n = VERIFY_MAX_N + 1
    argv = _verify_files(tmp_path, {"n": n, "edges": []}, {str(v): [[v, 1], [v, 1]] for v in range(n)})
    code, out, err = run_capture(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("budget exceeded: ") and err.count("\n") == 1


def test_a_graph_file_over_the_vertex_limit_exits_3_before_building(tmp_path, monkeypatch, capsys):
    # a graph's bitsets can take n^2/8 bytes, and n alone sizes their tuple
    monkeypatch.setattr(boxlab.graphs, "make_graph", _refuse("make_graph"))
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 10**9, "edges": []}))
    for argv in (["box", "--graph", str(path)], ["cover", "join", "--outer", str(path), "--part", str(path)]):
        code, out, err = run_capture(capsys, argv)
        assert code == 3 and out == ""
        assert f"the graph has {10**9} vertices, the check's limit is {VERIFY_MAX_N}" in err


MALFORMED_JSON = {
    "long-integer": b"1" * 4301,  # over Python's int-from-string digit limit
    "deep-nesting": b"[" * 200_000,
    "bad-utf8": b"\xff",
}


@pytest.mark.parametrize("verb", ["box", "verify"])
@pytest.mark.parametrize("kind", list(MALFORMED_JSON))
def test_malformed_json_file_is_input_error(kind, verb, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(MALFORMED_JSON[kind])
    if verb == "box":
        argv = ["box", "--graph", str(bad)]
    else:
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"n": 1, "edges": []}))
        argv = ["verify", "--graph", str(graph), "--cover", str(bad)]
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: cannot read {bad}")


def test_uncaught_error_is_one_line_exit_1(monkeypatch, tmp_path, capsys):
    cases = [
        (RuntimeError("boom"), "internal error: RuntimeError: boom\n"),
        # a witness follows on a line of its own, as JSON; a value JSON cannot
        # hold is written as its str
        (
            ConstructionDefectError("rep misses an edge", (0, 1)),
            'construction defect: rep misses an edge\n{"witness": [0, 1]}\n',
        ),
        (
            ConstructionDefectError("cover failed", CoverViolation("missing-edge", 1, (0, 4))),
            'construction defect: cover failed\n{"witness": "missing-edge at rep 1: (0, 4)"}\n',
        ),
        (ConstructionDefectError("lost its trail"), "construction defect: lost its trail\n"),
    ]
    for exc, line in cases:

        def crash(k, d):
            raise exc

        monkeypatch.setattr(boxlab.cli, "chi_cover", crash)
        cpath = tmp_path / "c.json"
        code, out, err = run_capture(capsys, ["cover", "circular", "--k", "7", "--d", "2", "-o", str(cpath)])
        assert code == 1
        assert out == ""
        assert err == line
        assert not cpath.exists()


def test_recognizer_defect_witness_is_the_scattered_vertices(monkeypatch, tmp_path, capsys):
    # the net with a path hung off a pendant, 2000 vertices: the whole graph
    # as the witness would write every edge on the line
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5), (3, 6)]
    g = make_graph(2000, edges + [(v, v + 1) for v in range(6, 1999)])
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(graph_to_obj(g)))
    monkeypatch.setenv("BOXLAB_BUDGET", "3000")
    monkeypatch.setattr(boxlab.recognition, "find_asteroidal_triple", lambda g, first, last, within: None)
    code, out, err = run_capture(capsys, ["box", "--graph", str(gpath)])
    assert (code, out) == (1, "")
    message, witness = err.splitlines()
    assert message == "construction defect: no consecutive clique order and no asteroidal triple"
    scattered = json.loads(witness)["witness"]
    assert scattered and scattered == sorted(set(scattered)) and set(scattered) <= set(range(6))
    assert len(witness) < 200


def test_box_command(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(graph_to_obj(cycle_graph(4))))
    code, out, _ = run_capture(capsys, ["box", "--graph", str(gpath), "--max", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["boxicity"] == 2
    assert payload["cover"]["graph"]["n"] == 4


def test_box_exceeded(tmp_path, capsys):
    from boxlab import complete_multipartite

    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(graph_to_obj(complete_multipartite([2, 2, 2]))))
    code, out, _ = run_capture(capsys, ["box", "--graph", str(gpath), "--max", "2"])
    assert code == 0
    assert json.loads(out)["exceeded"] is True


def test_box_budget_exit(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(graph_to_obj(cycle_graph(11))))
    code, _, err = run_capture(capsys, ["box", "--graph", str(gpath), "--max", "3"])
    assert code == 3
    assert "budget" in err


def test_zdg_report(capsys):
    code, out, _ = run_capture(capsys, ["zdg", "report", "--n", "72"])
    assert code == 0
    payload = json.loads(out)
    assert payload["omega_chi"] == 4
    assert payload["box_upper"] == 7
    assert payload["box_one"] is False


def test_zdg_report_prime(capsys):
    code, out, err = run_capture(capsys, ["zdg", "report", "--n", "13"])
    assert code == 0
    assert json.loads(out)["boxicity"] == 0
    assert "convention" in err


def test_cover_join(tmp_path, capsys):
    outer = tmp_path / "outer.json"
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    outer.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    p1.write_text(json.dumps({"n": 2, "edges": []}))
    p2.write_text(json.dumps({"n": 2, "edges": []}))
    code, out, _ = run_capture(
        capsys,
        ["cover", "join", "--outer", str(outer), "--part", str(p1), "--part", str(p2)],
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reps"]) == 2


@pytest.mark.parametrize(
    "parts, skip, code, members, n",
    [
        # an empty part has boxicity 0 and adds no member: the join is K2
        ([0, 2], [], 0, 1, 2),
        # no vertex at all: the one empty member
        ([0, 0], [], 0, 1, 0),
        # the skipped K2 and an empty part: the join is K2, one shared interval
        ([2, 0], [0], 0, 1, 2),
        ([2, 2], [0, 1], 2, None, None),
    ],
    ids=["empty-and-k2", "two-empty", "skipped-and-empty", "all-skipped"],
)
def test_cover_join_with_empty_parts(parts, skip, code, members, n, tmp_path, capsys):
    argv = ["cover", "join", "--outer", str(tmp_path / "outer.json")]
    (tmp_path / "outer.json").write_text(json.dumps(graph_to_obj(complete_graph(2))))
    for i, size in enumerate(parts):
        path = tmp_path / f"p{i}.json"
        path.write_text(json.dumps(graph_to_obj(complete_graph(size))))
        argv += ["--part", str(path)]
    for s in skip:
        argv += ["--skip", str(s)]
    got, out, err = run_capture(capsys, argv)
    assert got == code
    if code:
        assert out == "" and err == "input error: at least one part must not be skipped\n"
    else:
        payload = json.loads(out)
        assert (len(payload["reps"]), payload["graph"]["n"]) == (members, n)
        assert verify_cover(cover_from_obj(payload))[0]


def test_cover_boolean_claims_no_lower_bound(capsys):
    # box(Gamma(F_2^3)) = 2 < 3, so no lower bound k may be printed
    code, out, err = run_capture(capsys, ["cover", "boolean", "--k", "3", "--method", "join"])
    assert code == 0
    assert err == "cover of size 6 verified\n"
    assert "lower" not in err and "claimed" not in err
    assert len(json.loads(out)["reps"]) == 6


def test_cover_boolean_default_claims_no_lower_bound(capsys):
    code, out, err = run_capture(capsys, ["cover", "boolean", "--k", "3"])
    assert code == 0
    assert err == "cover of size 3 verified\n"
    assert "lower" not in err and "claimed" not in err
    assert len(json.loads(out)["reps"]) == 3


def test_boolean_ring_k7_needs_no_solver(capsys):
    code, out, _ = run_capture(capsys, ["gen", "boolean", "--k", "7"])
    assert code == 0
    assert json.loads(out)["n"] == 126
    code, out, _ = run_capture(capsys, ["cover", "boolean", "--k", "7", "--method", "join"])
    assert code == 0
    cover = cover_from_obj(json.loads(out))
    assert len(cover) == 126
    assert verify_cover(cover)[0]


def test_boolean_ring_k7_default_cover_has_k_members(capsys):
    code, out, _ = run_capture(capsys, ["cover", "boolean", "--k", "7"])
    assert code == 0
    cover = cover_from_obj(json.loads(out))
    assert cover.claimed_graph.n == 126
    assert len(cover) == 7
    assert verify_cover(cover)[0]


@pytest.mark.parametrize("n", [4, 9, 25, 49, 121])
def test_cover_zdg_prime_square(n, capsys):
    # one complete class: the default emits its one member, and the join,
    # with nothing to lift, its one shared member
    for method in ("prime", "join"):
        code, out, err = run_capture(capsys, ["cover", "zdg", "--n", str(n), "--method", method])
        assert code == 0
        cover = cover_from_obj(json.loads(out))
        assert len(cover) == 1 and verify_cover(cover)[0]
        assert cover.claimed_graph == complete_graph(math.isqrt(n) - 1)
        assert err == f"cover of size 1 for the zero-divisor graph of {n} verified\n"


def test_boolean_ring_above_cap_exits_3_before_building(monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("the ring graph was built")

    monkeypatch.setattr(boxlab.graphs.Graph, "from_adj", no_build)
    for verb in ("gen", "cover"):
        code, _, err = run_capture(capsys, [verb, "boolean", "--k", "9"])
        assert code == 3
        assert "budget" in err


def test_sweep_circular(capsys):
    code, out, err = run_capture(capsys, ["sweep", "circular", "--dmax", "2", "--kmax", "8"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("k\td")
    assert len(lines) == 1 + 5  # k in 4..8 for d = 2
    assert all(line.endswith("PASS") for line in lines[1:])
    assert err == "5 cases, 0 failures\n"


def test_sweep_circular_walks_d_only_while_a_row_can_exist(capsys):
    # every d above kmax // 2 has no k in 2d..kmax; a walk over them would not end
    huge = run_capture(capsys, ["sweep", "circular", "--dmax", "1000000000000", "--kmax", "14"])
    assert huge == run_capture(capsys, ["sweep", "circular", "--dmax", "7", "--kmax", "14"])
    assert huge[0] == 0 and huge[2] == "36 cases, 0 failures\n"


def test_sweep_zdg(capsys):
    code, out, err = run_capture(capsys, ["sweep", "zdg", "--nmax", "20"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.endswith("PASS") for line in lines[1:])
    assert err == "11 composite cases, 0 failures\n"


def test_sweep_circular_reports_defect_as_failed_row(monkeypatch, capsys):
    chi_cover = boxlab.cli.chi_cover

    def broken_at_7_2(k, d):
        if (k, d) == (7, 2):
            raise ConstructionDefectError("broken for the test", (k, d))
        return chi_cover(k, d)

    monkeypatch.setattr(boxlab.cli, "chi_cover", broken_at_7_2)
    code, out, err = run_capture(capsys, ["sweep", "circular", "--dmax", "2", "--kmax", "8"])
    assert code == 1
    rows = {tuple(line.split("\t")[:2]): line for line in out.strip().splitlines()[1:]}
    assert len(rows) == 5
    assert rows["7", "2"].endswith("FAIL (broken for the test)")
    assert all(line.endswith("PASS") for kd, line in rows.items() if kd != ("7", "2"))
    assert err == "5 cases, 1 failures\n"


def test_sweep_zdg_reports_defect_as_failed_cell(monkeypatch, capsys):
    zn_join_cover = boxlab.cli.zn_join_cover

    def broken_at_12(c):
        if c.N == 12:
            raise ConstructionDefectError("broken for the test", c.N)
        return zn_join_cover(c)

    monkeypatch.setattr(boxlab.cli, "zn_join_cover", broken_at_12)
    code, out, err = run_capture(capsys, ["sweep", "zdg", "--nmax", "20"])
    assert code == 1
    header, *lines = out.strip().splitlines()
    rows = {line.split("\t")[0]: dict(zip(header.split("\t"), line.split("\t"))) for line in lines}
    assert rows["12"]["cover"] == "FAIL"
    assert rows["12"]["status"] == "FAIL"
    assert all(row["status"] == "PASS" for n, row in rows.items() if n != "12")
    assert err == "11 composite cases, 1 failures\n"


def test_sweep_zdg_reads_a_prime_power_rep_from_its_per_prime_cover(monkeypatch, capsys):
    zn_prime_cover = boxlab.cli.zn_prime_cover

    def broken_at_8_and_12(c):
        if c.N in (8, 12):
            raise ConstructionDefectError("broken for the test", c.N)
        return zn_prime_cover(c)

    monkeypatch.setattr(boxlab.cli, "zn_prime_cover", broken_at_8_and_12)
    code, out, err = run_capture(capsys, ["sweep", "zdg", "--nmax", "20"])
    assert code == 1
    header, *lines = out.strip().splitlines()
    rows = {line.split("\t")[0]: dict(zip(header.split("\t"), line.split("\t"))) for line in lines}
    # 8 = 2^3 has no rep but the cover's one member
    assert rows["8"]["pp_rep"] == rows["8"]["prime"] == "FAIL"
    assert rows["12"]["prime"] == "FAIL" and rows["12"]["pp_rep"] == "-"
    assert all(row["status"] == "PASS" for n, row in rows.items() if n not in ("8", "12"))
    assert err == "11 composite cases, 2 failures\n"


def test_input_error_exit_codes(tmp_path, capsys):
    code, _, _ = run_capture(capsys, ["gen", "circular", "--k", "3", "--d", "2"])
    assert code == 2
    # an output path that cannot be written is refused as an unreadable input file is
    for argv, path in [
        (["gen", "zdg", "--n", "6"], tmp_path / "missing" / "x.json"),
        (["cover", "zdg", "--n", "6"], tmp_path),
    ]:
        code, out, err = run_capture(capsys, [*argv, "-o", str(path)])
        assert code == 2 and out == ""
        assert f"input error: cannot write {path}: " in err and "internal error" not in err
        assert "verified" not in err and err.count("\n") == 1
    code, _, _ = run_capture(capsys, ["nonsense"])
    assert code == 2
    # argparse refuses a half-parsed join; the parser it leaves serves the next command
    code, out, err = run_capture(capsys, ["cover", "join", "--part", "p.json", "--skip", "0"])
    assert code == 2 and out == "" and "--outer" in err
    code, out, _ = run_capture(capsys, ["cover", "zdg", "--n", "6"])
    assert code == 0 and json.loads(out)["graph"]["n"] == 3


# each refusal is one stderr line and nothing on stdout; the second case
# runs with a malformed BOXLAB_BUDGET in the environment
INPUT_ERRORS = [
    (["box", "--graph", "@c4", "--max", "0"], {}, "max_l must be at least 1"),
    (["box", "--graph", "@c4"], {"BOXLAB_BUDGET": "abc"}, "malformed BOXLAB_BUDGET 'abc'"),
    (["cover", "join", "--outer", "@p3", "--part", "@k2", "--part", "@k2"], {}, "need 3 parts, got 2"),
    (
        ["cover", "join", "--outer", "@p3", "--part", "@k2", "--part", "@k2", "--part", "@k2", "--skip", "5"],
        {},
        "skip index 5 out of range",
    ),
    (["verify", "--graph", "@c4", "--cover", "@no_reps"], {}, "malformed cover object: 'reps'"),
    (["gen", "zdg", "--n", "1"], {}, "need N >= 2, got 1"),
    (["zdg", "report", "--n", "1"], {}, "need N >= 2, got 1"),
    (["gen", "boolean", "--k", "1"], {}, "need k >= 2, got 1"),
]


@pytest.mark.parametrize(
    "argv, env, message", INPUT_ERRORS, ids=[" ".join(argv) for argv, _, _ in INPUT_ERRORS]
)
def test_input_errors_exit_2_with_one_line(argv, env, message, tmp_path, monkeypatch, capsys):
    files = {
        "c4": graph_to_obj(cycle_graph(4)),
        "p3": graph_to_obj(path_graph(3)),
        "k2": graph_to_obj(complete_graph(2)),
        "no_reps": {"graph": graph_to_obj(cycle_graph(4))},
    }
    resolved = []
    for arg in argv:
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps(files[arg[1:]]))
            arg = str(path)
        resolved.append(arg)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert run_capture(capsys, resolved) == (2, "", f"input error: {message}\n")


def test_written_covers_are_reported_by_family(tmp_path, capsys):
    # the summary follows the written artifact; the boolean and zdg lines
    # are pinned with their own commands above
    for name, g in (("k2", complete_graph(2)), ("p3", path_graph(3))):
        (tmp_path / f"{name}.json").write_text(json.dumps(graph_to_obj(g)))
    join = ["--outer", str(tmp_path / "k2.json"), *["--part", str(tmp_path / "p3.json")] * 2]
    for argv, summary in [
        (["cover", "circular", "--k", "7", "--d", "2"], "cover of size 4 = chi(7,2) verified\n"),
        (["cover", "join", *join], "cover of size 2 for the join verified\n"),
    ]:
        out = tmp_path / "c.json"
        code, _, err = run_capture(capsys, [*argv, "-o", str(out)])
        assert code == 0 and err == summary
        assert cover_from_obj(json.loads(out.read_text())).reps


def test_run_builds_no_parser_after_its_first_call(monkeypatch, capsys):
    assert run(["gen", "circular", "--k", "5", "--d", "2"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(["cover", "circular", "--k", "7", "--d", "2"]) == 0
    assert run(["nonsense"]) == 2
    assert built == []


def test_join_options_do_not_carry_to_the_next_command(tmp_path, capsys):
    paths = {}
    for name, g in (("k2", complete_graph(2)), ("k3", complete_graph(3)),
                    ("c4", cycle_graph(4)), ("p3", path_graph(3)), ("e3", empty_graph(3))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(graph_to_obj(g)))

    def join(outer, parts, skip=()):
        argv = ["cover", "join", "--outer", str(paths[outer])]
        for p in parts:
            argv += ["--part", str(paths[p])]
        for s in skip:
            argv += ["--skip", str(s)]
        return run_capture(capsys, argv)

    boxlab.cli.build_parser.cache_clear()  # the second command alone, on a new parser
    alone = join("k2", ["c4", "e3"])
    assert alone[0] == 0
    assert join("k3", ["k3", "c4", "p3"], skip=[0])[0] == 0
    assert join("k2", ["c4", "e3"]) == alone


def test_deterministic_output(capsys):
    code1, out1, _ = run_capture(capsys, ["cover", "circular", "--k", "8", "--d", "3"])
    code2, out2, _ = run_capture(capsys, ["cover", "circular", "--k", "8", "--d", "3"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_output_reparses_bit_exact(tmp_path, capsys):
    path = tmp_path / "g.json"
    code, _, _ = run_capture(capsys, ["gen", "zdg", "--n", "30", "-o", str(path)])
    assert code == 0
    first = path.read_text()
    code, _, _ = run_capture(capsys, ["gen", "zdg", "--n", "30", "-o", str(path)])
    assert path.read_text() == first


def test_indented_inputs_read_as_their_compact_form(tmp_path, capsys):
    # artifacts written as json.dumps(obj, indent=2), the form before the
    # compact one, stay readable: each command gives the same exit code and bytes
    cover = cover_to_obj(chi_cover(7, 2))
    files = {"graph": cover["graph"], "cover": cover, "outer": graph_to_obj(complete_graph(2)),
             "part": graph_to_obj(cycle_graph(4))}
    results = []
    for form in ({"indent": 2}, {"separators": (",", ":")}):
        folder = tmp_path / str(len(results))
        folder.mkdir()
        path = {name: str(folder / f"{name}.json") for name in files}
        for name, obj in files.items():
            Path(path[name]).write_text(json.dumps(obj, **form))
        results.append([
            run_capture(capsys, argv)[:2]
            for argv in (
                ["verify", "--graph", path["graph"], "--cover", path["cover"]],
                ["box", "--graph", path["graph"]],
                ["cover", "join", "--outer", path["outer"], "--part", path["part"], "--part", path["part"]],
            )
        ])
    assert [code for code, _ in results[0]] == [0, 0, 0]
    assert results[0] == results[1]


def test_direct_zdg_budget_exits_3(monkeypatch, capsys):
    for argv in (["gen", "zdg", "--n", "10001"], ["cover", "zdg", "--n", "10001"]):
        code, out, err = run_capture(capsys, argv)
        assert code == 3 and out == ""
        assert "direct-graph limit 10000" in err

    # the join reads the class positions first: 10^10 = 2^10 5^10 has classes of
    # billions of elements, so a member built before the refusal would not return
    with monkeypatch.context() as guard:
        guard.setattr(boxlab.zdg, "unit_rep", _refuse("unit_rep"))
        guard.setattr(boxlab.zdg, "join_cover", _refuse("join_cover"))
        argv = ["cover", "zdg", "--n", "10000000000", "--method", "join"]
        code, out, err = run_capture(capsys, argv)
        assert code == 3 and out == ""
        assert "budget" in err and "direct-graph limit 10000" in err

    def no_record(n):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(boxlab.cli, "compressed_zn", no_record)
    code, out, err = run_capture(capsys, ["sweep", "zdg", "--nmax", "10001"])
    assert code == 3 and out == ""
    assert "budget" in err


def test_cover_zdg_over_the_direct_limit_exits_3_before_the_record(monkeypatch, capsys):
    # a prime over the limit is refused as gen zdg refuses it, not as a prime
    code, out, err = run_capture(capsys, ["cover", "zdg", "--n", "10007"])
    assert (code, out) == (3, "") and "direct-graph limit 10000" in err
    code, out, err = run_capture(capsys, ["cover", "zdg", "--n", "7"])
    assert (code, out, err) == (2, "", "input error: 7 is prime; the compressed graph needs a composite N\n")
    # 45026982000 has 2560 divisors: neither method factors it or scans its divisor graph
    monkeypatch.setattr(boxlab.cli, "compressed_zn", _refuse("compressed_zn"))
    for method in ("prime", "join"):
        code, out, err = run_capture(capsys, ["cover", "zdg", "--n", "45026982000", "--method", method])
        assert (code, out) == (3, "") and "direct-graph limit 10000" in err


# 0 refuses every graph but the empty one; a negative budget is malformed
@pytest.mark.parametrize(
    "budget, graph, code",
    [
        ("-1", empty_graph(0), 2),
        ("10:-1", cycle_graph(4), 2),
        ("0", empty_graph(0), 0),
        ("10:0", cycle_graph(4), 3),
    ],
)
def test_budget_values_are_not_negative(budget, graph, code, tmp_path, monkeypatch, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_obj(graph)))
    monkeypatch.setenv("BOXLAB_BUDGET", budget)
    got, out, err = run_capture(capsys, ["box", "--graph", str(path)])
    assert got == code
    if code == 2:
        assert (out, err) == ("", f"input error: malformed BOXLAB_BUDGET {budget!r}\n")
    elif code == 0:
        assert json.loads(out)["boxicity"] == 0
    else:
        assert "component has 2 non-edges, budget is 0" in err


def test_zdg_report_needs_no_direct_graph(capsys):
    code, out, _ = run_capture(capsys, ["zdg", "report", "--n", "20000"])
    assert code == 0
    # 20000 = 2^5 5^4: 6 * 5 divisors, 3 * 3 of them with N | d^2
    assert json.loads(out)["box_upper"] == 6 * 5 - 3 * 3 - 1


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} was called")

    return refuse


def _first_k_over_the_edge_budget(d):
    # each vertex meets the k - 2d + 1 others at circular distance d or more
    return next(k for k in count(2 * d) if k * (k - 2 * d + 1) // 2 > EDGE_BUDGET)


def test_circular_clique_over_the_edge_budget_exits_3_before_building(monkeypatch, capsys):
    monkeypatch.setattr(boxlab.graphs.Graph, "from_adj", _refuse("Graph.from_adj"))
    monkeypatch.setattr(boxlab.circular, "point", _refuse("point"))  # every window rep's
    # k = 2d is a perfect matching with d edges, so d = cap + 1 is one edge over
    d = EDGE_BUDGET + 1
    code, out, err = run_capture(capsys, ["gen", "circular", "--k", str(2 * d), "--d", str(d)])
    assert code == 3 and out == ""
    assert f"would have {d} edges, the limit is {EDGE_BUDGET}" in err
    k = _first_k_over_the_edge_budget(2)
    code, out, err = run_capture(capsys, ["cover", "circular", "--k", str(k), "--d", "2"])
    assert code == 3 and out == ""
    assert f"(k={k}, d=2) would have" in err


def test_circular_cover_over_the_vertex_budget_exits_3_before_building(monkeypatch, capsys):
    # k = 2d + 1 is a cycle, far inside the edge budget, but the masks of a
    # near-matching span all k bits, so the cover is held to the vertex limit;
    # `gen` builds no masks and writes the k edges
    monkeypatch.setattr(boxlab.graphs.Graph, "from_adj", _refuse("Graph.from_adj"))
    monkeypatch.setattr(boxlab.circular, "point", _refuse("point"))
    k = VERIFY_MAX_N + 1
    code, out, err = run_capture(capsys, ["cover", "circular", "--k", str(k), "--d", str(k // 2)])
    assert code == 3 and out == ""
    assert f"has {k} vertices, the check's limit is {VERIFY_MAX_N}" in err
    code, out, _ = run_capture(capsys, ["gen", "circular", "--k", str(k), "--d", str(k // 2)])
    assert code == 0
    edges = json.loads(out)["edges"]
    assert len(edges) == k and edges[:2] == [[0, k // 2], [0, k // 2 + 1]] and edges[-1] == [k // 2, k - 1]


def test_sweep_circular_refuses_an_oversized_kmax_before_its_first_row(monkeypatch, capsys):
    # the sweep's largest graph has d = 2
    kmax = _first_k_over_the_edge_budget(2)
    monkeypatch.setattr(boxlab.cli, "chi_cover", _refuse("chi_cover"))
    code, out, err = run_capture(capsys, ["sweep", "circular", "--dmax", "2", "--kmax", str(kmax)])
    assert code == 3 and out == ""
    assert f"(k={kmax}, d=2) would have" in err


def test_cli_restates_no_library_budget(package_imports):
    # the sweeps refuse through the checks their libraries run, so each
    # limit and refusal message is written in its library alone
    imported = {name.split(".")[-1] for name in package_imports["cli.py"]}
    budgets = {"ZDG_MAX_N", "COMPRESSED_MAX_N", "BOOLEAN_RING_MAX_K", "EDGE_BUDGET", "VERIFY_MAX_N",
               "COVER_ENTRY_BUDGET"}
    checks = {"check_edge_budget", "check_vertex_budget", "circular_params"}
    assert imported.isdisjoint(budgets | checks)
    package = Path(boxlab.cli.__file__).parent
    for message, home in (("exceeds the direct-graph limit", "zdg.py"), ("would have", "graphs.py")):
        assert [p.name for p in sorted(package.glob("*.py")) if message in p.read_text()] == [home]


def _join(a_n, a_edges, b_n):
    """Outer edge 01 over part 0, on a_n vertices with its first a_edges pairs, and an
    edgeless part 1 on b_n vertices: a_edges + a_n * b_n edges."""
    a = {"n": a_n, "edges": [list(e) for e in islice(combinations(range(a_n), 2), a_edges)]}
    return {"n": 2, "edges": [[0, 1]]}, [a, {"n": b_n, "edges": []}]


@pytest.mark.parametrize(
    "outer, parts, message",
    [
        (*_join(400, EDGE_BUDGET + 1 - 400 * (EDGE_BUDGET // 400), EDGE_BUDGET // 400),
         f"the join would have {EDGE_BUDGET + 1} edges"),
        (*_join(1, 0, VERIFY_MAX_N), f"the join has {VERIFY_MAX_N + 1} vertices"),
    ],
    ids=["edges", "vertices"],
)
def test_cover_join_over_a_budget_exits_3_before_building(
    outer, parts, message, tmp_path, count_calls, capsys
):
    argv = ["cover", "join"]
    for flag, obj in [("--outer", outer)] + [("--part", p) for p in parts]:
        path = tmp_path / f"{len(argv)}.json"
        path.write_text(json.dumps(obj))
        argv += [flag, str(path)]
    calls = count_calls(boxlab.intervals, ("make_rep", "make_cover"))
    code, out, err = run_capture(capsys, argv)
    assert code == 3 and out == ""
    assert message in err
    assert calls == {"make_rep": 0, "make_cover": 0}


def test_cover_join_over_the_cover_budget_exits_3_before_lifting(tmp_path, monkeypatch, capsys):
    # 800 one-vertex parts over an edgeless outer graph: 800 members of 800 intervals
    outer, part = tmp_path / "outer.json", tmp_path / "part.json"
    outer.write_text(json.dumps(graph_to_obj(empty_graph(800))))
    part.write_text(json.dumps(graph_to_obj(complete_graph(1))))
    monkeypatch.setattr(boxlab.joins, "lift_reps", _refuse("lift_reps"))
    argv = ["cover", "join", "--outer", str(outer)] + ["--part", str(part)] * 800
    code, out, err = run_capture(capsys, argv)
    assert code == 3 and out == ""
    assert f"join cover would have 640000 intervals, the limit is {COVER_ENTRY_BUDGET}" in err


def test_cover_join_with_a_part_over_the_oracle_bound_exits_3(tmp_path, monkeypatch, capsys):
    # box(K_{2x9}) = 9 is over the oracle's default bound of 8, which `box`
    # reports as exceeded; the join cannot certify the part, so it is refused
    monkeypatch.setenv("BOXLAB_BUDGET", "18:9")
    files = {}
    for name, g in (("outer", complete_graph(2)), ("k29", complete_multipartite([2] * 9)),
                    ("k1", complete_graph(1))):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(graph_to_obj(g)))
    argv = ["cover", "join", "--outer", str(files["outer"]), "--part", str(files["k29"]),
            "--part", str(files["k1"])]
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (3, "")
    assert err == "budget exceeded: no cover found for part 0 within the default bound\n"
    code, out, _ = run_capture(capsys, ["box", "--graph", str(files["k29"])])
    assert code == 0
    assert json.loads(out) == {"boxicity": None, "exceeded": True, "max": 8}


def test_compressed_zn_over_its_limit_exits_3_before_factoring(monkeypatch, capsys):
    monkeypatch.setattr(boxlab.zdg, "factor", _refuse("factor"))
    n = str(COMPRESSED_MAX_N + 1)
    for argv in (["zdg", "report", "--n", n], ["gen", "zdg", "--compressed", "--n", n]):
        code, out, err = run_capture(capsys, argv)
        assert code == 3 and out == ""
        assert f"divisor-graph limit {COMPRESSED_MAX_N}" in err


def test_divisor_graph_over_the_edge_budget_exits_3_before_its_pair_scan(monkeypatch, capsys):
    # N = 2^6 3^4 5^2 7 11 13 17 19 23, below COMPRESSED_MAX_N, has 911 809 divisor-graph edges
    monkeypatch.setattr(boxlab.zdg, "_zero_product_graph", _refuse("_zero_product_graph"))
    n = "963761198400"
    for argv in (["zdg", "report", "--n", n], ["gen", "zdg", "--compressed", "--n", n]):
        code, out, err = run_capture(capsys, argv)
        assert code == 3 and out == ""
        assert f"Z_963761198400 would have 911809 edges, the limit is {EDGE_BUDGET}" in err


def test_zdg_report_at_the_compressed_limit(capsys):
    # 10^12 = 2^12 5^12 has 13 * 13 divisors; 999999999989 is the largest prime below it
    code, out, _ = run_capture(capsys, ["zdg", "report", "--n", str(COMPRESSED_MAX_N)])
    assert code == 0 and json.loads(out)["box_upper"] == 13 * 13 - 7 * 7 - 1
    code, out, _ = run_capture(capsys, ["zdg", "report", "--n", "999999999989"])
    assert code == 0 and json.loads(out)["prime"]
