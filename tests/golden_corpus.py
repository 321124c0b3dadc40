"""The golden corpus: fixed CLI commands with the exit code and the sha256
of the `-o` file that a known-good build gives for each.

It imports no test framework, so it runs under any supported Python:

    PYTHONPATH=src python tests/golden_corpus.py

runs every case in a temporary directory, prints each mismatch and exits 1
if there is one. `tests/test_golden_cli.py` runs the same cases under pytest.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from functools import cache
from pathlib import Path
from unittest import mock

from boxlab import (
    complete_graph,
    compressed_zn,
    cover_to_obj,
    cycle_graph,
    empty_graph,
    graph_to_obj,
    make_graph,
    path_graph,
    zdg_zn,
    zn_join_cover,
)
from boxlab.cli import run

INPUTS = {
    "c4": cycle_graph(4),
    "k2": complete_graph(2),
    "k3": complete_graph(3),
    "e3": empty_graph(3),
    "p3": path_graph(3),
    "z72": zdg_zn(72)[0],
    # box 1 with 8 maximal cliques: the witness is the recognizer's rep
    "int10": make_graph(
        10,
        [(0, 2), (0, 4), (0, 6), (0, 7), (0, 8), (1, 8), (2, 4), (2, 8),
         (3, 6), (3, 7), (3, 9), (4, 7), (5, 6), (5, 9), (6, 7), (6, 9)],
    ),
    "p6": make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
    "net": make_graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)]),
    "claw7": make_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),
}

# the subdivided claw has 15 non-edges, one over the oracle's default budget
CASE_ENV = {"box --graph @claw7": {"BOXLAB_BUDGET": "10:15"}}


@cache
def cover_fixtures() -> dict:
    """The 7-member cover of Z_72 and three broken copies, as JSON objects."""
    good = cover_to_obj(zn_join_cover(compressed_zn(72)))
    far, dropped, short = (json.loads(json.dumps(good)) for _ in range(3))
    # vertex 11 (17 neighbours) leaves member 1 for a far point
    far["reps"][1]["intervals"]["11"] = [[1000, 1], [1000, 1]]
    # without member 3 the others meet in 6 non-edges
    del dropped["reps"][3]
    # member 4 loses its last vertex
    rep = short["reps"][4]
    rep["n"] -= 1
    del rep["intervals"][str(rep["n"])]
    return {"z72_cover": good, "z72_far": far, "z72_dropped": dropped, "z72_short": short}


def _join(outer, parts, skip=()):
    argv = ["cover", "join", "--outer", f"@{outer}"]
    for p in parts:
        argv += ["--part", f"@{p}"]
    for s in skip:
        argv += ["--skip", str(s)]
    return argv


ZDG_N = (6, 12, 45, 72, 100, 180, 210, 330)
# p^n with n = 3, 3, 2, 4: the cover's one threshold member is the explicit rep
PRIME_POWER_N = (8, 27, 49, 81)
BOOLEAN_K = range(2, 7)

CORPUS = (
    [["cover", "zdg", "--n", str(n)] for n in ZDG_N]
    + [["cover", "zdg", "--n", str(n)] for n in PRIME_POWER_N]
    + [["cover", "boolean", "--k", str(k)] for k in BOOLEAN_K]
    # the paper's join construction, reachable with its original bytes
    + [["cover", "zdg", "--n", str(n), "--method", "join"] for n in ZDG_N]
    + [["cover", "boolean", "--k", str(k), "--method", "join"] for k in BOOLEAN_K]
    + [
        ["cover", "circular", "--k", str(k), "--d", str(d)]
        # (11, 5) and (13, 6) slide two and three full blocks; (17, 7) ends on
        # a remainder of three
        for k, d in ((4, 2), (6, 3), (7, 2), (11, 4), (13, 5), (30, 4), (11, 5), (13, 6), (17, 7))
    ]
    + [
        _join("p3", ["c4", "k2", "e3"]),
        _join("k3", ["k3", "c4", "p3"], skip=[0]),
        ["box", "--graph", "@c4"],
        ["box", "--graph", "@c4", "--max", "1"],
    ]
    + [["box", "--graph", f"@{name}"] for name in ("int10", "p6", "net", "claw7")]
    + [
        ["zdg", "report", "--n", "72"],
        ["zdg", "report", "--n", "2310"],
        ["zdg", "report", "--n", "25"],
        ["zdg", "report", "--n", "13"],
        ["gen", "zdg", "--n", "72"],
        # 1829 vertices: the largest direct graph in the corpus
        ["gen", "zdg", "--n", "2310"],
        ["cover", "zdg", "--n", "2310"],
        ["gen", "zdg", "--n", "72", "--compressed"],
        ["gen", "zdg", "--n", "4"],
        ["gen", "boolean", "--k", "3"],
        ["gen", "circular", "--k", "7", "--d", "2"],
        ["sweep", "circular", "--dmax", "4", "--kmax", "14"],
        ["sweep", "zdg", "--nmax", "60"],
    ]
    + [
        ["verify", "--graph", "@z72", "--cover", f"@{name}"]
        for name in ("z72_cover", "z72_far", "z72_dropped", "z72_short")
    ]
)

GOLDEN = {
    "cover zdg --n 6": (0, "88811587799571b576f94f06110e32798d71b12068ad8c4a71dd42bb797bad24"),
    "cover zdg --n 12": (0, "65400b719eddaacad9b8e1f98e9b822fba369f4c87f31b59df96208dd31f41d0"),
    "cover zdg --n 45": (0, "a8d51fd19d5ca2c340d09b7a4fdc1ca1c451bf4239a8279380daf626a0ca0203"),
    "cover zdg --n 72": (0, "79b32577e736954536d48e2c0337801392072fd0c076552f58b3c3c9d31e56fd"),
    "cover zdg --n 100": (0, "6b30e22a7bafd0287a1c5bd2d2065d7bf3121426305e2b9016491536638bb1bd"),
    "cover zdg --n 180": (0, "ae9f1bc5bd2f51933cbe720c197d90a43dabf2fc95484aacfcd978b0a12abdb0"),
    "cover zdg --n 210": (0, "26e8b015894dfe87342e8eb36377228d7767a40b02d8e9b79e35b459bad16ebd"),
    "cover zdg --n 330": (0, "36ff9742ca2e944ce6f8f4f34d59552e97fc36ea6ab85d56514c4bb853eb1ca7"),
    "cover zdg --n 8": (0, "ffd60a8ed049e4d235e96f749a01adb59487e037ba05df46ec664ab11e5001d0"),
    "cover zdg --n 27": (0, "f4978203e1302bd8ba9a0f6d9f4c48481319f99601f06022d577eaf4008b8e21"),
    "cover zdg --n 49": (0, "6b224ad6a8a7407a6ac54a4464e75c79cf8d050bf083328f45f488f24a999ac4"),
    "cover zdg --n 81": (0, "a0b155eb45fdba7fe1e27c7a21f63968518b353a65bad3cde949820906d463b3"),
    "cover boolean --k 2": (0, "8fd5a21223c10f60c0beadd4e8533c089cfd586e077497add90719a77696d4f0"),
    "cover boolean --k 3": (0, "987698cb048062e8c06667b1978096e04869cc990adb6245da67bc9615d91d2e"),
    "cover boolean --k 4": (0, "4d8fbd5f4a0d80952ab659f56ee46518e9e38ca14c59c5c6e3f9cf619cf6db68"),
    "cover boolean --k 5": (0, "ad221ddaac581c4d9becffe82da1f5c8c12774ff7156e052a6ce6ad503e0a02a"),
    "cover boolean --k 6": (0, "c177278227bd4e974da5ed8b727711c6ad51732a9ff4f849bf26a388d7ea5a82"),
    "cover zdg --n 6 --method join": (0, "3ec96c416c83a26e300c9f72f42a4a1b0a01795085c5272d0fa7b3133ca88c50"),
    "cover zdg --n 12 --method join": (0, "3aac6df349810d1b6f7ad68fa67435309adf5258e26417f00b71d7603627a200"),
    "cover zdg --n 45 --method join": (0, "855d89e09a8c8d09e20ac362aa5d1f6775c3b8b3f087ae6f77bd468ab3c04080"),
    "cover zdg --n 72 --method join": (0, "d0382c1cea1499c66e63da850a70995560860049c01e7ab51586d68f0a3f687f"),
    "cover zdg --n 100 --method join": (0, "028f923f729ef438114972b91572169b26223877659da7ff57825471971afab1"),
    "cover zdg --n 180 --method join": (0, "99acad95756f012017a4ebca7b50fcdf141665f2b44b40b879e7fae7f834d23d"),
    "cover zdg --n 210 --method join": (0, "050a84690c3de69b6bca036acaafe872d5c77b2cd84e391241f796d0ae04a168"),
    "cover zdg --n 330 --method join": (0, "a95b9f6ae9f5268dc1f915d0ad290e2eee08889ec0c992b9fcba14f94732f67c"),
    "cover boolean --k 2 --method join": (0, "6a9ee846f8aaf2710e3b2fd52a7c2a2818318761a65601130509aee88823b308"),
    "cover boolean --k 3 --method join": (0, "4e0b94a4d4d2ed8ecca9abd4e7a007401cc4fd2be6739337f3a6f807191c754c"),
    "cover boolean --k 4 --method join": (0, "8655323378fafcf6aad13ce093cc1ac0155cbe8c601328628051c250c0c0a3a0"),
    "cover boolean --k 5 --method join": (0, "a82524a7e0e4bd2a49ef85e65194c23c1e2e60181dae18db48e24f8ef2518a60"),
    "cover boolean --k 6 --method join": (0, "858601a2b583834aa64451f563dd7068a3aa2d567dffa94a0c9c90312aa90242"),
    "cover circular --k 4 --d 2": (0, "82e77a65742973b7b84ab3d13dc2e823a85e83c453f959d89f21f6adfbceb19a"),
    "cover circular --k 6 --d 3": (0, "ee58ebd1c0f63f3ee292f5b0c954e198bb73d2b5c0bd99f327780c9c61ea1339"),
    "cover circular --k 7 --d 2": (0, "67a9bfc96dd368120d7b25d3e8612d4cc8013f31d5683dc6e85019f4406851bc"),
    "cover circular --k 11 --d 4": (0, "96b2fea524d2bcf21136f2d3237c192e21175219dc208aa85c1b737f775cd960"),
    "cover circular --k 13 --d 5": (0, "1d540b070cc0251da27614965d588e525d8f154b4cdc0ecbcb3d65b3ee79d416"),
    "cover circular --k 30 --d 4": (0, "241e67d9c19ce4d4c7f97af99f11e41a9f35735e9a8c73585481b5b3ba987e01"),
    "cover circular --k 11 --d 5": (0, "4e86589a601f6b5c3a4baa7cd3745d338f7c30e43546b8f452866c4179518c42"),
    "cover circular --k 13 --d 6": (0, "b8732bcd7b8bf76c4f89c7be44c0745db2eec67828bb8a6e7a792e2f95c91eda"),
    "cover circular --k 17 --d 7": (0, "b7bc9332c358b3c0e5f6aa9476203e3664a1336c382c6c3fe6c67b1140ae4501"),
    "cover join --outer @p3 --part @c4 --part @k2 --part @e3": (0, "cdaf2927a5bea36d6e2c2a304218b6d3adbdc8ebc5d19bde062a5a7e0607a269"),
    "cover join --outer @k3 --part @k3 --part @c4 --part @p3 --skip 0": (0, "b94af69c574d4214a208a93c8ed88cc23b0adfa336d7562a2df1e35003f0e8a9"),
    "box --graph @c4": (0, "ef9a00cbc39b25ff1feb612a79a6a02c007013637cebeba24150c59880bdcda1"),
    "box --graph @c4 --max 1": (0, "62cc4307f5f5767007081675809562429425f2cf79406fe7bfabf5a525df9a88"),
    "box --graph @int10": (0, "2adf3b2f17f74552f40a7d8a4342821f08b5f94431bb4e329f91fedfd0c7e5b8"),
    "box --graph @p6": (0, "e2379e98da2476cb482931f84703130f3fb37def2612879092b85ab3c8fe3ed2"),
    "box --graph @net": (0, "8a1312a312d7e3504de6428a2703f38d0ce8a03f4e5d44586aaded7d97cb7c4e"),
    "box --graph @claw7": (0, "b77afe09fe9fafcdc95fd16073ce10f33609bca572c445abcf9ac85311d570f3"),
    "zdg report --n 72": (0, "dbbbc55883130edd6d883fc465d9c5740edcf279df24ba1cd5f84de8c7651b35"),
    "zdg report --n 2310": (0, "d43e010b8a096cd6ab4ed30a4b5742267c4146fb28597f4b094bd3de72b40682"),
    "zdg report --n 25": (0, "bcb361d8c7e819c0c045a4fd57273c6221148e71ace22be3c25f9ed148b2a368"),
    "zdg report --n 13": (0, "578cf1863277de078b465ce7a4c04ede4c5cbaf8049ae1cd72d6b091e3afcecc"),
    "gen zdg --n 72": (0, "c8540d0fdf0f54c23696de67ef54b02aab177ceda50b750c445ceb0e1173a1f0"),
    "gen zdg --n 2310": (0, "6a0488debcf36bba9ef2b7429258a65a2f69cffb8096184c2d6c7e746086ef7c"),
    "cover zdg --n 2310": (0, "2dfcd430ff2393f546eb2e719ab8cc8e66f1dd9a5fab045751be5f246396d02d"),
    "gen zdg --n 72 --compressed": (0, "499c2a31e5908654f567cc37f88bc77e851449f39972bf985c020cb271b8cfbe"),
    "gen zdg --n 4": (0, "ef1d4eb1223222acd550fa485a21ec244cd504664caf8d3668784a3dc3e874e0"),
    "gen boolean --k 3": (0, "240be8b269ffec516bf6da90e43bf7455a03234b6f96a0e66691a3add1f46d7b"),
    "gen circular --k 7 --d 2": (0, "fc924cf7197ef7457e31f5933c403935778d29832c0f55887ea803776b5eb1f1"),
    "sweep circular --dmax 4 --kmax 14": (0, "27f8274e46f9411492e13e8bbe52eb543dc3ebd9b2d207726972d01e43ca1e52"),
    "sweep zdg --nmax 60": (0, "8c0e3b8b70160b28fda8ae4553adbf2d7d2ad0b2a882aab2adb2874ee52bb012"),
    "verify --graph @z72 --cover @z72_cover": (0, "c755d3dcbec482786aeb857e92c35427050cfbe6e77d1997e67f6ecb1537b7ba"),
    "verify --graph @z72 --cover @z72_far": (1, "6ae691cd9416346babc5ea0e64ec1a816a49ee2053be69d95c65a3a5319bbac0"),
    "verify --graph @z72 --cover @z72_dropped": (1, "9d5cfe27259288ac5732654d1c5dae22e4a20357c0f073459352f83a3ee62e8a"),
    "verify --graph @z72 --cover @z72_short": (1, "263e7e7b9ba597a05c87d937613c18cac3bef86c9134935b331ab581367660f7"),
}


def key(argv):
    return " ".join(argv)


def run_case(argv, tmp_path):
    """Run one corpus command; returns (exit code, sha256 of the -o file)."""
    resolved = []
    for arg in argv:
        if arg.startswith("@"):
            name = arg[1:]
            obj = graph_to_obj(INPUTS[name]) if name in INPUTS else cover_fixtures()[name]
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(obj))
            arg = str(path)
        resolved.append(arg)
    out = tmp_path / "out"
    code = run(resolved + ["-o", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return code, digest


def main() -> int:
    failures = 0
    for argv in CORPUS:
        with (
            mock.patch.dict(os.environ, CASE_ENV.get(key(argv), {})),
            tempfile.TemporaryDirectory() as tmp,
            contextlib.redirect_stderr(io.StringIO()),
        ):
            got = run_case(argv, Path(tmp))
        if got != GOLDEN[key(argv)]:
            failures += 1
            print(f"MISMATCH {key(argv)}: got {got}, recorded {GOLDEN[key(argv)]}")
    print(f"{len(CORPUS)} cases, {failures} mismatches on Python {sys.version.split()[0]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
