"""The golden corpus: fixed CLI commands with the exit code and the sha256
of the `-o` file that a known-good build gives for each.

It imports no test framework, so it runs under any supported Python:

    PYTHONPATH=src python tests/golden_corpus.py

runs every case in a temporary directory, prints each mismatch and exits 1
if there is one. It also checks that every JSON output is exactly
`json.dumps(obj, separators=(",", ":"))` of its own object plus a newline,
so the format rule holds without pytest too. `tests/test_golden_cli.py`
runs the same cases under pytest.
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
    "e300": empty_graph(300),
}

# the subdivided claw has 15 non-edges, one over the oracle's default budget
CASE_ENV = {"box --graph @claw7": {"BOXLAB_BUDGET": "10:15"}}


@cache
def cover_fixtures() -> dict:
    """The 7-member cover of Z_72, three broken copies, and one member putting
    every vertex of the edgeless 300-vertex graph on [0, 1], as JSON objects."""
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
    # 44 850 uncovered non-edges, more than the checker lists
    e300_unit = {
        "graph": graph_to_obj(INPUTS["e300"]),
        "reps": [{"n": 300, "intervals": {str(v): [[0, 1], [1, 1]] for v in range(300)}}],
    }
    return {"z72_cover": good, "z72_far": far, "z72_dropped": dropped, "z72_short": short,
            "e300_unit": e300_unit}


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
    + [
        # every d above kmax // 2 is skipped, so the table is the --dmax 7 one
        ["sweep", "circular", "--dmax", "1000000000000", "--kmax", "14"],
        ["verify", "--graph", "@e300", "--cover", "@e300_unit"],
        # the largest vector ring (254 vertices; its join cover is 1.3 MB) and
        # 5040 = 2^4 * 3^2 * 5 * 7, several primes with one exponent above 3
        ["gen", "boolean", "--k", "8"],
        ["cover", "boolean", "--k", "8"],
        ["cover", "boolean", "--k", "8", "--method", "join"],
        ["cover", "zdg", "--n", "5040"],
        ["zdg", "report", "--n", "5040"],
    ]
)

GOLDEN = {
    "cover zdg --n 6": (0, "cdbf0711d8d52422d8057e91fc9891c99a84c7908419dfe37aef7961194560eb"),
    "cover zdg --n 12": (0, "343f32f67456fc8f65ff442ff5ac810fb8d7f95058759e13557d8b842e4bd21f"),
    "cover zdg --n 45": (0, "bfcec149f91bf4104986fc3c691eaace585f2d5ba5e843818cf4ea7285d495ed"),
    "cover zdg --n 72": (0, "9a45fddf86849c98f144ab9afbf9ffa4cc2f66e37526f4f886d483ad3c55726b"),
    "cover zdg --n 100": (0, "86e6c68b8ce7a8ac25956309549b5b250e8c39bebd411249a754df6ebf6b2140"),
    "cover zdg --n 180": (0, "931b5fdda52e9c08639c56c89b3e6d97e7b505f7c453c557a12091c8bc3c16f7"),
    "cover zdg --n 210": (0, "60bff01348441b03c1b2ee85986cdf3cc0605a17038fc18c2c69b2805c52c2af"),
    "cover zdg --n 330": (0, "0df280c2ff767d518e7f5d46150d0029ca11c8c9e66da03928059b35c4fd5ead"),
    "cover zdg --n 8": (0, "daee59791be995f45e2780df00d3262d0d5a2585ed1b738e466c0886cefa93a2"),
    "cover zdg --n 27": (0, "81e7a13795417d3a52c6ccff8dd86e6a88ae5646d73a4df75847844720a0b22a"),
    "cover zdg --n 49": (0, "9516ee3637c7ea2bb0038bd412001095eb83a2aa4a2132756c746b8ff2f8342f"),
    "cover zdg --n 81": (0, "4d7dc3f37addbf89c9e04eb34e855c0e709107664579a427b400a949b3f30c3e"),
    "cover boolean --k 2": (0, "abc6602bc557cc335b8f346049d145c234c2340b5df90df32f217962d31bb46e"),
    "cover boolean --k 3": (0, "ef0fa0b04cef4f140461dd8026209e173036f69f5cd1d0f50d5f605dbdf621e4"),
    "cover boolean --k 4": (0, "38104b7049e5ffc324b9f61b92c96ea6a650238854648c5ff0dfcd31c8f37c9e"),
    "cover boolean --k 5": (0, "49611c6528e4a52459777ddebffdc6894b9e55c3c250e114c5f5cfbdd3e334e9"),
    "cover boolean --k 6": (0, "468afe0e3dec0dc1f6d8ebbaaffda93cf475931d9d9a9d910d157225eb92375a"),
    "cover zdg --n 6 --method join": (0, "456aeabc02ea094386c73852e7d12e47bdfa946477e6134b89c0ed4da2ede994"),
    "cover zdg --n 12 --method join": (0, "2a426985581ee07a7f211d066df756fb27c28170ea994d2a18d58f0a9f359a96"),
    "cover zdg --n 45 --method join": (0, "167fdd54d3d179bb7c0b20a46067939b909d36f6b96ae9e70ac691c6f76bc584"),
    "cover zdg --n 72 --method join": (0, "9170236ea11f4bb8803aad5e09325d1a7f075cda05a7b7b6dda97e17362c5464"),
    "cover zdg --n 100 --method join": (0, "eee8c7afabac17d2ce87a9c060a1535d5a9001f34b78017e4f6a7e91f6b7a7fd"),
    "cover zdg --n 180 --method join": (0, "a035b08d97d1f758d639d2925e04777ae21ecd06c1f0b7a5c1c90b54ff819095"),
    "cover zdg --n 210 --method join": (0, "04adeb8454cad3fab5c922979de896107f414d0ef7ebf8313a274fa5bcf770ea"),
    "cover zdg --n 330 --method join": (0, "c27177015fd3e5f3dcec90ce8ebdfeaef86795e53f0ddfc69364d10e23cb8e24"),
    "cover boolean --k 2 --method join": (0, "a7325da89661b0c99a522e0d9f456f934804af1f15fc30b6aced550427b54996"),
    "cover boolean --k 3 --method join": (0, "f394e8867e99d2454019ec3edda100201cd54d11d55090909cf6d8d835d5fce9"),
    "cover boolean --k 4 --method join": (0, "36e67e758b5d5830c3806c6247016fcb76ce1fa7215b86547c026919cb0336c8"),
    "cover boolean --k 5 --method join": (0, "2f1acf902156043964d55fe592ef187dd45b2ded5262979f70bb31c93e66bfdc"),
    "cover boolean --k 6 --method join": (0, "7800ef21f3477505fe7a0b512f83a115a7c55cc6deb1240f483746979bf6eb5b"),
    "cover circular --k 4 --d 2": (0, "03796479c209ab76595334a72f2a3993b267cf04b96aebc029f3a17e2117edd0"),
    "cover circular --k 6 --d 3": (0, "85614c7d2217da7a5feea1e20adddcef76c1f4c4aacdc0dd0300db00851fff99"),
    "cover circular --k 7 --d 2": (0, "cdb517ce663d0ca5b54ef826b265578027e460e38090e153c4bac400a7dc2e8e"),
    "cover circular --k 11 --d 4": (0, "0e99952e056c4ebdef811221dec2a93089a2aa960a99fe95e353bf7c25e74033"),
    "cover circular --k 13 --d 5": (0, "17a2dbdb2b0830eb50e84df9ee17c54458e1dc6afad87e6a27152ee704489458"),
    "cover circular --k 30 --d 4": (0, "c15f14d21fae9968afcff02a5aad7a62ad6511fd2d93df2e59d302515f1a7c40"),
    "cover circular --k 11 --d 5": (0, "18c5ed583868b5a28343e930d68b61ab124ed5af66304cfe206f3c88f76b0e44"),
    "cover circular --k 13 --d 6": (0, "fa19c530b2ca5d58b69039a975a2cb8fc96262005501084f6d3163ccf2dcd1b6"),
    "cover circular --k 17 --d 7": (0, "53f94fc192c748a3fc4c30a08b836b28d8bd412d63dccd689f0e6a3e1f82e9c9"),
    "cover join --outer @p3 --part @c4 --part @k2 --part @e3": (0, "0e6d9cfa93c097988daf898a8144e6c7530f35b972434abc21c722122a25892a"),
    "cover join --outer @k3 --part @k3 --part @c4 --part @p3 --skip 0": (0, "acf94346282444750b86ebff78a7d29496389b5591c5b01e91b189103d4bca6b"),
    "box --graph @c4": (0, "f0a55c8f8f0a2aa6104b1aae7ee5c648631d15138ddaecad6942a8a166ef44a3"),
    "box --graph @c4 --max 1": (0, "3b8382a7e83e13bdb2ce80ce5af920fd270a22df7d311849accfd163b6050200"),
    "box --graph @int10": (0, "dbaef19e31108b4ec48a64adcb279eaa7db80b4bb16679fb6c2fb224b40f17a4"),
    "box --graph @p6": (0, "d530ced92b77a258653495eaefefaef0138127f2ceeab0955e6ee861d1426a84"),
    "box --graph @net": (0, "fa83f56e1461ffe4d1dd66ea206a8195cdc9665167273fcbfecb5bb481313d5a"),
    "box --graph @claw7": (0, "5bdb6a56194db22753ebdc650a82e8f3a6f7ed767024aecd996aeb9e4629cc07"),
    "zdg report --n 72": (0, "ed60ff63ec4b27f32d44b1331d043d714ba288bf88aaef263a279ca97c7015a3"),
    "zdg report --n 2310": (0, "75e7b7c819da10d1885e9c3de010bf57e41a17e59c187e1c9a4f5354815d1b8f"),
    "zdg report --n 25": (0, "af080f243dbcdf871d62513b577b8d4535e4c98ba9a68e20a423709932860542"),
    "zdg report --n 13": (0, "e379e192108c7250e44224e2f640bd6e2139c57ce925b4be7d928aae72c11acd"),
    "gen zdg --n 72": (0, "1f7ff8ce18ff72d2d02e122d5eda0dffa2d0d4cd5c8b5312e2f92add24874a9f"),
    "gen zdg --n 2310": (0, "57c918ea52a906efaade4cc2ac7c815dbfcc5ebbd1e9e0cac9bf3c83dd276a38"),
    "cover zdg --n 2310": (0, "49aa77aea47a365819d1b563791e40c6f8030fe43203ce5c1eb2bf4adb2f7f32"),
    "gen zdg --n 72 --compressed": (0, "d11ce924f6b22917b8828db5ab64fd09fc34b5e96e46f602a070078ee09f621d"),
    "gen zdg --n 4": (0, "f329a3ec6e8e0a448650a5d6eb30488190e6d33b325791a945c669c4fdb4b06e"),
    "gen boolean --k 3": (0, "8e3434a685dfd970b6cfa4d5802190938f11f6e942050fdbe3d16b8541293635"),
    "gen circular --k 7 --d 2": (0, "2a3b89806434a7fe37c80effa503fb30cc47105336555f06f80902841f993bbb"),
    "sweep circular --dmax 4 --kmax 14": (0, "27f8274e46f9411492e13e8bbe52eb543dc3ebd9b2d207726972d01e43ca1e52"),
    "sweep zdg --nmax 60": (0, "8c0e3b8b70160b28fda8ae4553adbf2d7d2ad0b2a882aab2adb2874ee52bb012"),
    "verify --graph @z72 --cover @z72_cover": (0, "df445f3d5d344ad8982e7cb8ace0e789d031222411b7436ae71bb4b85f485020"),
    "verify --graph @z72 --cover @z72_far": (1, "cfdc68819eb3c9229c6b038b7460ad4bb9f3bffa2d15f78e1e88034909f2d737"),
    "verify --graph @z72 --cover @z72_dropped": (1, "a7888278b318e6cbcd36273075de3d68c212103c7701a2d48cbe1090d518cddd"),
    "verify --graph @z72 --cover @z72_short": (1, "35de0bf228857619fb868bb1ed4711e9e16b761b90002f6e18d542bd4a9d9409"),
    "sweep circular --dmax 1000000000000 --kmax 14": (0, "2d1691ffd4a396ce7a4d5c965b98284e8c43da2ab5b2f191b1287a50cc3a68bf"),
    "verify --graph @e300 --cover @e300_unit": (1, "599d9c344b4a8edaee0c3867ce70af07946843771852ce54a53a3348fcb72701"),
    "gen boolean --k 8": (0, "7b37f38a274d10021e2bdf171eb60da59d4bbe4cd3029abb0967c8806a8c3d05"),
    "cover boolean --k 8": (0, "4e3bd6d6aae3ac355d78832d544e931ba32bb8d398e602826c8b1e53e20b5857"),
    "cover boolean --k 8 --method join": (0, "89a91fb4c9418a6deb860edb13f5ede66c7347f2a7105415bd6e959accf7d470"),
    "cover zdg --n 5040": (0, "de4a9339d5a349706015e3ea44df8c7bb74a373ad263d1d7b637ae5033ce8adc"),
    "zdg report --n 5040": (0, "5038fd6191a77243a56629425b5612c2f556c8214851a0c23035d5d15e84557d"),
}


def key(argv):
    return " ".join(argv)


def run_output(argv, tmp_path):
    """Run one corpus command; returns (exit code, bytes of the -o file or None)."""
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
    return code, out.read_bytes() if out.exists() else None


def digest(data):
    return None if data is None else hashlib.sha256(data).hexdigest()


def is_canonical(argv, data) -> bool:
    """Whether a JSON output is exactly its object's compact dump plus a newline;
    the sweep commands write tab-separated tables, which pass as they are."""
    if data is None or argv[0] == "sweep":
        return True
    return data == (json.dumps(json.loads(data), separators=(",", ":")) + "\n").encode()


def main() -> int:
    failures = 0
    for argv in CORPUS:
        with (
            mock.patch.dict(os.environ, CASE_ENV.get(key(argv), {})),
            tempfile.TemporaryDirectory() as tmp,
            contextlib.redirect_stderr(io.StringIO()),
        ):
            code, data = run_output(argv, Path(tmp))
        got = code, digest(data)
        if got != GOLDEN[key(argv)]:
            failures += 1
            print(f"MISMATCH {key(argv)}: got {got}, recorded {GOLDEN[key(argv)]}")
        elif not is_canonical(argv, data):
            failures += 1
            print(f"NOT COMPACT {key(argv)}: the output is not json.dumps of its object "
                  "with separators=(',', ':') plus a newline")
    print(f"{len(CORPUS)} cases, {failures} mismatches on Python {sys.version.split()[0]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
