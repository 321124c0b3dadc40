"""The golden corpus: fixed CLI commands with the exit code and the sha256
of the `-o` file that a known-good build gives for each.

It imports no test framework, so it runs under any supported Python:

    PYTHONPATH=src python tests/golden_corpus.py

runs every case in a temporary directory, prints each mismatch and exits 1
if there is one. It also checks that every JSON output is exactly
`json.dumps(obj, separators=(",", ":"))` of its own object plus a newline,
and that every endpoint a `cover` or `box` command writes is an integer
`[x, 1]`, so both rules hold without pytest too. `tests/test_golden_cli.py`
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
    circular_clique,
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
    "c11_4": circular_clique(11, 4),
}

# covers written before every construction took integer endpoints, kept as
# `verify` inputs so that reading [num, den] with den > 1 stays tested:
# z72_join.json is the output of `cover zdg --n 72 --method join` (sha256
# 9170236e...), c11_4.json that of `cover circular --k 11 --d 4` (0e99952e...)
FRACTIONAL = Path(__file__).resolve().parent / "fractional"

# the subdivided claw has 15 non-edges, one over the oracle's default budget
CASE_ENV = {"box --graph @claw7": {"BOXLAB_BUDGET": "10:15"}}


@cache
def cover_fixtures() -> dict:
    """The 7-member cover of Z_72, three broken copies, one member putting
    every vertex of the edgeless 300-vertex graph on [0, 1], and the two
    fractional covers, as JSON objects."""
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
    fractional = {f"{path.stem}_fractional": json.loads(path.read_text())
                  for path in sorted(FRACTIONAL.glob("*.json"))}
    return {"z72_cover": good, "z72_far": far, "z72_dropped": dropped, "z72_short": short,
            "e300_unit": e300_unit, **fractional}


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
        # N = p^2: one nilpotent class, so the join's one shared member
        ["cover", "zdg", "--n", "9", "--method", "join"],
        ["verify", "--graph", "@z72", "--cover", "@z72_join_fractional"],
        ["verify", "--graph", "@c11_4", "--cover", "@c11_4_fractional"],
    ]
)

GOLDEN = {
    "cover zdg --n 6": (0, "47b921b4ce04b444bac308296f71ce9204b690cda78b04cb315f76206df1ae8c"),
    "cover zdg --n 12": (0, "78bb5a5171d44c5e2ed004f94c0137fc71734059a42c43b1bd186135a5b8de16"),
    "cover zdg --n 45": (0, "f2a977fa132c3cd5056da7c19c8c872f0922db668ccee59c839d5b5d19656634"),
    "cover zdg --n 72": (0, "02046cc8791dab22d5ffd6b08e902d352365857745462e7e5eb43f059cbe4dc1"),
    "cover zdg --n 100": (0, "5e326a538f00eb7d7aab0da6db191a62282150c85f8d5ca4f7a95df1994a9ac2"),
    "cover zdg --n 180": (0, "1709a06cafd9a87e3b4c84cd112690111b11920a3e636e4ac8fc28fa919fda8a"),
    "cover zdg --n 210": (0, "f5883596b4c5a2e4f8d5465a4caefba6c2e3ff418f8df1c57879b5c7ce922690"),
    "cover zdg --n 330": (0, "7806ddf498246bc054ddc058388cd81503af8e93be398bb571e2a94aa5f3d4e6"),
    "cover zdg --n 8": (0, "1577298a33ab3370a8c83d7c1667563600e2ea3e2bc357f9cb4be2f9b6f10903"),
    "cover zdg --n 27": (0, "ddaf6e508e0dac1e6310a4bec0b747fff83e2fe13bddccd8ccb3fd9fec29ad73"),
    "cover zdg --n 49": (0, "9516ee3637c7ea2bb0038bd412001095eb83a2aa4a2132756c746b8ff2f8342f"),
    "cover zdg --n 81": (0, "5a04c22343a3937de53cc0d330c2e88aafde8b6ecb31be6ba368a1e5df7b2d41"),
    "cover boolean --k 2": (0, "79bf2bb295fb7b1506e371a7bad3c670c81f0ba2049dc6aa83982b5beda35f3f"),
    "cover boolean --k 3": (0, "f3729c7d6a3869c47006a1db0e2a90cc21d40a82e2848a3fa36de36937f12b44"),
    "cover boolean --k 4": (0, "e785ca5317456b010f1bda79391d723c21508c1c35b29fee4813dce8291e804a"),
    "cover boolean --k 5": (0, "e6b49322fd6051ea86541fceaa3c591aac80d5d4da627c7e851712d62d2a7876"),
    "cover boolean --k 6": (0, "c66597e6566bdc6715f5b345d3d1e2b86dc0f6fecb7aa7590fc6c0d922420630"),
    "cover zdg --n 6 --method join": (0, "ab6b423678bfc1cd05b044ab33159138b8b2b9fa6c9af1717e7c4da66d8ed758"),
    "cover zdg --n 12 --method join": (0, "f274a674cde6719f2b5e0322f5fcc4915f7dc20a9873ea52f4734648e2ba6d3b"),
    "cover zdg --n 45 --method join": (0, "925031b27c38c06a297e6fe894782d90fdfa7947411d8007893024757b928da6"),
    "cover zdg --n 72 --method join": (0, "e2ca629f0eaf4aa0c798b72c4697eaac0cf8b49155582d8b8e3b52b1673bd33e"),
    "cover zdg --n 100 --method join": (0, "cb9666dad4e49f7fb45be2971f28878ba5fe94caa732ebf4ec8d702bace48820"),
    "cover zdg --n 180 --method join": (0, "5982660fd57a3f45308a6b2102d32d861e1e2041b38e16a60332ffae226a2251"),
    "cover zdg --n 210 --method join": (0, "fe885896048c6931b34a808dead8b1a4a9c3f4bb211c13c3b0a59c3e3d425168"),
    "cover zdg --n 330 --method join": (0, "b7d4baa916f529882a327a625cf99c9187397fbc5892de43a1e5d465811c82cc"),
    "cover boolean --k 2 --method join": (0, "29adec34fdacdadc8250ab40034830b1b6111901d254416a55e338836c93a7a2"),
    "cover boolean --k 3 --method join": (0, "b490a2b1d30011daaeb486bd9dcf8c2dbf166ce258c7cd56195439879d891471"),
    "cover boolean --k 4 --method join": (0, "f65f11ff11f98c567b4c2539d26054acbfdaf4f9e849cd28fdb5568d3a70fc45"),
    "cover boolean --k 5 --method join": (0, "b3f933c28e8874c6fcf8f4af975ad13aa559136a985694d0817f7c1b86c6fef8"),
    "cover boolean --k 6 --method join": (0, "44b24a13468d6b9ddf5b496ef38a33a7d5f0089c89eb08ea7379ffc635a3df8a"),
    "cover circular --k 4 --d 2": (0, "03796479c209ab76595334a72f2a3993b267cf04b96aebc029f3a17e2117edd0"),
    "cover circular --k 6 --d 3": (0, "85614c7d2217da7a5feea1e20adddcef76c1f4c4aacdc0dd0300db00851fff99"),
    "cover circular --k 7 --d 2": (0, "cdb517ce663d0ca5b54ef826b265578027e460e38090e153c4bac400a7dc2e8e"),
    "cover circular --k 11 --d 4": (0, "694157c80f38053439bdfb75f770f2a7dbdf25c4d7565afec736c735ef641bee"),
    "cover circular --k 13 --d 5": (0, "9cc15aa97b518525e09ec379284271254ffdf37f7d3442e182e8e5d3d1a86812"),
    "cover circular --k 30 --d 4": (0, "c15f14d21fae9968afcff02a5aad7a62ad6511fd2d93df2e59d302515f1a7c40"),
    "cover circular --k 11 --d 5": (0, "ad15d0034b5c6e628d6d65f6290f3473980fb32303665b16c2ac8acc25d84678"),
    "cover circular --k 13 --d 6": (0, "17b31dc66ecee47b77473db13e7bc20452fff55b28872de5533f630715f512ad"),
    "cover circular --k 17 --d 7": (0, "14d9b7c2c6ede0a91b278426e28457d413c9e4673df25e43c9fad3dc9d05b7ed"),
    "cover join --outer @p3 --part @c4 --part @k2 --part @e3": (0, "0b53eac1aa51043cad069e74fdf1a79373db4370e6a892e402c44e93e2ac4e0d"),
    "cover join --outer @k3 --part @k3 --part @c4 --part @p3 --skip 0": (0, "e605bb30cff73d927adc6bb23cf8dc182203cc18dce833870cf435fc1f3054b2"),
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
    "cover zdg --n 2310": (0, "9c7555a312bc4c9b1937bd644c41beeeebca1e84910871c752d6be65cf776af8"),
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
    "cover boolean --k 8": (0, "1f8ad465ebdeb7c6469da4d3212507cf564f7180f2e9cbf999b08099940a1038"),
    "cover boolean --k 8 --method join": (0, "a3335aa92cf154e636c07d759fe1ff5a390fb6f4ce3dc22c3b113f440aa9733f"),
    "cover zdg --n 5040": (0, "040709584ccdc1783f09fcea3a325075fd969152ff912ea7b417e3ae006c88b8"),
    "zdg report --n 5040": (0, "5038fd6191a77243a56629425b5612c2f556c8214851a0c23035d5d15e84557d"),
    "cover zdg --n 9 --method join": (0, "125a104081bc1c88f2c1957f877dc014c6c69980b901206edce1ea3f8a717e43"),
    "verify --graph @z72 --cover @z72_join_fractional": (0, "df445f3d5d344ad8982e7cb8ace0e789d031222411b7436ae71bb4b85f485020"),
    "verify --graph @c11_4 --cover @c11_4_fractional": (0, "df445f3d5d344ad8982e7cb8ace0e789d031222411b7436ae71bb4b85f485020"),
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


def is_integral(argv, data) -> bool:
    """Whether every endpoint of a `cover` or `box` output has denominator 1;
    other outputs, and a `box` that found no cover, pass as they are."""
    if data is None or argv[0] not in ("cover", "box"):
        return True
    obj = json.loads(data)
    cover = obj.get("cover") if argv[0] == "box" else obj
    return cover is None or all(
        den == 1 for rep in cover["reps"] for ends in rep["intervals"].values() for _, den in ends
    )


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
        elif not is_integral(argv, data):
            failures += 1
            print(f"NOT INTEGRAL {key(argv)}: an endpoint has a denominator other than 1")
    print(f"{len(CORPUS)} cases, {failures} mismatches on Python {sys.version.split()[0]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
