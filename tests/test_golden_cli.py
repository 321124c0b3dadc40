"""Golden corpus: the exact bytes and exit code of fixed CLI commands.

Each case runs the command in-process with `-o FILE` and compares the
sha256 of the file and the exit code against values recorded from a
known-good build. Any change to an emitted certificate, however small,
fails here; regenerate only for an intended output change.
"""

import hashlib
import json

import pytest

from boxlab import complete_graph, cycle_graph, empty_graph, graph_to_obj, path_graph
from boxlab.cli import run

INPUTS = {
    "c4": cycle_graph(4),
    "k2": complete_graph(2),
    "k3": complete_graph(3),
    "e3": empty_graph(3),
    "p3": path_graph(3),
}


def _join(outer, parts, skip=()):
    argv = ["cover", "join", "--outer", f"@{outer}"]
    for p in parts:
        argv += ["--part", f"@{p}"]
    for s in skip:
        argv += ["--skip", str(s)]
    return argv


CORPUS = (
    [["cover", "zdg", "--n", str(n)] for n in (6, 12, 45, 72, 100, 180, 210, 330)]
    + [["cover", "boolean", "--k", str(k)] for k in range(2, 7)]
    + [
        ["cover", "circular", "--k", str(k), "--d", str(d)]
        for k, d in ((4, 2), (6, 3), (7, 2), (11, 4), (13, 5), (30, 4))
    ]
    + [
        _join("p3", ["c4", "k2", "e3"]),
        _join("k3", ["k3", "c4", "p3"], skip=[0]),
        ["box", "--graph", "@c4"],
        ["zdg", "report", "--n", "72"],
        ["sweep", "circular", "--dmax", "4", "--kmax", "14"],
        ["sweep", "zdg", "--nmax", "60"],
    ]
)

GOLDEN = {
    "cover zdg --n 6": (0, "3ec96c416c83a26e300c9f72f42a4a1b0a01795085c5272d0fa7b3133ca88c50"),
    "cover zdg --n 12": (0, "3aac6df349810d1b6f7ad68fa67435309adf5258e26417f00b71d7603627a200"),
    "cover zdg --n 45": (0, "855d89e09a8c8d09e20ac362aa5d1f6775c3b8b3f087ae6f77bd468ab3c04080"),
    "cover zdg --n 72": (0, "d0382c1cea1499c66e63da850a70995560860049c01e7ab51586d68f0a3f687f"),
    "cover zdg --n 100": (0, "028f923f729ef438114972b91572169b26223877659da7ff57825471971afab1"),
    "cover zdg --n 180": (0, "99acad95756f012017a4ebca7b50fcdf141665f2b44b40b879e7fae7f834d23d"),
    "cover zdg --n 210": (0, "050a84690c3de69b6bca036acaafe872d5c77b2cd84e391241f796d0ae04a168"),
    "cover zdg --n 330": (0, "a95b9f6ae9f5268dc1f915d0ad290e2eee08889ec0c992b9fcba14f94732f67c"),
    "cover boolean --k 2": (0, "6a9ee846f8aaf2710e3b2fd52a7c2a2818318761a65601130509aee88823b308"),
    "cover boolean --k 3": (0, "4e0b94a4d4d2ed8ecca9abd4e7a007401cc4fd2be6739337f3a6f807191c754c"),
    "cover boolean --k 4": (0, "8655323378fafcf6aad13ce093cc1ac0155cbe8c601328628051c250c0c0a3a0"),
    "cover boolean --k 5": (0, "a82524a7e0e4bd2a49ef85e65194c23c1e2e60181dae18db48e24f8ef2518a60"),
    "cover boolean --k 6": (0, "858601a2b583834aa64451f563dd7068a3aa2d567dffa94a0c9c90312aa90242"),
    "cover circular --k 4 --d 2": (0, "82e77a65742973b7b84ab3d13dc2e823a85e83c453f959d89f21f6adfbceb19a"),
    "cover circular --k 6 --d 3": (0, "ee58ebd1c0f63f3ee292f5b0c954e198bb73d2b5c0bd99f327780c9c61ea1339"),
    "cover circular --k 7 --d 2": (0, "67a9bfc96dd368120d7b25d3e8612d4cc8013f31d5683dc6e85019f4406851bc"),
    "cover circular --k 11 --d 4": (0, "96b2fea524d2bcf21136f2d3237c192e21175219dc208aa85c1b737f775cd960"),
    "cover circular --k 13 --d 5": (0, "1d540b070cc0251da27614965d588e525d8f154b4cdc0ecbcb3d65b3ee79d416"),
    "cover circular --k 30 --d 4": (0, "241e67d9c19ce4d4c7f97af99f11e41a9f35735e9a8c73585481b5b3ba987e01"),
    "cover join --outer @p3 --part @c4 --part @k2 --part @e3": (0, "4b93037c93e84a01f3062ac2dcf893f36ecb72c9128b010ef6cd1e9952c6e9ae"),
    "cover join --outer @k3 --part @k3 --part @c4 --part @p3 --skip 0": (0, "160e8446b35625c42f9bd810db1eb9c9e6b167379342b071b53859da8353e8ed"),
    "box --graph @c4": (0, "7feebf231f189b92cb66006c02809c0a5efc9595e006fb41d2610458abd67200"),
    "zdg report --n 72": (0, "dbbbc55883130edd6d883fc465d9c5740edcf279df24ba1cd5f84de8c7651b35"),
    "sweep circular --dmax 4 --kmax 14": (0, "de43dbd5de6acd7dc228455a4d90cadc1899897f0e89f33558defb40e2bea919"),
    "sweep zdg --nmax 60": (0, "d987a90fa0c3202b661d62c8fee32dc659b054bfadc593d6ffe0f7785e935255"),
}


def _key(argv):
    return " ".join(argv)


def run_case(argv, tmp_path):
    """Run one corpus command; returns (exit code, sha256 of the -o file)."""
    resolved = []
    for arg in argv:
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps(graph_to_obj(INPUTS[arg[1:]])))
            arg = str(path)
        resolved.append(arg)
    out = tmp_path / "out"
    code = run(resolved + ["-o", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return code, digest


@pytest.mark.parametrize("argv", CORPUS, ids=_key)
def test_golden_output(argv, tmp_path, capsys):
    assert run_case(argv, tmp_path) == GOLDEN[_key(argv)]
