"""Each N gets one `CompressedZN` record: N is factored and each structure built once.

`zdg_zn`, `compressed_zn` and `factor` are counted at every place the
package binds them, so a rebuild hidden behind any import is seen.
"""

import pytest

import boxlab.graphs
import boxlab.zdg
from boxlab import ConstructionDefectError
from boxlab.cli import run

COUNTED = ("zdg_zn", "compressed_zn", "factor")


@pytest.fixture
def calls(count_calls):
    return count_calls(boxlab.zdg, COUNTED)


def test_sweep_builds_one_record_per_composite(calls, capsys):
    assert run(["sweep", "zdg", "--nmax", "100"]) == 0
    composites = len(capsys.readouterr().out.strip().splitlines()) - 1
    assert composites == 74
    # one call per N in the loop (97 values): a record for each composite,
    # an InputError and no row for each of the 23 primes
    assert calls["compressed_zn"] == 97
    # one direct graph per record; the covers, whose one per-prime member
    # is a prime power's representation, and the box-one verdict read the record
    assert calls["zdg_zn"] == composites
    # each N is factored once, inside compressed_zn
    assert calls["factor"] == 97


def test_report_factors_n_once(calls, capsys):
    # in the record, which also answers the prime test
    assert run(["zdg", "report", "--n", "2310"]) == 0
    assert calls["factor"] == 1
    assert calls["zdg_zn"] == 0


def test_cover_factors_n_once(calls, capsys):
    assert run(["cover", "zdg", "--n", "180"]) == 0
    assert calls == {"zdg_zn": 1, "compressed_zn": 1, "factor": 1}


def test_sweep_reports_a_record_defect_as_failed_row(monkeypatch, capsys):
    compressed_zn = boxlab.cli.compressed_zn

    def broken_at_12(n):
        if n == 12:
            raise ConstructionDefectError("broken for the test", n)
        return compressed_zn(n)

    monkeypatch.setattr(boxlab.cli, "compressed_zn", broken_at_12)
    code = run(["sweep", "zdg", "--nmax", "20"])
    out, err = capsys.readouterr()
    assert code == 1
    header, *lines = out.strip().splitlines()
    rows = {line.split("\t")[0]: dict(zip(header.split("\t"), line.split("\t"))) for line in lines}
    assert rows["12"]["status"] == "FAIL"
    assert rows["12"]["omega_chi"] == rows["12"]["cover"] == "FAIL"
    assert all(row["status"] == "PASS" for n, row in rows.items() if n != "12")
    assert err == "11 composite cases, 1 failures\n"


def test_zero_divisor_graphs_build_no_join(count_calls, package_imports, capsys):
    # the class-by-class check compares masks, so no join graph is built
    joins = count_calls(boxlab.graphs, ("generalized_join",))
    assert run(["sweep", "zdg", "--nmax", "100"]) == 0
    assert run(["cover", "zdg", "--n", "72", "--method", "join"]) == 0
    assert joins == {"generalized_join": 0}
    imported = {name.split(".")[-1] for name in package_imports["zdg.py"]}
    assert not imported & {"generalized_join", "complete_graph", "empty_graph"}
