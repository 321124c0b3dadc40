"""Command-line front end.

Subcommands: gen (emit graphs), cover (emit verified covers), verify (check
a cover against a graph), box (exact boxicity), zdg report (per-N summary),
sweep (batch pass/fail tables). Machine artifacts go to stdout or the -o
file; human summaries and diagnostics go to stderr. Output is deterministic
for fixed inputs: no timestamps, fixed key order, sorted edges.

Exit codes: 0 success / verified, 1 verification failed or internal
error, 2 input error (an unreadable input or an unwritable -o path), 3
resource budget exceeded. No exception leaves `run` as a traceback:
anything unexpected is one "internal error" line on stderr, and a
construction defect adds its witness as a line of JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .boxicity import DEFAULT_MAX_COVERS, boxicity_exact
from .circular import check_circular_budget, chi_cover, circular_chi, circular_clique
from .errors import ConstructionDefectError, InputError, ResourceBudgetError
from .graphs import graph_from_obj, graph_to_obj
from .intervals import VIOLATION_LIMIT, cover_from_obj, cover_to_json, make_cover, verify_cover
from .joins import reduced_cover, skip_join_cover
from .recognition import is_interval_graph
from .zdg import (
    boolean_ring_graph,
    check_direct_limit,
    compressed_box_bound,
    compressed_zn,
    expand_compressed,
    factor,
    is_box_one,
    omega_chi_certificate,
    reduced_ring_box_bounds,
    zdg_zn,
    zn_join_cover,
    zn_prime_cover,
    zn_report,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _emit(payload: dict | str, out_path: str | None) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and integers over the digit limit
        raise InputError(f"cannot read {path}: {exc}") from exc


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(args) -> int:
    if args.family == "circular":
        obj = graph_to_obj(circular_clique(args.k, args.d))
    elif args.family == "boolean":
        g, labels = boolean_ring_graph(args.k)
        obj = graph_to_obj(g)
        obj["labels"] = [list(vec) for vec in labels]
    elif args.compressed:
        c = compressed_zn(args.n)
        obj = graph_to_obj(c.graph)
        obj["labels"] = list(c.divisors)
        obj["class_size"] = list(c.sizes)
        obj["class_complete"] = list(c.complete)
    else:
        g, labels = zdg_zn(args.n)
        obj = graph_to_obj(g)
        obj["labels"] = list(labels)
    _emit(obj, args.output)
    return EXIT_OK


def _cmd_cover(args) -> int:
    if args.family == "circular":
        cover = chi_cover(args.k, args.d)
        what = f" = chi({args.k},{args.d})"
    elif args.family == "zdg":
        check_direct_limit(args.n)  # both covers span the direct graph: refused before the record
        c = compressed_zn(args.n)
        cover = zn_join_cover(c) if args.method == "join" else zn_prime_cover(c)
        what = f" for the zero-divisor graph of {args.n}"
    elif args.family == "boolean":
        if args.method == "join":
            cover = reduced_cover(boolean_ring_graph(args.k)[0])
        else:
            cover = reduced_ring_box_bounds(args.k)
        what = ""
    else:  # join
        outer = graph_from_obj(_load_json(args.outer))
        parts = [graph_from_obj(_load_json(p)) for p in args.part]
        cover = skip_join_cover(outer, parts, args.skip or ())
        what = " for the join"
    # written first, so a cover that cannot be written is never reported
    _emit(cover_to_json(cover), args.output)
    _info(f"cover of size {len(cover)}{what} verified")
    return EXIT_OK


def _cmd_verify(args) -> int:
    claimed = graph_from_obj(_load_json(args.graph))
    cover = cover_from_obj(_load_json(args.cover))
    problems = ["embedded graph differs from --graph"] if cover.claimed_graph != claimed else []
    violations = verify_cover(make_cover(claimed, cover.reps))[1]
    problems += map(str, violations)
    result = {"verified": not problems, "violations": problems}
    _emit(result, args.output)
    for p in problems:
        _info(p)
    if len(violations) == VIOLATION_LIMIT:
        _info(f"the list stops at the limit of {VIOLATION_LIMIT} violations")
    if result["verified"]:
        _info(f"cover of size {len(cover.reps)} verified")
        return EXIT_OK
    return EXIT_VERIFY_FAILED


def _cmd_box(args) -> int:
    g = graph_from_obj(_load_json(args.graph))
    res = boxicity_exact(g, max_l=args.max)
    if res is None:
        _emit({"boxicity": None, "exceeded": True, "max": args.max}, args.output)
        _info(f"boxicity exceeds {args.max}")
        return EXIT_OK
    value, cover = res
    # the bytes of json.dumps({"boxicity": ..., "exceeded": False, "cover": ...}, indent=2)
    _emit(
        '{\n  "boxicity": %d,\n  "exceeded": false,\n  "cover": %s\n}'
        % (value, cover_to_json(cover, "\n  ")),
        args.output,
    )
    _info(f"boxicity {value} with verified witness cover")
    return EXIT_OK


def _cmd_zdg_report(args) -> int:
    report = zn_report(args.n)
    _emit(report, args.output)
    if report.get("prime"):
        _info("empty graph, boxicity 0 by convention")
    return EXIT_OK


def _sweep_table(header: str, rows: list[str], cases: str, out_path: str | None) -> int:
    """Write the table, then report its row count and its failures, the rows
    whose last cell, the status, is not PASS; any failure exits 1."""
    failures = sum(not row.endswith("\tPASS") for row in rows)
    _emit("\n".join([header, *rows]), out_path)
    _info(f"{len(rows)} {cases}, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def _cmd_sweep_circular(args) -> int:
    if args.dmax >= 2 and args.kmax >= 4:  # the sweep's largest graph, refused before any row
        check_circular_budget(args.kmax, 2)
    rows = []
    # k runs from 2d to kmax, so no d above kmax // 2 has a row
    for d in range(2, min(args.dmax, args.kmax // 2) + 1):
        for k in range(2 * d, args.kmax + 1):
            chi = circular_chi(k, d)
            try:
                # chi_cover builds ceil(k/d) = chi members and returns them only once verified
                rows.append(f"{k}\t{d}\t{chi}\t{len(chi_cover(k, d))}\tPASS")
            except ConstructionDefectError as exc:
                rows.append(f"{k}\t{d}\t{chi}\t-\tFAIL ({exc})")
    return _sweep_table("k\td\tchi\treps\tstatus", rows, "cases", args.output)


def _cell(check) -> str:
    """"ok" when check() returns a true value; a construction defect is a "FAIL" cell."""
    try:
        return "ok" if check() else "FAIL"
    except ConstructionDefectError:
        return "FAIL"


def _cmd_sweep_zdg(args) -> int:
    check_direct_limit(args.nmax)  # refused before any row
    rows = []
    for n in range(4, args.nmax + 1):
        try:
            c = compressed_zn(n)
        except InputError:
            continue  # a prime: no zero divisors
        except ConstructionDefectError:
            c = None  # then every cell that reads the record fails
        on_record = _cell if c else lambda check: "FAIL"
        # each construction runs inside its cell and raises on a defect
        cells = [
            on_record(lambda: omega_chi_certificate(c)),
            on_record(lambda: expand_compressed(c)),
            on_record(lambda: is_box_one(c) == is_interval_graph(c.direct[0])[0]),
        ]
        # r(N) verified members, one per prime of N
        prime = on_record(lambda: len(zn_prime_cover(c)) == len(c.f.exponents))
        if (c.f if c else factor(n)).is_prime_power:
            # the one verified member realizes the graph: it is the explicit rep
            cells += [prime, "-"]
        else:
            cells += [
                "-",
                on_record(lambda: len(zn_join_cover(c)) <= max(1, compressed_box_bound(c))),
            ]
        cells.append(prime)
        rows.append("\t".join([str(n), *cells, "FAIL" if "FAIL" in cells else "PASS"]))
    header = "N\tomega_chi\texpand\tbox_one\tpp_rep\tcover\tprime\tstatus"
    return _sweep_table(header, rows, "composite cases", args.output)


# ---------------------------------------------------------------------------
# parser


# the option specs that several commands share
_INT = {"type": int, "required": True}
_FILE = {"required": True}
_METHOD = {
    "choices": ("prime", "join"),
    "default": "prime",
    "help": "prime: one threshold member per prime of N or vector coordinate (default); "
    "join: the paper's join construction",
}


def _command(parser: argparse.ArgumentParser, func, **options: dict) -> None:
    """Give `parser` one --NAME option per keyword, then the shared -o/--output, and bind `func`."""
    for name, spec in options.items():
        parser.add_argument(f"--{name}", **spec)
    parser.add_argument("-o", "--output")
    parser.set_defaults(func=func)


def _group(verbs, name: str, dest: str, help: str):
    """Add the verb `name`, listed with `help`, whose commands are chosen into `dest`."""
    return verbs.add_parser(name, help=help).add_subparsers(dest=dest, required=True)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: `parse_args` returns a fresh namespace per call."""
    parser = argparse.ArgumentParser(
        prog="boxlab",
        description="generate, cover, and verify interval-graph certificates",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    gen = _group(verbs, "gen", "family", "emit a graph as JSON")
    _command(gen.add_parser("circular"), _cmd_gen, k=_INT, d=_INT)
    _command(gen.add_parser("zdg"), _cmd_gen, n=_INT, compressed={"action": "store_true"})
    _command(gen.add_parser("boolean"), _cmd_gen, k=_INT)

    cover = _group(verbs, "cover", "family", "emit a verified cover as JSON")
    _command(cover.add_parser("circular"), _cmd_cover, k=_INT, d=_INT)
    _command(cover.add_parser("zdg"), _cmd_cover, n=_INT, method=_METHOD)
    _command(cover.add_parser("boolean"), _cmd_cover, k=_INT, method=_METHOD)
    _command(cover.add_parser("join"), _cmd_cover, outer=_FILE,
             part={"action": "append", "required": True}, skip={"action": "append", "type": int})

    verify = verbs.add_parser("verify", help="check a cover against a graph")
    _command(verify, _cmd_verify, graph=_FILE, cover=_FILE)
    box = verbs.add_parser("box", help="exact boxicity with witness cover")
    _command(box, _cmd_box, graph=_FILE, max={"type": int, "default": DEFAULT_MAX_COVERS})

    zdg = _group(verbs, "zdg", "action", "zero-divisor graph reports")
    _command(zdg.add_parser("report"), _cmd_zdg_report, n=_INT)

    sweep = _group(verbs, "sweep", "family", "batch pass/fail tables")
    _command(sweep.add_parser("circular"), _cmd_sweep_circular, dmax=_INT, kmax=_INT)
    _command(sweep.add_parser("zdg"), _cmd_sweep_zdg, nmax=_INT)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InputError as exc:
        _info(f"input error: {exc}")
        return EXIT_INPUT
    except ResourceBudgetError as exc:
        _info(f"budget exceeded: {exc}")
        return EXIT_BUDGET
    except ConstructionDefectError as exc:
        _info(f"construction defect: {exc}")
        if exc.witness is not None:
            _info(json.dumps({"witness": exc.witness}, default=str))
        return EXIT_VERIFY_FAILED
    except Exception as exc:
        _info(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_VERIFY_FAILED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
