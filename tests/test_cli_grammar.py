"""The command-line grammar, pinned action by action.

Every parser under `build_parser()` is walked, and each of its actions
recorded with the attributes that decide what `parse_args` accepts and
returns, together with the parser's description and the handler the
command binds. A subcommand action also records the commands its help
lists, with their help text. `format_help()` is left out: its wrapping
depends on the terminal width and the Python version.
"""

import argparse

from boxlab.cli import build_parser


def _action(a):
    record = (
        type(a).__name__,
        tuple(a.option_strings),
        a.dest,
        a.required,
        a.type.__name__ if a.type else None,
        tuple(a.choices) if a.choices is not None else None,
        a.default,
        a.nargs,
        a.help,
    )
    if isinstance(a, argparse._SubParsersAction):
        record += (tuple((c.dest, c.help) for c in a._choices_actions),)
    return record


def grammar(parser, path="boxlab"):
    """(path, (description, handler name, actions)) for `parser` and every parser below it."""
    func = parser.get_default("func")
    yield path, (parser.description, func.__name__ if func else None, tuple(map(_action, parser._actions)))
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            for name, sub in a.choices.items():
                yield from grammar(sub, f"{path} {name}")


HELP = ("_HelpAction", ("-h", "--help"), "help", False, None, None, "==SUPPRESS==", 0, "show this help message and exit")
OUTPUT = ("_StoreAction", ("-o", "--output"), "output", False, None, None, None, None, None)

GRAMMAR = {
    "boxlab": ("generate, cover, and verify interval-graph certificates", None, (
        HELP,
        ("_SubParsersAction", (), "verb", True, None, ("gen", "cover", "verify", "box", "zdg", "sweep"), None, "A...", None, (
            ("gen", "emit a graph as JSON"),
            ("cover", "emit a verified cover as JSON"),
            ("verify", "check a cover against a graph"),
            ("box", "exact boxicity with witness cover"),
            ("zdg", "zero-divisor graph reports"),
            ("sweep", "batch pass/fail tables"),
        )),
    )),
    "boxlab gen": (None, None, (
        HELP,
        ("_SubParsersAction", (), "family", True, None, ("circular", "zdg", "boolean"), None, "A...", None, ()),
    )),
    "boxlab gen circular": (None, "_cmd_gen", (
        HELP,
        ("_StoreAction", ("--k",), "k", True, "int", None, None, None, None),
        ("_StoreAction", ("--d",), "d", True, "int", None, None, None, None),
        OUTPUT,
    )),
    "boxlab gen zdg": (None, "_cmd_gen", (
        HELP,
        ("_StoreAction", ("--n",), "n", True, "int", None, None, None, None),
        ("_StoreTrueAction", ("--compressed",), "compressed", False, None, None, False, 0, None),
        OUTPUT,
    )),
    "boxlab gen boolean": (None, "_cmd_gen", (
        HELP,
        ("_StoreAction", ("--k",), "k", True, "int", None, None, None, None),
        OUTPUT,
    )),
    "boxlab cover": (None, None, (
        HELP,
        ("_SubParsersAction", (), "family", True, None, ("circular", "zdg", "boolean", "join"), None, "A...", None, ()),
    )),
    "boxlab cover circular": (None, "_cmd_cover", (
        HELP,
        ("_StoreAction", ("--k",), "k", True, "int", None, None, None, None),
        ("_StoreAction", ("--d",), "d", True, "int", None, None, None, None),
        OUTPUT,
    )),
    "boxlab cover zdg": (None, "_cmd_cover", (
        HELP,
        ("_StoreAction", ("--n",), "n", True, "int", None, None, None, None),
        ("_StoreAction", ("--method",), "method", False, None, ("prime", "join"), "prime", None, "prime: one threshold member per prime of N or vector coordinate (default); join: the paper's join construction"),
        OUTPUT,
    )),
    "boxlab cover boolean": (None, "_cmd_cover", (
        HELP,
        ("_StoreAction", ("--k",), "k", True, "int", None, None, None, None),
        ("_StoreAction", ("--method",), "method", False, None, ("prime", "join"), "prime", None, "prime: one threshold member per prime of N or vector coordinate (default); join: the paper's join construction"),
        OUTPUT,
    )),
    "boxlab cover join": (None, "_cmd_cover", (
        HELP,
        ("_StoreAction", ("--outer",), "outer", True, None, None, None, None, None),
        ("_AppendAction", ("--part",), "part", True, None, None, None, None, None),
        ("_AppendAction", ("--skip",), "skip", False, "int", None, None, None, None),
        OUTPUT,
    )),
    "boxlab verify": (None, "_cmd_verify", (
        HELP,
        ("_StoreAction", ("--graph",), "graph", True, None, None, None, None, None),
        ("_StoreAction", ("--cover",), "cover", True, None, None, None, None, None),
        OUTPUT,
    )),
    "boxlab box": (None, "_cmd_box", (
        HELP,
        ("_StoreAction", ("--graph",), "graph", True, None, None, None, None, None),
        ("_StoreAction", ("--max",), "max", False, "int", None, 8, None, None),
        OUTPUT,
    )),
    "boxlab zdg": (None, None, (
        HELP,
        ("_SubParsersAction", (), "action", True, None, ("report",), None, "A...", None, ()),
    )),
    "boxlab zdg report": (None, "_cmd_zdg_report", (
        HELP,
        ("_StoreAction", ("--n",), "n", True, "int", None, None, None, None),
        OUTPUT,
    )),
    "boxlab sweep": (None, None, (
        HELP,
        ("_SubParsersAction", (), "family", True, None, ("circular", "zdg"), None, "A...", None, ()),
    )),
    "boxlab sweep circular": (None, "_cmd_sweep_circular", (
        HELP,
        ("_StoreAction", ("--dmax",), "dmax", True, "int", None, None, None, None),
        ("_StoreAction", ("--kmax",), "kmax", True, "int", None, None, None, None),
        OUTPUT,
    )),
    "boxlab sweep zdg": (None, "_cmd_sweep_zdg", (
        HELP,
        ("_StoreAction", ("--nmax",), "nmax", True, "int", None, None, None, None),
        OUTPUT,
    )),
}


def test_every_command_keeps_its_options_and_handler():
    assert dict(grammar(build_parser())) == GRAMMAR
