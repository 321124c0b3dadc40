"""Physical and logical line counts of each `src/boxlab` module, and their total.

Physical lines are every line of the file. Logical lines leave out blank
lines, comment-only lines, and the docstrings of the module and of each
class and function. It imports only the standard library:

    python tests/line_counts.py

prints one row per module, then the total.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boxlab"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers held by the module's, classes' and functions' docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def counts(source: str) -> tuple[int, int]:
    """(physical, logical) lines of one module's source."""
    lines = source.splitlines()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines), len(code - docstring_lines(ast.parse(source)))


def main() -> None:
    total_physical = total_logical = 0
    print(f"{'module':<16}{'physical':>10}{'logical':>10}")
    for path in sorted(PACKAGE.glob("*.py")):
        physical, logical = counts(path.read_text())
        total_physical += physical
        total_logical += logical
        print(f"{path.name:<16}{physical:>10}{logical:>10}")
    print(f"{'total':<16}{total_physical:>10}{total_logical:>10}")


if __name__ == "__main__":
    main()
