import ast
import sys
from pathlib import Path

import pytest

import boxlab

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, names) counts calls to module's functions at every boxlab binding.

    Every loaded `boxlab` module that binds one of the functions gets the
    counting wrapper, so a call behind any import is seen. Returns the
    live {name: count} dict.
    """

    def install(module, names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "boxlab" and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        return counts

    return install


@pytest.fixture
def package_imports():
    """{file name: dotted names} of every package module's imports.

    Modules and imported names alike are listed, relative ones without
    their leading dots.
    """

    def names(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                yield node.module or ""
                yield from (f"{node.module or ''}.{alias.name}".lstrip(".") for alias in node.names)

    package = Path(boxlab.__file__).parent
    return {path.name: tuple(names(path)) for path in sorted(package.glob("*.py"))}
