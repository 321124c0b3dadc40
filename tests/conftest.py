import sys
from pathlib import Path

import pytest

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
