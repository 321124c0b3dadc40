"""Golden corpus: the exact bytes and exit code of fixed CLI commands.

Each case runs the command in-process with `-o FILE` and compares the
sha256 of the file and the exit code against values recorded from a
known-good build. Any change to an emitted certificate, however small,
fails here; regenerate only for an intended output change. Each JSON
output must also be the compact dump of its own object plus a newline,
and every endpoint of a `cover` or `box` output an integer. The cases and
their recorded values live in `golden_corpus.py`, which also runs them
without pytest.
"""

import pytest

from golden_corpus import CASE_ENV, CORPUS, GOLDEN, digest, is_canonical, is_integral, key, run_output


@pytest.mark.parametrize("argv", CORPUS, ids=key)
def test_golden_output(argv, tmp_path, capsys, monkeypatch):
    for name, value in CASE_ENV.get(key(argv), {}).items():
        monkeypatch.setenv(name, value)
    code, data = run_output(argv, tmp_path)
    assert (code, digest(data)) == GOLDEN[key(argv)]
    assert is_canonical(argv, data)
    assert is_integral(argv, data)
