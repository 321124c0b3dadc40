"""The mutant table's format: every mutant is live and aimed at real tests.

Running the mutants is `python tests/mutants.py`, outside Tier-1.
"""

import ast

import pytest

from mutants import MUTANTS, ROOT, occurrences


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_edits_one_live_text_of_the_package(mutant):
    assert mutant.file.startswith("src/boxlab/") and mutant.file.endswith(".py")
    assert occurrences(mutant) == 1, f"{mutant.name} is stale: its text must occur once in {mutant.file}"
    assert mutant.replacement != mutant.text


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_names_tests_that_exist(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        path, _, name = test_id.partition("::")
        assert path.startswith("tests/test_") and name, test_id
        tree = ast.parse((ROOT / path).read_text())
        assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, test_id
