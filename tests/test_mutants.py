"""Every row of the mutation ledger (tests/mutants.py) still applies to the tree.

Running the rows takes a pytest run each, so the suite only checks that each
row's old text occurs exactly once in its file and that each test it names
is a test function of its file; ``python tests/mutants.py`` runs them.
"""

import ast

import pytest

from mutants import ROOT, ROWS


def test_row_names_are_unique():
    assert len({row.name for row in ROWS}) == len(ROWS)


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_every_row_applies_once_and_names_existing_tests(row):
    assert row.file.startswith("src/") and row.old != row.new
    assert (ROOT / row.file).read_text().count(row.old) == 1
    assert row.tests
    for test in row.tests:
        path, _, name = test.partition("::")
        tree = ast.parse((ROOT / path).read_text())
        assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, test
