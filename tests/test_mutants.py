"""The mutation table of tests/mutants.py, checked alone: each row's old
text occurs exactly once in its file, each of its node ids names a test
function that exists, and its source names a CHANGES.md entry, so a
refactor that moves a mutated line or a test must carry the row along."""
import ast
import functools
import os

import pytest

from mutants import MUTANTS, ROOT, SRC


@functools.cache
def _tests(path):
    """The test functions of a test file, as 'Class::name' and 'name'."""
    with open(os.path.join(ROOT, path)) as fh:
        tree = ast.parse(fh.read())
    names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            names |= {f"{cls.name}::{node.name}" for node in cls.body
                      if isinstance(node, ast.FunctionDef)}
    return names


@pytest.mark.parametrize("row", MUTANTS, ids=lambda row: f"{row.file}:{row.new.strip()[:40]}")
def test_the_old_text_occurs_once(row):
    with open(os.path.join(SRC, "lighttails", row.file)) as fh:
        count = fh.read().count(row.old)
    assert count == 1, f"mutant row {row.new.strip()!r}: its old text occurs {count} times"


@pytest.mark.parametrize("row", MUTANTS, ids=lambda row: f"{row.file}:{row.new.strip()[:40]}")
def test_every_node_id_exists(row):
    with open(os.path.join(ROOT, "CHANGES.md")) as fh:
        assert f"- **{row.source}" in fh.read(), f"no CHANGES.md entry {row.source!r}"
    assert row.tests
    for node in row.tests:
        path, _, name = node.partition("::")
        assert name in _tests(path), f"mutant row {row.new.strip()!r}: no test {node}"
