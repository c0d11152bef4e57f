"""The fresh-process table of tests/cli_cases.py, checked alone: ids are
unique, each argv names a command, each `same_as` names an earlier row,
and each JSON spec file of a row that should succeed decodes."""
import json

import pytest

from cli_cases import CASES
from lighttails import cli

# the rows whose argv names no command of the table
TOP_LEVEL = {"help-top": "--help", "no-command": "", "unknown-command": "frob"}


def test_ids_are_unique():
    ids = [case.id for case in CASES]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.id)
def test_a_row_names_its_command_and_its_twin(case):
    command = (case.argv.split() or [""])[0]
    assert command in cli._SUBCOMMANDS or TOP_LEVEL.get(case.id) == command
    assert (case.error is None) or case.code
    if case.same_as:
        earlier = [c.id for c in CASES[:CASES.index(case)]]
        assert case.same_as in earlier and case.check is None


@pytest.mark.parametrize("case", [c for c in CASES if c.files and not c.code], ids=lambda case: case.id)
def test_a_spec_file_decodes(case, tmp_path):
    for name, content in case.files.items():
        path = tmp_path / name
        path.write_bytes(content if isinstance(content, bytes)
                         else json.dumps({"schema": 1, "spec": content}).encode())
        cli._load_spec(str(path), scalar=case.argv.split()[0] in ("norms", "entropy-check"))
