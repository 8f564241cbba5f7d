"""Golden outputs: `qmp` bytes that a refactor or speedup must keep.

Every pinned output is one row of `tests/pinned.json`: the argv, the
sha256 of its stdout, its CI time budget where it has one, and the
commit and engine that recorded the hash.  `test_pinned_output` runs
each row in process; `python tests/pinned.py` runs each through the
installed `qmp` in CI.  A new pin is a new row, and the tests below keep
hash literals out of the test modules and the workflow.
"""

import hashlib
import pathlib
import re

import pytest

from pinned import ROWS
from qmpairs.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
HEX64 = re.compile(r"(?<![0-9a-fA-F])[0-9a-fA-F]{64}(?![0-9a-fA-F])")


# hashes as main writes, so that no output is held whole (theorem2 at
# range 5 writes 35 MB)
class _Sha256Writer:
    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode("utf-8"))
        return len(text)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: " ".join(row["argv"]))
def test_pinned_output(row):
    out = _Sha256Writer()
    assert main(row["argv"], out=out) == 0
    assert out.sha256.hexdigest() == row["sha256"]


def test_no_hash_literal_outside_the_table():
    paths = [*sorted((ROOT / "tests").glob("*.py")),
             ROOT / ".github" / "workflows" / "tests.yml"]
    found = [(path.name, match) for path in paths
             for match in HEX64.findall(path.read_text(encoding="utf-8"))]
    assert found == []


def test_rows_are_unique_by_argv():
    argvs = [tuple(row["argv"]) for row in ROWS]
    assert len(set(argvs)) == len(argvs)


def test_rows_are_well_formed():
    for row in ROWS:
        assert set(row) <= {"argv", "sha256", "budget", "provenance"}, row
        assert row["argv"] and all(isinstance(a, str) for a in row["argv"])
        assert re.fullmatch("[0-9a-f]{64}", row["sha256"]), row


def test_budgets_are_positive_integers():
    budgets = [row["budget"] for row in ROWS if "budget" in row]
    assert budgets
    assert all(type(b) is int and b > 0 for b in budgets), budgets


def test_every_row_has_provenance():
    for row in ROWS:
        assert isinstance(row.get("provenance"), str), row
        assert row["provenance"].strip(), row
