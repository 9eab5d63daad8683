"""Golden CLI documents: every recorded command replays byte for byte.

The corpus under ``tests/golden/`` covers each subcommand and target mode;
``tests/golden/record_golden.py`` writes it. A mismatch means a document
changed, which the reproducibility contract forbids.
"""

import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

from record_golden import CASES, REPO, render  # noqa: E402


@pytest.mark.parametrize("name", sorted(CASES))
def test_replays_byte_for_byte(name, monkeypatch):
    monkeypatch.chdir(REPO)
    assert render(CASES[name]) == (GOLDEN / f"{name}.out").read_text()
