"""Record the golden CLI documents that tests/test_golden.py replays.

    PYTHONPATH=src python tests/golden/record_golden.py

Each case in ``cases.json`` runs through ``permlab.cli.main`` with the
repository root as working directory (a latin strategy's file path is
echoed in the report header), and its stdout, with the header timestamp
blanked, is written to ``<case>.out`` next to this file. Re-record only
when an output change is intended: these files are what make a changed
document count as a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
CASES: dict[str, list[str]] = json.loads((HERE / "cases.json").read_text())

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def render(argv: list[str]) -> str:
    """Stdout of ``permlab argv`` with the header timestamp blanked."""
    from permlab.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"permlab {' '.join(argv)} exited {code}")
    return _TIMESTAMP.sub('"timestamp": ""', buf.getvalue(), count=1)


def main() -> int:
    os.chdir(REPO)
    for name, argv in sorted(CASES.items()):
        (HERE / f"{name}.out").write_text(render(argv))
        print(f"recorded {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
