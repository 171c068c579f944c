"""Rewrite the preset reference that tests/test_reference.py compares against.

    PYTHONPATH=src python tests/data/reference/regenerate.py

Runs each shipped preset and writes tests/data/reference/<preset>/: summary.txt
whole, and of every CSV file its header and every k-th data row plus the last
(about 40 rows), each prefixed by its data-row index in a leading `row` column.
nb_grid.csv holds integer counts and is kept whole. It also writes
tests/data/reference/sha256.txt, one `digest  preset/file` line per full output
file, which the test session's terminal summary compares against. Regenerating
the reference changes a check: record why, and the largest deviation per file.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import sys
import tempfile
from pathlib import Path

from accelatoms import cli

HERE = Path(__file__).resolve().parent
ROWS_KEPT = 40
WHOLE = ("nb_grid.csv",)


def sample(path: Path) -> str:
    header, *rows = path.read_text().splitlines()
    step = 1 if path.name in WHOLE else max(1, math.ceil(len(rows) / ROWS_KEPT))
    kept = sorted({*range(0, len(rows), step), len(rows) - 1})
    return "\n".join([f"row,{header}", *(f"{i},{rows[i]}" for i in kept)]) + "\n"


def main() -> int:
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in cli.PRESETS:
            out = Path(tmp) / name
            if cli.main(["preset", name, "--out", str(out)]) != 0:
                return 1
            target = HERE / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir()
            for path in sorted(out.iterdir()):
                text = sample(path) if path.suffix == ".csv" else path.read_text()
                (target / path.name).write_text(text, newline="\n")
                digests.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
                               f"{name}/{path.name}\n")
    (HERE / "sha256.txt").write_text("".join(digests), newline="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
