"""Rewrite the preset reference that tests/test_reference.py compares against.

    PYTHONPATH=src python tests/data/reference/regenerate.py

Runs each shipped preset and writes tests/data/reference/<preset>/: summary.txt
whole, and of every CSV file its header and every k-th data row plus the last
(about 40 rows), each prefixed by its data-row index in a leading `row` column.
nb_grid.csv holds integer counts and is kept whole. It also writes
tests/data/reference/sha256.txt, one `digest  preset/file` line per full output
file, which the test session's terminal summary compares against. Regenerating
the reference changes a check: record why, and the largest deviation per file,
which this script prints for every file it rewrites (for sha256.txt, the number
of digests that changed).
"""

from __future__ import annotations

import hashlib
import math
import re
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


def deviation(old: str, new: str) -> str:
    """The largest absolute difference between the numbers of two reference
    texts at the same line and field, or how their layouts differ."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return f"{len(new_lines)} lines, reference had {len(old_lines)}"
    worst = 0.0
    for lineno, (old_line, new_line) in enumerate(zip(old_lines, new_lines), start=1):
        old_fields, new_fields = re.split(r",| = ", old_line), re.split(r",| = ", new_line)
        if len(old_fields) != len(new_fields):
            return f"line {lineno} has {len(new_fields)} fields, reference had {len(old_fields)}"
        for a, b in zip(old_fields, new_fields):
            try:
                worst = max(worst, abs(float(a) - float(b)))
            except ValueError:  # a header, a key or a name
                if a != b:
                    return f"line {lineno}: {b!r} where the reference had {a!r}"
    return f"{worst:.3g}"


def main() -> int:
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in cli.PRESETS:
            out = Path(tmp) / name
            if cli.main(["preset", name, "--out", str(out)]) != 0:
                return 1
            target = HERE / name
            old = {path.name: path.read_text() for path in target.glob("*")}
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir()
            for path in sorted(out.iterdir()):
                text = sample(path) if path.suffix == ".csv" else path.read_text()
                (target / path.name).write_text(text, newline="\n")
                change = deviation(old[path.name], text) if path.name in old else "new file"
                print(f"{name}/{path.name}: largest |deviation| {change}")
                digests.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
                               f"{name}/{path.name}\n")
    sha = HERE / "sha256.txt"
    old_digests = set(sha.read_text().splitlines()) if sha.exists() else set()
    sha.write_text("".join(digests), newline="\n")
    changed = sum(line.rstrip("\n") not in old_digests for line in digests)
    print(f"sha256.txt: {changed} of {len(digests)} digests changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
