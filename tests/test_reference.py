"""The shipped presets' outputs against the committed reference in
tests/data/reference/<preset>/ (written by regenerate.py there).

Each value x must lie within |x - ref| <= ATOL + RTOL * |ref| of its reference
value. File names, headers, summary keys and sections, row counts and the
integer values named in EXACT must match exactly. The reference keeps every
summary.txt and nb_grid.csv whole and about 40 rows of every other CSV file,
each row prefixed by its data-row index; the last row is always kept, so its
index fixes the row count.
"""

from pathlib import Path

import pytest

RTOL = 1e-9
ATOL = 1e-12
EXACT = {"nb_closed_form", "nb_numeric", "agree", "schema_version",
         "liouvillian_zero_multiplicity", "grid_cells", "disagreements"}
REFERENCE = Path(__file__).resolve().parent / "data" / "reference"


def _mismatch(name: str, value: str, ref: str) -> str | None:
    """Why `value` fails its reference `ref` under `name`, or None."""
    try:
        x, r = float(value), float(ref)
    except ValueError:  # a scenario name or a warning
        return None if value == ref else f"{name}: {value!r} != {ref!r}"
    if name in EXACT:
        return None if value == ref else f"{name}: {value} != {ref} (exact)"
    if x == r or abs(x - r) <= ATOL + RTOL * abs(r):
        return None
    return f"{name}: {value} != {ref} (|diff| = {abs(x - r):.3g})"


def _compare_csv(path: Path, ref_path: Path) -> list[str]:
    header, *rows = path.read_text().splitlines()
    ref_header, *ref_rows = ref_path.read_text().splitlines()
    if ref_header != f"row,{header}":
        return [f"header {header!r} != {ref_header[4:]!r}"]
    names = header.split(",")
    problems = []
    last = int(ref_rows[-1].split(",", 1)[0])
    if len(rows) != last + 1:
        problems.append(f"{len(rows)} data rows, reference has {last + 1}")
    for ref_row in ref_rows:
        index, *ref_values = ref_row.split(",")
        if int(index) >= len(rows):
            continue
        values = rows[int(index)].split(",")
        problems += [f"row {index}: {p}" for name, value, ref in zip(names, values, ref_values)
                     if (p := _mismatch(name, value, ref))]
    return problems


def _compare_summary(path: Path, ref_path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    ref_lines = ref_path.read_text().splitlines()
    if len(lines) != len(ref_lines):
        return [f"{len(lines)} lines, reference has {len(ref_lines)}"]
    problems = []
    for lineno, (line, ref_line) in enumerate(zip(lines, ref_lines), start=1):
        key, _, value = line.partition(" = ")
        ref_key, _, ref_value = ref_line.partition(" = ")
        if key != ref_key:
            problems.append(f"line {lineno}: {line!r} != {ref_line!r}")
        elif p := _mismatch(key, value, ref_value):
            problems.append(f"line {lineno}: {p}")
    return problems


@pytest.mark.parametrize("preset", ["fig2", "fig4", "counter", "bec_design"])
def test_preset_outputs_match_the_reference(preset_outputs, preset):
    out, ref = preset_outputs[preset], REFERENCE / preset
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in ref.iterdir())
    problems = []
    for name in names:
        compare = _compare_summary if name == "summary.txt" else _compare_csv
        problems += [f"{name}: {p}" for p in compare(out / name, ref / name)]
    assert not problems, "\n".join(problems[:20])
