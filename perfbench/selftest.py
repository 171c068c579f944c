"""Shows that the correctness checks can fail.

    python3 perfbench/selftest.py

Runs each workload once (seed 0) through child.py, confirms the checks accept
the pristine output, then feeds them perturbed outputs or a perturbed oracle
(rates off by 1 %, one altered byte, ...) and confirms each is rejected.
Exits 0 only if the pristine outputs pass and every perturbation is caught.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORK = HERE / "_out" / "selftest"


def edit_csv(path: Path, fn) -> None:
    header, data = checks.read_csv(path)
    fn(data, {c: i for i, c in enumerate(header)})
    lines = [",".join(header)] + [",".join(format(float(v), ".17g") for v in row)
                                  for row in data]
    path.write_text("\n".join(lines) + "\n")


def set_summary(out: Path, key: str, fn) -> None:
    """Replace the value of `key` in summary.txt by fn(old value)."""
    path = out / "summary.txt"
    lines = [f"{key} = {fn(ln.split('=', 1)[1].strip())}" if ln.startswith(f"{key} = ") else ln
             for ln in path.read_text().splitlines()]
    path.write_text("\n".join(lines))


def scale(col: str, row: int, factor: float, name: str = None):
    def edit(out: Path) -> None:
        target = out / name if name else sorted(out.glob("*.csv"))[0]

        def fn(data, idx):
            data[row, idx[col]] *= factor
        edit_csv(target, fn)
    return edit


def set_value(col: str, row, value: float, name: str = None):
    def edit(out: Path) -> None:
        target = out / name if name else sorted(out.glob("*.csv"))[0]

        def fn(data, idx):
            data[row, idx[col]] = value
        edit_csv(target, fn)
    return edit


def nb_off_by_two(out: Path) -> None:
    def fn(data, idx):
        data[0, idx["nb_numeric"]] += 2
        data[0, idx["agree"]] = float(data[0, idx["nb_closed_form"]] == data[0, idx["nb_numeric"]])
    edit_csv(out / "nb_grid.csv", fn)
    _, data = checks.read_csv(out / "nb_grid.csv")
    set_summary(out, "disagreements", lambda _: int((data[:, 4] == 0).sum()))


def perturbed_params(key: str, factor: float):
    def edit(p: dict) -> dict:
        q = dict(p)
        q[key] = q[key] * factor
        return q
    return edit


# workload -> list of (description, text the expected failure contains,
#                      output edit or None, params edit or None)
CASES = {
    "fig2_sweep": [
        ("rates off by 1 % (gamma0 x 1.01 in the oracle)", "Dicke ladder", None,
         perturbed_params("gamma0", 1.01)),
        ("R_tot of one row x 1.0001", "Dicke ladder", scale("R_tot", 7, 1.0001), None),
        ("P_tot and P_1 of one row x (1 + 1e-7)", "Dicke ladder",
         lambda out: [scale(c, 5, 1 + 1e-7)(out) for c in ("P_1", "P_tot")], None),
        ("C_conc of one row = 1e-3", "identically 0", set_value("C_conc", 3, 1e-3), None),
        ("R_tot peak moved to the last row", "not interior", set_value("R_tot", -1, 1e3), None),
        ("trace_err of one row = 1e-5", "trace_err", set_value("trace_err", 2, 1e-5), None),
        ("min_eig of one row = -1e-5", "min_eig", set_value("min_eig", 2, -1e-5), None),
    ],
    "counter_dense": [
        ("rates off by 1 % (gamma0 x 1.01 in the oracle)", "Dicke ladder", None,
         perturbed_params("gamma0", 1.01)),
        ("acceleration off by 1 % in the oracle", "Dicke ladder", None,
         perturbed_params("alpha", 1.01)),
        ("P_3 of one row x 1.0001", "wedge II", scale("P_3", 100, 1.0001, "counter.csv"), None),
        ("C_conc identically 0", "never rises",
         lambda out: [set_value("C_conc", slice(None), 0.0, "counter.csv")(out),
                      set_summary(out, "C_conc_peak", lambda _: 0)], None),
        ("Liouvillian zero multiplicity 0", "zero eigenvalue",
         lambda out: set_summary(out, "liouvillian_zero_multiplicity", lambda _: 0), None),
    ],
    "bec_design": [
        ("tweezer mass off by 1 % in the oracle", "variational-width", None,
         perturbed_params("tweezer_mass", 1.01)),
        ("u of one row x 1.01", "u^2 - v^2", scale("u", 10, 1.01, "dispersion.csv"), None),
        ("E of one row x 1.001", "E^2", scale("E", 500, 1.001, "dispersion.csv"), None),
        ("a0 of one row x 1.001", "variational-width", scale("a0", 50, 1.001, "tweezer_sweep.csv"), None),
        ("|G10| of one row x 1.01", "|G10|", scale("G10_abs", 300, 1.01, "couplings.csv"), None),
        ("|G11| of one row x 1.01", "|G11|", scale("G11_abs", 300, 1.01, "couplings.csv"), None),
        ("numeric bound-state count + 2 in one cell", "finer-grid", nb_off_by_two, None),
        ("summary disagreements + 1", "disagreements",
         lambda out: set_summary(out, "disagreements", lambda v: int(v) + 1), None),
    ],
}


def one_byte_altered(out: Path) -> bool:
    """check_identical must reject two executions that differ in one byte."""
    copy = WORK / "byte"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out, copy)
    target = sorted(copy.glob("*.csv"))[0]
    raw = bytearray(target.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    target.write_bytes(bytes(raw))

    def digests(d: Path) -> dict:
        return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(d.iterdir())}
    return bool(checks.check_identical([digests(out), digests(copy)]))


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    ok = True
    for wl in workloads.WORKLOADS:
        params = workloads.params(wl, 0)
        cfg = WORK / f"{wl}.cfg"
        cfg.write_text(workloads.config_text(wl, params))
        pristine = WORK / wl
        t0 = time.monotonic()
        if run.execute(cfg, pristine, None, 150.0) is None:
            print(f"{wl}: execution failed")
            return 1
        fails = checks.check_outputs(wl, params, pristine)
        status = "accepted" if not fails else f"REJECTED {fails}"
        ok &= not fails
        print(f"{wl}: pristine output {status} ({time.monotonic() - t0:.1f} s)")
        for desc, expect, edit_out, edit_params in CASES[wl]:
            copy = WORK / f"{wl}_perturbed"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(pristine, copy)
            if edit_out:
                edit_out(copy)
            fails = checks.check_outputs(wl, edit_params(params) if edit_params else params, copy)
            hits = [f for f in fails if expect in f]
            ok &= bool(hits)
            print(f"  {'caught' if hits else 'MISSED'}: {desc}"
                  + (f" -> {hits[0]}" if hits else f" (failures: {fails})"))
        caught = one_byte_altered(pristine)
        ok &= caught
        print(f"  {'caught' if caught else 'MISSED'}: one byte altered in a repeated execution")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
