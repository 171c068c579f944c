"""Scenario execution: each run that config.expand_runs builds for a dynamics
scenario is integrated (optionally fanned out over worker processes); the
condensate design computes its sweeps. Either returns tables and summary
sections, with no I/O, and one writer turns them into deterministic CSV files
plus a summary report.

Float formatting is pinned to 17 significant digits with '.' decimal separator
and '\n' line endings so identical configurations produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import bec
from .config import DesignSpec, RunSpec, ScenarioConfig, expand_design, expand_runs, validate
from .dynamics import evolve
from .errors import ConfigError
from .liouvillian import LindbladGenerator, steady_state_analysis
from .operators import product_state

_SPECTRUM_N_MAX = 4  # atoms at most for the summary's zero multiplicity (blocks to 70 x 70)
_CSV_BLOCK_ROWS = 4096  # rows formatted and written at a time


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write the header and the rows (a 2-D array or a sequence of rows of
    numbers), _CSV_BLOCK_ROWS rows at a time, so that only one block's text
    is held; one "%.17g" per value, the same text as fmt, and one % per block."""
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    with path.open("w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = np.asarray(rows[start:start + _CSV_BLOCK_ROWS], dtype=float)
            fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def execute_run(run: RunSpec):
    """One run's table (label, header, t and record columns) and its summary
    section (section, items)."""
    H, rates = run.master_equation()
    series = evolve(product_state(run.initial), H, rates, t_max=run.t_max, dt=run.dt,
                    record_every=run.record_every,
                    concurrence_pair=run.pair or (0, 1))
    n = len(run.atoms)
    r_tot = series.column("R_tot")
    peak_idx = int(r_tot.argmax())
    items = [(f"P_inf_{j + 1}", series.column(f"P_{j + 1}")[-1]) for j in range(n)]
    items += [("P_inf_total", series.column("P_tot")[-1]),
              ("R_peak", r_tot[peak_idx]),
              ("t_R_peak", series.times[peak_idx]),
              ("C_coh_final", series.column("C_coh")[-1]),
              ("C_conc_peak", series.column("C_conc").max()),
              ("max_trace_drift", series.max_trace_drift)]
    if n <= _SPECTRUM_N_MAX:
        blocks = LindbladGenerator(H, rates).invariant_blocks()
        items.append(("liouvillian_zero_multiplicity", sum(
            steady_state_analysis(block, zero_tol=1e-9 * run.frame.gamma0).zero_multiplicity
            for block in blocks)))
    table = (run.label, ["t", *series.columns], np.column_stack([series.times, series.records]))
    return table, (f"run {run.label}", items)


def _write_outputs(out_dir: Path, config: ScenarioConfig, tables, sections) -> list[Path]:
    """Write each (name, header, 2-D float array) table as name.csv, then
    summary.txt with one [section] of `key = value` lines per (section, items);
    returns the paths in write order. An int or str value is written as it is,
    any other number through fmt."""
    written = []
    for name, header, table in tables:
        path = out_dir / f"{name}.csv"
        write_csv(path, header, table)
        written.append(path)
    lines = [f"schema_version = {config.schema_version}", f"scenario = {config.scenario}", ""]
    for section, items in sections:
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {val if isinstance(val, (int, str)) else fmt(val)}"
                     for key, val in items)
        lines.append("")
    path = out_dir / "summary.txt"
    path.write_text("\n".join(lines), newline="\n")
    written.append(path)
    return written


def _run_bec_design(design: DesignSpec):
    """The condensate design's tables and summary sections."""
    bath = design.bath
    modes = [bec.bogoliubov_mode(bath, k) for k in design.ks]
    dispersion = np.array([(m.k, m.E, m.u, m.v, m.S) for m in modes], dtype=float)

    tweezers = design.tweezers
    v0, mass, g = tweezers[0].V0, tweezers[0].M, tweezers[0].g
    waists = design.sweep_waists
    widths = bec.variational_widths(v0, waists, mass)
    sweep = np.array([(w, a0, bec.transition_energy(bec.TweezerSpec(V0=v0, w=w, M=mass, g=g), a0))
                      for w, a0 in zip(waists, widths)], dtype=float)

    mapping = bec.map_to_detector_model(bath, tweezers, eps_res=design.eps_res)
    a0_ref = bec.variational_width(tweezers[0])
    couplings = np.array([(m.k, *map(abs, bec.coupling_tensor(bath, m, a0_ref, g)))
                          for m in modes], dtype=float)

    cell_depths, cell_waists = design.cell_depths, design.cell_waists
    n_closed, n_numeric = bec.bound_state_counts(cell_depths, cell_waists, mass)
    agree = n_closed == n_numeric

    tables = [("dispersion", ["k", "E", "u", "v", "S"], dispersion),
              ("tweezer_sweep", ["w", "a0", "Omega"], sweep),
              ("couplings", ["k", "G00_abs", "G11_abs", "G10_abs"], couplings),
              ("nb_grid", ["V0", "w", "nb_closed_form", "nb_numeric", "agree"],
               np.column_stack([cell_depths, cell_waists, n_closed, n_numeric, agree]))]
    detector = [("a", mapping.frame.a), ("gamma0", mapping.frame.gamma0),
                ("stark_shift", mapping.stark_shift)]
    for i, (atom, x, k_res) in enumerate(zip(mapping.atoms, mapping.positions,
                                             mapping.resonant_k), start=1):
        detector += [(f"atom_{i}_omega", atom.omega), (f"atom_{i}_coupling", atom.g),
                     (f"atom_{i}_position", x), (f"atom_{i}_resonant_k", k_res)]
    detector += [("warning", warning) for warning in mapping.warnings]
    bath_items = [(name, getattr(bath, name)) for name in ("m", "mu", "n0", "L", "u0", "T")]
    sections = [("bath", bath_items + [("mu_mismatch", bath.mu_mismatch())]),
                ("detector_model", detector),
                ("nb_comparison", [("grid_cells", agree.size),
                                   ("disagreements", int(np.count_nonzero(~agree)))])]
    return tables, sections


def run_scenario(config: ScenarioConfig, out_dir: str | Path,
                 threads: int = 1) -> list[Path]:
    """Validate, execute and write one scenario; returns the written paths."""
    diags = validate(config)
    if diags:
        raise ConfigError(diags)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.scenario == "bec_design":
        tables, sections = _run_bec_design(expand_design(config))
    else:
        runs = expand_runs(config)
        if threads > 1 and len(runs) > 1:
            # imported here: multiprocessing and what it loads are for fanned-out runs only
            from concurrent.futures import ProcessPoolExecutor

            # the pool forks all its workers at once, so start no idle ones
            with ProcessPoolExecutor(max_workers=min(threads, len(runs))) as pool:
                results = list(pool.map(execute_run, runs))
        else:
            results = [execute_run(run) for run in runs]
        tables, sections = zip(*results)
    return _write_outputs(out, config, tables, sections)
