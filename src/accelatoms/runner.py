"""Scenario execution: a dynamics scenario expands into runs, integrated
(optionally fanned out over worker processes); the condensate design computes
its sweeps. Either returns tables and summary sections, with no I/O, and one
writer turns them into deterministic CSV files plus a summary report.

Float formatting is pinned to 17 significant digits with '.' decimal separator
and '\n' line endings so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bec
from .config import (ScenarioConfig, _run_labels, resolve_alphas, resolve_couplings,
                     resolve_omegas, validate)
from .dynamics import evolve
from .errors import ConfigError
from .kinematics import AtomSpec, FrameConfig
from .liouvillian import (N_MAX_DENSE_DEFAULT, LindbladGenerator, build_hamiltonian,
                          steady_state_analysis)
from .operators import product_state
from .rates import cross_wedge_rates, same_wedge_rates


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path: Path, header: list[str], rows) -> None:
    # one "%.17g" per value, formatted a row at a time: the same text as fmt
    row_format = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines.extend(row_format % tuple(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", newline="\n")


@dataclass(frozen=True)
class RunSpec:
    label: str
    frame: FrameConfig
    atoms: tuple[AtomSpec, ...]
    initial: str  # per-atom 'e'/'g' letters
    t_max: float
    dt: float
    record_every: int
    pair: tuple[int, int] | None


def _make_runs(config: ScenarioConfig) -> list[RunSpec]:
    n = config.n_atoms
    pair = None if n < 2 else (config.concurrence_pair[0] - 1, config.concurrence_pair[1] - 1)
    common = dict(t_max=config.t_max, dt=config.dt, record_every=config.record_every, pair=pair)
    couplings = resolve_couplings(config)
    if config.initial_state == "explicit":
        initial = config.initial_pattern
    else:
        initial = ("e" if config.initial_state == "all_excited" else "g") * n

    def spec(label, alphas, omega_rule=None, wedges=None):
        frame = FrameConfig(a=alphas[0], eps_res=config.eps_res, gamma0=config.gamma0)
        omegas = resolve_omegas(config, alphas, omega_rule or config.omega_rule)
        wedge_list = wedges or ["I"] * n
        atoms = tuple(AtomSpec(omega=w, alpha=al, wedge=wd, g=c)
                      for w, al, wd, c in zip(omegas, alphas, wedge_list, couplings))
        return RunSpec(label=label, frame=frame, atoms=atoms, initial=initial, **common)

    # (alphas, omega rule, wedges) of each run, in the order of _run_labels
    if config.scenario == "equal_acceleration_sweep":
        variants = [([a] * n,) for a in config.sweep_alphas]
    elif config.scenario == "mismatch_cases":
        variants = [([config.alpha_equal] * n, "equal"),
                    ([config.alpha_base + config.delta_equal_omega * j for j in range(n)],
                     "equal")]
        variants += [([config.alpha_base + d * j for j in range(n)], "resonant")
                     for d in config.deltas_resonant]
    elif config.scenario == "counter_wedge":
        variants = [(resolve_alphas(config), None, list(config.wedges))]
    else:
        variants = [(resolve_alphas(config),)]
    return [spec(label, *v) for label, v in zip(_run_labels(config), variants)]


def execute_run(run: RunSpec):
    """One run's table (label, header, t and record columns) and its summary
    section (section, items)."""
    n_i = sum(1 for a in run.atoms if a.wedge == "I")
    if n_i < len(run.atoms):
        rates = cross_wedge_rates(run.frame, run.atoms[:n_i], run.atoms[n_i:])
        H = None  # counter-accelerating evolution stays in the interaction picture
    else:
        rates = same_wedge_rates(run.frame, run.atoms)
        H = build_hamiltonian(run.atoms, run.frame)
    rho0 = product_state(run.initial)
    series = evolve(rho0, H, rates, t_max=run.t_max, dt=run.dt,
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
    if n <= N_MAX_DENSE_DEFAULT:
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
        write_csv(path, header, table.tolist())
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


def _run_bec_design(config: ScenarioConfig):
    """The condensate design's tables and summary sections."""
    bath = bec.BogoliubovBath(m=config.bec_m, mu=config.bec_mu, n0=config.bec_n0,
                              L=config.bec_length, u0=config.bec_u0,
                              T=config.bec_temperature)
    k_unit = math.sqrt(bath.m * bath.mu)
    ks = np.geomspace(config.k_min, config.k_max, config.k_points) * k_unit
    modes = [bec.bogoliubov_mode(bath, k) for k in ks]
    dispersion = np.array([(m.k, m.E, m.u, m.v, m.S) for m in modes], dtype=float)

    v0, mass, g = config.tweezer_depth, config.tweezer_mass, config.tweezer_coupling
    w_lo, w_hi = bec.two_level_window(v0, mass)
    margin = 1e-6 * (w_hi - w_lo)
    sweep = []
    for w in np.linspace(w_lo + margin, w_hi - margin, config.waist_points):
        tw = bec.TweezerSpec(V0=v0, w=w, M=mass, g=g)
        a0 = bec.variational_width(tw)
        sweep.append((w, a0, bec.transition_energy(tw, a0)))
    sweep = np.array(sweep, dtype=float)

    tweezers = [bec.TweezerSpec(V0=v0, w=w, M=mass, x=x, g=g)
                for w, x in zip(config.tweezer_waists, config.tweezer_positions)]
    mapping = bec.map_to_detector_model(bath, tweezers, eps_res=config.eps_res)
    a0_ref = bec.variational_width(tweezers[0])
    couplings = np.array([(m.k, *map(abs, bec.coupling_tensor(bath, m, a0_ref, g)))
                          for m in modes], dtype=float)

    depths = np.linspace(config.nb_depth_min, config.nb_depth_max, config.nb_grid_points)
    grid_waists = np.linspace(config.nb_waist_min, config.nb_waist_max, config.nb_grid_points)
    cell_depths = np.repeat(depths, config.nb_grid_points)
    cell_waists = np.tile(grid_waists, config.nb_grid_points)
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
        tables, sections = _run_bec_design(config)
    else:
        runs = _make_runs(config)
        if threads > 1 and len(runs) > 1:
            # the pool forks all its workers at once, so start no idle ones
            with ProcessPoolExecutor(max_workers=min(threads, len(runs))) as pool:
                results = list(pool.map(execute_run, runs))
        else:
            results = [execute_run(run) for run in runs]
        tables, sections = zip(*results)
    return _write_outputs(out, config, tables, sections)
