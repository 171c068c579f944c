"""Scenario execution: expands a configuration into runs, integrates them
(optionally fanned out over worker processes), and writes deterministic CSV
time series plus a summary report.

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
from .config import ScenarioConfig, resolve_alphas, resolve_couplings, resolve_omegas, validate
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


@dataclass
class RunResult:
    label: str
    times: np.ndarray
    columns: tuple[str, ...]
    records: np.ndarray
    summary: dict


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

    if config.scenario == "equal_acceleration_sweep":
        return [spec(f"alpha_{a:g}".replace(".", "p"), [a] * n)
                for a in config.sweep_alphas]
    if config.scenario == "mismatch_cases":
        runs = [spec("case_a", [config.alpha_equal] * n, omega_rule="equal"),
                spec("case_b",
                     [config.alpha_base + config.delta_equal_omega * j for j in range(n)],
                     omega_rule="equal")]
        for d in config.deltas_resonant:
            runs.append(spec(f"case_c_dalpha_{d:g}".replace(".", "p"),
                             [config.alpha_base + d * j for j in range(n)],
                             omega_rule="resonant"))
        return runs
    if config.scenario == "counter_wedge":
        return [spec("counter", resolve_alphas(config), wedges=list(config.wedges))]
    return [spec("run", resolve_alphas(config))]


def execute_run(run: RunSpec) -> RunResult:
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
    summary = {f"P_inf_{j + 1}": series.column(f"P_{j + 1}")[-1] for j in range(n)}
    summary.update({
        "P_inf_total": series.column("P_tot")[-1],
        "R_peak": r_tot[peak_idx],
        "t_R_peak": series.times[peak_idx],
        "C_coh_final": series.column("C_coh")[-1],
        "C_conc_peak": series.column("C_conc").max(),
        "max_trace_drift": series.max_trace_drift,
    })
    if n <= N_MAX_DENSE_DEFAULT:
        blocks = LindbladGenerator(H, rates).invariant_blocks()
        summary["liouvillian_zero_multiplicity"] = sum(
            steady_state_analysis(block, zero_tol=1e-9 * run.frame.gamma0).zero_multiplicity
            for block in blocks)
    return RunResult(run.label, series.times, series.columns, series.records, summary)


def _write_run_outputs(out_dir: Path, config: ScenarioConfig,
                       results: list[RunResult]) -> list[Path]:
    written = []
    for res in results:
        path = out_dir / f"{res.label}.csv"
        rows = np.column_stack([res.times, res.records]).tolist()
        write_csv(path, ["t", *res.columns], rows)
        written.append(path)
    lines = [f"schema_version = {config.schema_version}",
             f"scenario = {config.scenario}", ""]
    for res in results:
        lines.append(f"[run {res.label}]")
        for key, val in res.summary.items():
            lines.append(f"{key} = {val if isinstance(val, int) else fmt(val)}")
        lines.append("")
    summary_path = out_dir / "summary.txt"
    summary_path.write_text("\n".join(lines), newline="\n")
    written.append(summary_path)
    return written


def _run_bec_design(config: ScenarioConfig, out_dir: Path) -> list[Path]:
    bath = bec.BogoliubovBath(m=config.bec_m, mu=config.bec_mu, n0=config.bec_n0,
                              L=config.bec_length, u0=config.bec_u0,
                              T=config.bec_temperature)
    k_unit = math.sqrt(bath.m * bath.mu)
    ks = np.geomspace(config.k_min, config.k_max, config.k_points) * k_unit
    modes = [bec.bogoliubov_mode(bath, k) for k in ks]
    written = []

    path = out_dir / "dispersion.csv"
    write_csv(path, ["k", "E", "u", "v", "S"],
              [[m.k, m.E, m.u, m.v, m.S] for m in modes])
    written.append(path)

    v0, mass = config.tweezer_depth, config.tweezer_mass
    w_lo, w_hi = bec.two_level_window(v0, mass)
    margin = 1e-6 * (w_hi - w_lo)
    waists = np.linspace(w_lo + margin, w_hi - margin, config.waist_points)
    rows = []
    for w in waists:
        tw = bec.TweezerSpec(V0=v0, w=w, M=mass, g=config.tweezer_coupling)
        a0 = bec.variational_width(tw)
        rows.append([w, a0, bec.transition_energy(tw, a0)])
    path = out_dir / "tweezer_sweep.csv"
    write_csv(path, ["w", "a0", "Omega"], rows)
    written.append(path)

    tweezers = [bec.TweezerSpec(V0=v0, w=w, M=mass, x=x, g=config.tweezer_coupling)
                for w, x in zip(config.tweezer_waists, config.tweezer_positions)]
    mapping = bec.map_to_detector_model(bath, tweezers, eps_res=config.eps_res)
    a0_ref = bec.variational_width(tweezers[0])
    rows = []
    for m in modes:
        g00, g11, g10 = bec.coupling_tensor(bath, m, a0_ref, config.tweezer_coupling)
        rows.append([m.k, abs(g00), abs(g11), abs(g10)])
    path = out_dir / "couplings.csv"
    write_csv(path, ["k", "G00_abs", "G11_abs", "G10_abs"], rows)
    written.append(path)

    depths = np.linspace(config.nb_depth_min, config.nb_depth_max, config.nb_grid_points)
    grid_waists = np.linspace(config.nb_waist_min, config.nb_waist_max, config.nb_grid_points)
    cell_depths = np.repeat(depths, config.nb_grid_points)
    cell_waists = np.tile(grid_waists, config.nb_grid_points)
    n_closed, n_numeric = bec.bound_state_counts(cell_depths, cell_waists, mass)
    agree = n_closed == n_numeric
    path = out_dir / "nb_grid.csv"
    write_csv(path, ["V0", "w", "nb_closed_form", "nb_numeric", "agree"],
              np.column_stack([cell_depths, cell_waists, n_closed, n_numeric, agree]).tolist())
    written.append(path)

    lines = [f"schema_version = {config.schema_version}", "scenario = bec_design", "",
             "[bath]"]
    for name in ("m", "mu", "n0", "L", "u0", "T"):
        lines.append(f"{name} = {fmt(getattr(bath, name))}")
    lines.append(f"mu_mismatch = {fmt(bath.mu_mismatch())}")
    lines.append("")
    lines.append("[detector_model]")
    lines.append(f"a = {fmt(mapping.frame.a)}")
    lines.append(f"gamma0 = {fmt(mapping.frame.gamma0)}")
    lines.append(f"stark_shift = {fmt(mapping.stark_shift)}")
    for i, (atom, x, k_res) in enumerate(zip(mapping.atoms, mapping.positions,
                                             mapping.resonant_k), start=1):
        lines.append(f"atom_{i}_omega = {fmt(atom.omega)}")
        lines.append(f"atom_{i}_coupling = {fmt(atom.g)}")
        lines.append(f"atom_{i}_position = {fmt(x)}")
        lines.append(f"atom_{i}_resonant_k = {fmt(k_res)}")
    for warning in mapping.warnings:
        lines.append(f"warning = {warning}")
    lines.append("")
    lines.append("[nb_comparison]")
    lines.append(f"grid_cells = {agree.size}")
    lines.append(f"disagreements = {int(np.count_nonzero(~agree))}")
    lines.append("")
    summary_path = out_dir / "summary.txt"
    summary_path.write_text("\n".join(lines), newline="\n")
    written.append(summary_path)
    return written


def run_scenario(config: ScenarioConfig, out_dir: str | Path,
                 threads: int = 1) -> list[Path]:
    """Validate, execute and write one scenario; returns the written paths."""
    diags = validate(config)
    if diags:
        raise ConfigError(diags)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.scenario == "bec_design":
        return _run_bec_design(config, out)
    runs = _make_runs(config)
    if threads > 1 and len(runs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(execute_run, runs))
    else:
        results = [execute_run(run) for run in runs]
    return _write_run_outputs(out, config, results)
