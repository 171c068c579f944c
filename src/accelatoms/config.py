"""Scenario configuration: a flat key = value text format with a schema version.

Lines are `key = value`; `#` starts a comment; keys are snake_case. List values
are comma separated. `alphas` and `couplings` accept either an explicit list or
a rule (`equal: 2` or, for alphas, `mismatch: 0.2, 0.6` meaning
base + step*(j-1)). All simulation quantities are in natural units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .bec import (BogoliubovBath, TweezerSpec, bound_state_grid, dispersion,
                  map_to_detector_model, two_level_window, variational_widths)
from .dynamics import check_step
from .errors import ConfigError, DivergenceError, DomainError, NoRootError
from .kinematics import AtomSpec, FrameConfig
from .liouvillian import build_hamiltonian
from .rates import cross_wedge_rates, same_wedge_rates

SCHEMA_VERSION = 1
# The largest sector at N = 10 holds C(20, 10) = 184756 density-matrix pairs;
# from 37 nonzeros per row of L at N = 6 and 65 at N = 8 its CSR matrix is
# about 0.5 GB. At N = 12 the sector has 2.7 M pairs, beyond 8 GB of memory.
N_ATOMS_MAX = 10
# A step costs about 50 us on a lumped N = 6 sector and 0.5 ms on an unlumped
# one (924 pairs), so 10^7 steps take 8 minutes to 1.5 hours. Recorded every
# step, their 10^7 rows hold N + 7 floats each, 1.4 GB at N = 10, and the CSV
# takes about 4 GB.
N_STEPS_MAX = 10**7
# Grid sizes of bec_design, from runs at the preset values on a 2-core VM
# (run_scenario's wall time; VmHWM of the whole process, 38 MB for the
# preset): a wavenumber point (mode, coupling tensor, two table rows) takes
# 13 us and holds 0.7 kB until its tables are written, 1.3 s and a 109 MB peak
# at 10^5; a waist point (variational width, transition energy) takes 10 to
# 15 us and holds 0.4 kB, 1.0 to 1.6 s and an 81 MB peak at 10^5; and the
# nb_grid_points^2 bound-state counts run as one pass over the grid indices,
# 1.0 s and a 58 MB peak at 200. A run at all three caps takes 3 s and peaks
# at 114 MB.
BEC_GRID_MAX = {"k_points": 10**5, "waist_points": 10**5, "nb_grid_points": 200}

SCENARIOS = ("equal_acceleration_sweep", "mismatch_cases", "counter_wedge",
             "bec_design", "custom")
OMEGA_RULES = ("equal", "resonant", "explicit")
INITIAL_STATES = ("all_excited", "all_ground", "explicit")


@dataclass
class ScenarioConfig:
    schema_version: int = SCHEMA_VERSION
    scenario: str = "custom"
    n_atoms: int = 2
    alphas: str = "equal: 2"
    omega_rule: str = "equal"
    omega_ref: float = 1.0
    omegas: tuple[float, ...] = ()
    gamma0: float = 0.1
    eps_res: float = 1e-6
    couplings: str = "equal: 1"
    initial_state: str = "all_excited"
    initial_pattern: str = ""
    t_max: float = 20.0
    dt: float = 1e-3
    record_every: int = 10
    concurrence_pair: tuple[int, int] = (1, 2)  # 1-based atom labels
    output_path: str = ""
    wedges: tuple[str, ...] = ()
    # equal_acceleration_sweep
    sweep_alphas: tuple[float, ...] = (2.0, 4.0, 6.0, 8.0, 10.0)
    # mismatch_cases
    alpha_equal: float = 2.0
    alpha_base: float = 0.2
    delta_equal_omega: float = 0.6
    deltas_resonant: tuple[float, ...] = (0.6, 0.03)
    # bec_design
    bec_m: float = 1.0
    bec_mu: float = 1.0
    bec_n0: float = 50.0
    bec_length: float = 100.0
    bec_u0: float = 0.02
    bec_temperature: float = 0.5
    tweezer_depth: float = math.pi / 2.0
    tweezer_mass: float = 2.0
    tweezer_coupling: float = 0.0036
    tweezer_waists: tuple[float, ...] = (1.05,)
    tweezer_positions: tuple[float, ...] = (0.0,)
    k_min: float = 1e-3
    k_max: float = 10.0
    k_points: int = 1000
    waist_points: int = 200
    nb_grid_points: int = 20
    nb_depth_min: float = 0.5
    nb_depth_max: float = 8.0
    nb_waist_min: float = 0.4
    nb_waist_max: float = 2.4


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {raw.strip()!r}")
    return value


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(tok) for tok in raw.split(",") if tok.strip())


def _parse_strs(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _parse_pair(raw: str) -> tuple[int, int]:
    parts = [int(tok) for tok in raw.split(",") if tok.strip()]
    if len(parts) != 2:
        raise ValueError(f"expected two indices, got {raw!r}")
    return parts[0], parts[1]


# keyed by the field annotation, a string under `from __future__ import
# annotations`; parse_config strips each value before parsing it
_PARSERS = {
    "int": int,
    "float": _parse_float,
    "str": str,
    "tuple[float, ...]": _parse_floats,
    "tuple[str, ...]": _parse_strs,
    "tuple[int, int]": _parse_pair,
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse configuration text; raises ConfigError on any syntax problem."""
    diagnostics: list[str] = []
    values: dict[str, object] = {}
    known = {f.name: f for f in fields(ScenarioConfig)}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            diagnostics.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in known:
            diagnostics.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            diagnostics.append(f"line {lineno}: duplicate key {key!r}")
            continue
        parser = _PARSERS[known[key].type]
        try:
            values[key] = parser(raw)
        except ValueError as exc:
            diagnostics.append(f"line {lineno}: {key}: {exc}")
    if "schema_version" not in values:
        diagnostics.append("missing required key schema_version")
    elif values["schema_version"] != SCHEMA_VERSION:
        diagnostics.append(f"schema_version: unsupported version {values['schema_version']} "
                           f"(this build reads version {SCHEMA_VERSION})")
    if diagnostics:
        raise ConfigError(diagnostics)
    return ScenarioConfig(**values)


def resolve_alphas(config: ScenarioConfig) -> list[float]:
    """Expand the alphas field (rule or explicit list) to one value per atom."""
    raw = config.alphas.strip()
    n = config.n_atoms
    if raw.startswith("equal:"):
        return [_parse_float(raw.split(":", 1)[1])] * n
    if raw.startswith("mismatch:"):
        rule = _parse_floats(raw.split(":", 1)[1])
        if len(rule) == 2:
            return [rule[0] + rule[1] * j for j in range(n)]
        raise ConfigError(["alphas: the mismatch rule takes two values, base and step; "
                           f"got {len(rule)}"])
    vals = list(_parse_floats(raw))
    if len(vals) != n:
        raise ConfigError([f"alphas: expected {n} entries, got {len(vals)}"])
    return vals


def resolve_couplings(config: ScenarioConfig) -> list[float]:
    raw = config.couplings.strip()
    if raw.startswith("equal:"):
        return [_parse_float(raw.split(":", 1)[1])] * config.n_atoms
    vals = list(_parse_floats(raw))
    if len(vals) != config.n_atoms:
        raise ConfigError([f"couplings: expected {config.n_atoms} entries, got {len(vals)}"])
    return vals


@dataclass(frozen=True)
class RunSpec:
    """One run of a dynamics scenario; it writes its time series to <label>.csv."""
    label: str
    frame: FrameConfig
    atoms: tuple[AtomSpec, ...]
    initial: str  # per-atom 'e'/'g' letters
    t_max: float
    dt: float
    record_every: int
    pair: tuple[int, int] | None

    def master_equation(self):
        """(H, rates): the energies and the wedge-I rates, or for counter-accelerating
        atoms H = None (the interaction picture) and the cross-wedge rates;
        computed once per (frame, atoms) for `validate`'s dry run and the
        run itself, as read-only arrays."""
        return _master_equation(self.frame, self.atoms)


@lru_cache(maxsize=256)
def _master_equation(frame: FrameConfig, atoms: tuple[AtomSpec, ...]):
    n_i = sum(1 for a in atoms if a.wedge == "I")
    if n_i < len(atoms):
        return None, cross_wedge_rates(frame, atoms[:n_i], atoms[n_i:])  # RateSet is read-only
    H = build_hamiltonian(atoms, frame)
    H.setflags(write=False)
    return H, same_wedge_rates(frame, atoms)


def expand_runs(config: ScenarioConfig) -> list[RunSpec]:
    """The runs of a dynamics scenario that passes `validate`'s text checks, in
    run order; atom 1 is the reference of each run's frame and omega rule."""
    n = config.n_atoms
    pair = None if n < 2 else (config.concurrence_pair[0] - 1, config.concurrence_pair[1] - 1)
    initial = (config.initial_pattern if config.initial_state == "explicit"
               else ("e" if config.initial_state == "all_excited" else "g") * n)
    couplings = resolve_couplings(config)

    def run(label, alphas, rule=config.omega_rule, wedges=("I",) * n):
        # the resonant rule gives every atom the red-shifted frequency omega_ref
        omegas = {"equal": [config.omega_ref] * n, "explicit": config.omegas,
                  "resonant": [config.omega_ref * alpha / alphas[0] for alpha in alphas]}[rule]
        atoms = tuple(AtomSpec(omega=w, alpha=al, wedge=wd, g=c)
                      for w, al, wd, c in zip(omegas, alphas, wedges, couplings))
        frame = FrameConfig(a=alphas[0], eps_res=config.eps_res, gamma0=config.gamma0)
        return RunSpec(label, frame, atoms, initial, config.t_max, config.dt,
                       config.record_every, pair)

    if config.scenario == "equal_acceleration_sweep":
        return [run(f"alpha_{a:g}".replace(".", "p"), [a] * n) for a in config.sweep_alphas]
    if config.scenario == "mismatch_cases":
        def ramp(step):
            return [config.alpha_base + step * j for j in range(n)]
        return [run("case_a", [config.alpha_equal] * n, "equal"),
                run("case_b", ramp(config.delta_equal_omega), "equal"),
                *(run(f"case_c_dalpha_{d:g}".replace(".", "p"), ramp(d), "resonant")
                  for d in config.deltas_resonant)]
    if config.scenario == "counter_wedge":
        return [run("counter", resolve_alphas(config), wedges=config.wedges)]
    return [run("run", resolve_alphas(config))]


@dataclass(frozen=True)
class DesignSpec:
    """The condensate design of a bec_design scenario: its bath, mode
    wavenumbers, window-sweep waists, listed tweezers, resonance tolerance and
    the (depth, waist) cells of its bound-state grid."""
    bath: BogoliubovBath
    ks: np.ndarray
    sweep_waists: np.ndarray
    tweezers: tuple[TweezerSpec, ...]
    eps_res: float
    cell_depths: np.ndarray
    cell_waists: np.ndarray


def expand_design(config: ScenarioConfig) -> DesignSpec:
    """The design of a bec_design scenario that passes `validate`'s text checks."""
    bath = BogoliubovBath(m=config.bec_m, mu=config.bec_mu, n0=config.bec_n0,
                          L=config.bec_length, u0=config.bec_u0, T=config.bec_temperature)
    v0, mass, g = config.tweezer_depth, config.tweezer_mass, config.tweezer_coupling
    w_lo, w_hi = two_level_window(v0, mass)
    margin = 1e-6 * (w_hi - w_lo)
    k_unit = math.sqrt(bath.m * bath.mu)
    points = config.nb_grid_points
    depths = np.linspace(config.nb_depth_min, config.nb_depth_max, points)
    waists = np.linspace(config.nb_waist_min, config.nb_waist_max, points)
    return DesignSpec(
        bath=bath, eps_res=config.eps_res,
        ks=np.geomspace(config.k_min, config.k_max, config.k_points) * k_unit,
        sweep_waists=np.linspace(w_lo + margin, w_hi - margin, config.waist_points),
        tweezers=tuple(TweezerSpec(V0=v0, w=w, M=mass, x=x, g=g)
                       for w, x in zip(config.tweezer_waists, config.tweezer_positions)),
        cell_depths=np.repeat(depths, points), cell_waists=np.tile(waists, points))


def _design_diagnostics(design: DesignSpec) -> list[str]:
    """What a bec_design run refuses before it writes: a variational width with
    no root in the window sweep (its condition is monotone in the waist, so the
    end waists decide), the detector mapping, and a grid beyond the float range
    or too coarse for its wells."""
    diags = []
    tw = design.tweezers[0]
    try:
        variational_widths(tw.V0, design.sweep_waists[[0, -1]], tw.M)
        map_to_detector_model(design.bath, design.tweezers, eps_res=design.eps_res)
    except (ConfigError, DomainError, NoRootError) as exc:
        diags.append(f"tweezers: {exc}")
    try:
        bound_state_grid(design.cell_depths, design.cell_waists, tw.M)
    except DomainError as exc:
        diags.append(f"nb_grid: {exc}")
    return diags


def validate(config: ScenarioConfig) -> list[str]:
    """All semantic violations; empty means runnable. Once the text checks pass,
    each run is built as `run` builds it and its step checked (`check_step`),
    or the condensate design is built and mapped (`_design_diagnostics`)."""
    diags: list[str] = []
    n = config.n_atoms
    if config.scenario not in SCENARIOS:
        diags.append(f"scenario: unknown scenario {config.scenario!r}; "
                     f"expected one of {', '.join(SCENARIOS)}")
        return diags
    if config.scenario == "bec_design":
        for name in ("bec_m", "bec_mu", "bec_n0", "bec_length", "bec_u0",
                     "bec_temperature", "tweezer_depth", "tweezer_mass"):
            if getattr(config, name) <= 0:
                diags.append(f"{name}: must be > 0")
        if config.tweezer_coupling < 0:
            diags.append("tweezer_coupling: must be >= 0")
        if config.eps_res <= 0:
            diags.append("eps_res: must be > 0")
        if not config.tweezer_waists:
            diags.append("tweezer_waists: at least one tweezer required")
        elif config.tweezer_depth > 0 and config.tweezer_mass > 0:
            # the detector mapping needs each tweezer to hold exactly two bound states
            w_min, w_max = two_level_window(config.tweezer_depth, config.tweezer_mass)
            for i, w in enumerate(config.tweezer_waists):
                if not w_min < w < w_max:
                    diags.append(f"tweezer_waists: waist {i + 1} = {w:g} outside the "
                                 f"two-level window ({w_min:g}, {w_max:g})")
        if len(config.tweezer_positions) != len(config.tweezer_waists):
            diags.append(f"tweezer_positions: expected {len(config.tweezer_waists)} "
                         f"entries matching tweezer_waists, got {len(config.tweezer_positions)}")
        if not 0 < config.k_min < config.k_max:
            diags.append("k_min/k_max: need 0 < k_min < k_max")
        elif config.bec_m > 0 and config.bec_mu > 0:
            k_unit = math.sqrt(config.bec_m * config.bec_mu)  # as the run scales k
            for name in ("k_min", "k_max"):
                try:
                    dispersion(config.bec_m, config.bec_mu, getattr(config, name) * k_unit)
                except DivergenceError as exc:
                    diags.append(f"{name}: {exc}")
        for name, cap in BEC_GRID_MAX.items():
            value = getattr(config, name)
            if value < 2:
                diags.append(f"{name}: must be >= 2")
            elif value > cap:
                diags.append(f"{name}: must be <= {cap}, got {value}")
        if not 0 < config.nb_depth_min < config.nb_depth_max:
            diags.append("nb_depth_min/nb_depth_max: need 0 < min < max")
        if not 0 < config.nb_waist_min < config.nb_waist_max:
            diags.append("nb_waist_min/nb_waist_max: need 0 < min < max")
        return diags or _design_diagnostics(expand_design(config))

    if n < 1:
        diags.append("n_atoms: must be >= 1")
        return diags
    if n > N_ATOMS_MAX:
        diags.append(f"n_atoms: must be <= {N_ATOMS_MAX}, got {n}")
        return diags
    if config.dt <= 0:
        diags.append("dt: must be > 0")
    if config.t_max <= 0:
        diags.append("t_max: must be > 0")
    elif config.dt >= config.t_max:
        diags.append(f"dt: must be < t_max ({config.dt} >= {config.t_max})")
    elif config.dt > 0:
        steps = config.t_max / config.dt
        if steps > N_STEPS_MAX:
            diags.append(f"dt: t_max / dt = {steps:.6g} steps, more than the "
                         f"{N_STEPS_MAX} a run may take")
        elif abs(steps - round(steps)) > 1e-9 * steps:
            diags.append(f"t_max: must be a whole number of steps dt ({config.t_max} / "
                         f"{config.dt} = {steps:.6g})")
    if config.record_every < 1:
        diags.append("record_every: must be >= 1")
    if config.gamma0 < 0:
        diags.append("gamma0: must be >= 0")
    if config.eps_res <= 0:
        diags.append("eps_res: must be > 0")
    if config.omega_ref <= 0:
        diags.append("omega_ref: must be > 0")
    try:
        if any(a <= 0 for a in resolve_alphas(config)):
            diags.append("alphas: all proper accelerations must be > 0")
    except ConfigError as exc:
        diags.extend(exc.diagnostics)
    except ValueError as exc:
        diags.append(f"alphas: {exc}")
    try:
        if any(g < 0 for g in resolve_couplings(config)):
            diags.append("couplings: all coupling weights must be >= 0")
    except ConfigError as exc:
        diags.extend(exc.diagnostics)
    except ValueError as exc:
        diags.append(f"couplings: {exc}")
    # mismatch_cases sets each run's omega rule itself (expand_runs)
    reads_omegas = config.omega_rule == "explicit" and config.scenario != "mismatch_cases"
    if config.omega_rule not in OMEGA_RULES:
        diags.append(f"omega_rule: unknown rule {config.omega_rule!r}")
    elif reads_omegas:
        if len(config.omegas) != n:
            diags.append(f"omegas: explicit rule needs {n} entries, got {len(config.omegas)}")
        if any(w <= 0 for w in config.omegas):
            diags.append("omegas: all proper frequencies must be > 0")
    if config.omegas and not reads_omegas:
        diags.append(f"omegas: {config.scenario} with omega_rule = {config.omega_rule} "
                     "reads no omegas")
    if config.initial_state not in INITIAL_STATES:
        diags.append(f"initial_state: unknown state {config.initial_state!r}")
    elif config.initial_state == "explicit":
        if len(config.initial_pattern) != n or any(c not in "eg" for c in config.initial_pattern):
            diags.append(f"initial_pattern: need {n} letters over e/g, got "
                         f"{config.initial_pattern!r}")
    if config.initial_pattern and config.initial_state != "explicit":
        diags.append("initial_pattern: only initial_state = explicit reads initial_pattern")
    pair = config.concurrence_pair
    if n >= 2:
        if pair[0] == pair[1] or not all(1 <= p <= n for p in pair):
            diags.append(f"concurrence_pair: need two distinct 1-based labels <= {n}, "
                         f"got {pair}")
    if config.scenario == "counter_wedge":
        if len(config.wedges) != n:
            diags.append(f"wedges: expected {n} entries, got {len(config.wedges)}")
        elif any(w not in ("I", "II") for w in config.wedges):
            diags.append("wedges: entries must be 'I' or 'II'")
        else:
            if "II" not in config.wedges:
                diags.append("wedges: counter_wedge requires at least one atom in wedge II")
            if "I" not in config.wedges:
                diags.append("wedges: counter_wedge requires at least one atom in wedge I")
            if config.wedges != tuple(sorted(config.wedges)):
                diags.append("wedges: list wedge-I atoms first, then wedge-II atoms")
    elif config.wedges:
        diags.append("wedges: only the counter_wedge scenario reads wedges")
    if config.scenario == "equal_acceleration_sweep":
        if not config.sweep_alphas:
            diags.append("sweep_alphas: at least one sweep value required")
        elif any(a <= 0 for a in config.sweep_alphas):
            diags.append("sweep_alphas: all values must be > 0")
    if config.scenario == "mismatch_cases":
        if config.alpha_equal <= 0 or config.alpha_base <= 0:
            diags.append("alpha_equal/alpha_base: must be > 0")
        if config.delta_equal_omega <= 0:
            diags.append("delta_equal_omega: must be > 0")
        if not config.deltas_resonant or any(d <= 0 for d in config.deltas_resonant):
            diags.append("deltas_resonant: need positive mismatch values")
    if diags:
        return diags
    runs = expand_runs(config)
    # labels keep 6 significant digits; two runs with one label would write one file
    key = "sweep_alphas" if config.scenario == "equal_acceleration_sweep" else "deltas_resonant"
    labels = [run.label for run in runs]
    for label in sorted({label for label in labels if labels.count(label) > 1}):
        diags.append(f"{key}: two values give the run label {label!r}; "
                     "each run needs its own label")
    for run in runs:
        try:
            check_step(*run.master_equation(), run.dt)
        except DomainError as exc:
            diags.append(f"run {run.label}: {exc}")
    return diags
