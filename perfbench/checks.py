"""Correctness checks on a scenario's output directory.

Every check recomputes its reference apart from the program: from the paper's
rate formulas (Dicke-ladder rate equations), from closed forms the method must
satisfy, or from an independent numerical method (a Sturm-sequence count of
bound states on a finer grid). None compares against stored output.
Each check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

import workloads as wl

# tolerances
LADDER_RK4_TOL = 1e-11     # same RK4 scheme, so only roundoff separates them
LADDER_EXACT_TOL = 1e-8     # exact solution: RK4 truncation error is ~1e-10 here
TRACE_TOL = 1e-6
EIG_FLOOR = -1e-6
NB_GRID = 3001             # finer grid of the independent bound-state count
NB_BOX = 20.0              # its box half-width in units of the waist
NB_THRESHOLD = 0.01        # a state within this share of V0 of E = 0 sits at threshold


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def read_summary(path: Path) -> dict[str, dict[str, str]]:
    """summary.txt as {section: {key: value}}; keys before any section go to ''."""
    sections: dict[str, dict[str, str]] = {"": {}}
    current = ""
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = {}
        elif "=" in line:
            key, val = (part.strip() for part in line.split("=", 1))
            sections[current][key] = val
    return sections


# ---------------------------------------------------------------- Dicke ladder

def occupation(omega: float, a: float) -> float:
    """Unruh-thermal occupation 1/(exp(2 pi omega / a) - 1)."""
    return 1.0 / math.expm1(2.0 * math.pi * omega / a)


def ladder_generator(n: int, gamma0: float, nbar: float) -> np.ndarray:
    """Rate matrix of the symmetric Dicke ladder |J = n/2, k excitations>.

    Collective emission k -> k-1 at 2 gamma0 (nbar+1) k (n-k+1), absorption
    k -> k+1 at 2 gamma0 nbar (k+1)(n-k); the factor 2 makes a single atom
    decay as exp(-2 gamma0 t), the paper's convention.
    """
    k = np.arange(n + 1)
    down = 2.0 * gamma0 * (nbar + 1.0) * k * (n - k + 1)
    up = 2.0 * gamma0 * nbar * (k + 1) * (n - k)
    m = np.diag(-(down + up))
    m[k[1:] - 1, k[1:]] += down[1:]
    m[k[:-1] + 1, k[:-1]] += up[:-1]
    return m


def ladder_series(m: np.ndarray, p0: np.ndarray, dt: float, nsteps: int,
                  record_every: int) -> tuple[np.ndarray, np.ndarray]:
    """Ladder probabilities at the record steps, by RK4 with the program's dt
    and by the exact exponential. Returns (p_rk4, p_exact)."""
    hm = dt * m
    step = np.eye(len(p0))
    term = np.eye(len(p0))
    for order in range(1, 5):
        term = term @ hm / order
        step = step + term
    rec = list(range(0, nsteps, record_every)) + [nsteps]
    p_rk4, p = [], p0.copy()
    for s in range(nsteps + 1):
        if s % record_every == 0 or s == nsteps:
            p_rk4.append(p.copy())
        p = step @ p
    p_exact = [expm(m * (s * dt)) @ p0 for s in rec]
    return np.array(p_rk4), np.array(p_exact)


def _ladder_observables(m: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(m.shape[0])
    # R = -dP/dt = -sum_k k (M p)_k
    return probs @ k, -(probs @ m.T) @ k


def _layout(name: str, header: list[str], data: np.ndarray, n: int, nsteps: int,
            record_every: int) -> list[str]:
    expected_cols = (["t"] + [f"P_{j + 1}" for j in range(n)]
                     + ["P_tot", "R_tot", "C_coh", "C_conc", "trace_err", "min_eig"])
    if header != expected_cols:
        return [f"{name}: columns {header} != {expected_cols}"]
    rows = nsteps // record_every + 1 + (1 if nsteps % record_every else 0)
    if data.shape[0] != rows:
        return [f"{name}: {data.shape[0]} rows, expected {rows}"]
    return []


def _invariants(name: str, header: list[str], data: np.ndarray, n: int, dt: float,
                nsteps: int, record_every: int) -> list[str]:
    fails = []
    col = {c: data[:, i] for i, c in enumerate(header)}
    steps = np.array(list(range(0, nsteps, record_every)) + [nsteps])
    if np.abs(col["t"] - steps * dt).max() > 1e-9:
        fails.append(f"{name}: record times are not multiples of dt*record_every")
    if np.abs(col["trace_err"]).max() > TRACE_TOL:
        fails.append(f"{name}: trace_err {np.abs(col['trace_err']).max():.3e} > {TRACE_TOL}")
    if col["min_eig"].min() < EIG_FLOOR:
        fails.append(f"{name}: min_eig {col['min_eig'].min():.3e} < {EIG_FLOOR}")
    pops = data[:, 1:n + 1]
    if np.abs(pops.sum(axis=1) - col["P_tot"]).max() > 1e-12 * n:
        fails.append(f"{name}: P_tot is not the sum of the P_j")
    return fails


def check_fig2(p: dict, out: Path) -> list[str]:
    """Equal accelerations: the all-excited state stays in the symmetric Dicke
    manifold, so P_tot and R_tot follow the (N+1)-level ladder."""
    n, dt, every = wl.FIG2_N, wl.FIG2_DT, wl.FIG2_RECORD_EVERY
    nsteps = round(wl.FIG2_T_MAX / dt)
    summary = read_summary(out / "summary.txt")
    labels = [s[4:] for s in summary if s.startswith("run ")]
    fails = []
    if len(labels) != len(p["alphas"]):
        return [f"summary lists {len(labels)} runs, expected {len(p['alphas'])}"]
    expected_files = {f"{lab}.csv" for lab in labels} | {"summary.txt"}
    found = {f.name for f in out.iterdir()}
    if found != expected_files:
        fails.append(f"output files {sorted(found)} != {sorted(expected_files)}")
    p0 = np.zeros(n + 1)
    p0[n] = 1.0
    for label, alpha in zip(labels, p["alphas"]):
        header, data = read_csv(out / f"{label}.csv")
        errs = _layout(label, header, data, n, nsteps, every)
        if errs:
            fails += errs
            continue
        fails += _invariants(label, header, data, n, dt, nsteps, every)
        col = {c: data[:, i] for i, c in enumerate(header)}
        m = ladder_generator(n, p["gamma0"], occupation(p["omega_ref"], alpha))
        p_rk4, p_exact = ladder_series(m, p0, dt, nsteps, every)
        for tag, probs, tol in (("RK4", p_rk4, LADDER_RK4_TOL),
                                ("exact", p_exact, LADDER_EXACT_TOL)):
            ptot, rtot = _ladder_observables(m, probs)
            dev = max(np.abs(col["P_tot"] - ptot).max(), np.abs(col["R_tot"] - rtot).max())
            if dev > tol:
                fails.append(f"{label}: P_tot/R_tot off the {tag} Dicke ladder by "
                             f"{dev:.3e} > {tol}")
        pops = data[:, 1:n + 1]
        if np.abs(pops - pops.mean(axis=1, keepdims=True)).max() > 1e-12:
            fails.append(f"{label}: the P_j are not all equal")
        if np.any(col["C_conc"] != 0.0):
            fails.append(f"{label}: C_conc is not identically 0 "
                         f"(max {col['C_conc'].max():.3e})")
        peak = int(col["R_tot"].argmax())
        if not 0 < peak < len(col["R_tot"]) - 1:
            fails.append(f"{label}: R_tot peak at row {peak} is not interior")
    return fails


def check_counter(p: dict, out: Path) -> list[str]:
    """Counter-accelerating wedges: the anomalous channels leave each wedge's
    populations as if the wedge were alone, so P_1+P_2 and P_3+P_4 each follow
    the 3-level Dicke ladder from the ground state."""
    n, dt = len(wl.COUNTER_WEDGES), wl.COUNTER_DT
    nsteps = round(wl.COUNTER_T_MAX / dt)
    found = {f.name for f in out.iterdir()}
    if found != {"counter.csv", "summary.txt"}:
        return [f"output files {sorted(found)} != ['counter.csv', 'summary.txt']"]
    header, data = read_csv(out / "counter.csv")
    fails = _layout("counter", header, data, n, nsteps, 1)
    if fails:
        return fails
    fails += _invariants("counter", header, data, n, dt, nsteps, 1)
    col = {c: data[:, i] for i, c in enumerate(header)}
    m = ladder_generator(2, p["gamma0"], occupation(p["omega_ref"], p["alpha"]))
    p_rk4, p_exact = ladder_series(m, np.array([1.0, 0.0, 0.0]), dt, nsteps, 1)
    for wedge, (a, b) in (("I", ("P_1", "P_2")), ("II", ("P_3", "P_4"))):
        pw = col[a] + col[b]
        for tag, probs, tol in (("RK4", p_rk4, LADDER_RK4_TOL),
                                ("exact", p_exact, LADDER_EXACT_TOL)):
            dev = np.abs(pw - _ladder_observables(m, probs)[0]).max()
            if dev > tol:
                fails.append(f"wedge {wedge}: {a}+{b} off the {tag} Dicke ladder by "
                             f"{dev:.3e} > {tol}")
        if np.abs(col[a] - col[b]).max() > 1e-12:
            fails.append(f"wedge {wedge}: {a} != {b}")
    summary = read_summary(out / "summary.txt").get("run counter", {})
    conc_peak = col["C_conc"].max()
    if not conc_peak > 0.0:
        fails.append("cross-wedge C_conc never rises above 0")
    if float(summary.get("C_conc_peak", "nan")) != conc_peak:
        fails.append("summary C_conc_peak differs from the CSV maximum")
    if int(summary.get("liouvillian_zero_multiplicity", "0")) < 1:
        fails.append("summary reports no Liouvillian zero eigenvalue")
    return fails


# ------------------------------------------------------------- condensate

def width_residual(a0, w, depth, mass):
    w2 = w * w
    return w2 * w2 / (2.0 * a0 * a0) * (2.0 / (a0 * a0) + 1.0 / w2) ** 3 - (depth * mass) ** 2


def sturm_counts(depth: np.ndarray, waist: np.ndarray, mass: float,
                 shifts: tuple[float, ...]) -> np.ndarray:
    """Eigenvalues below depth*shift of the finite-difference Gaussian well,
    one row per shift, counted as negative pivots of the LDL^T factorisation
    of (H - sigma) (Sylvester's law of inertia); all cells at once."""
    x = np.linspace(-1.0, 1.0, NB_GRID)
    half = np.maximum(NB_BOX * waist, 12.0 / (mass * depth * waist * math.sqrt(math.pi)))
    h = 2.0 * half / (NB_GRID - 1)
    kin = 1.0 / (2.0 * mass * h * h)
    counts = []
    for shift in shifts:
        sigma = depth * shift
        q = np.ones_like(depth)
        count = np.zeros(depth.shape, dtype=int)
        for i in range(NB_GRID):
            diag = -depth * np.exp(-(x[i] * half / waist) ** 2) + 2.0 * kin - sigma
            q = diag - (kin * kin / q if i else 0.0)
            q = np.where(q == 0.0, -1e-300, q)
            count += q < 0.0
        counts.append(count)
    return np.array(counts)


def check_bec(p: dict, out: Path) -> list[str]:
    fails = []
    expected = {"dispersion.csv", "tweezer_sweep.csv", "couplings.csv", "nb_grid.csv",
                "summary.txt"}
    found = {f.name for f in out.iterdir()}
    if found != expected:
        return [f"output files {sorted(found)} != {sorted(expected)}"]
    mu, mass, depth, g = p["bec_mu"], p["tweezer_mass"], p["tweezer_depth"], p["tweezer_coupling"]
    n0, length = p["bec_n0"], 100.0

    # dispersion: Bogoliubov identities row by row
    _, d = read_csv(out / "dispersion.csv")
    k, e, u, v, s = d.T
    eps = k * k / 2.0
    if len(k) != 1000 or np.abs(k / (np.geomspace(1e-3, 10.0, 1000) * math.sqrt(mu)) - 1).max() > 1e-12:
        fails.append("dispersion: k grid is not geomspace(k_min, k_max) * sqrt(m mu)")
    if np.abs(u * u - v * v - 1.0).max() > 1e-8:
        fails.append(f"dispersion: u^2 - v^2 - 1 up to {np.abs(u * u - v * v - 1).max():.3e}")
    if np.abs(e * e / (eps * (eps + 2 * mu)) - 1.0).max() > 1e-12:
        fails.append("dispersion: E^2 != eps (eps + 2 mu)")
    if np.abs(s - (u - v)).max() > 1e-12 or np.abs(s / np.sqrt(eps / e) - 1).max() > 1e-6:
        fails.append("dispersion: S != u - v = sqrt(eps/E)")

    # tweezer sweep: waists inside the window, variational width and energy
    _, d = read_csv(out / "tweezer_sweep.csv")
    w, a0, omega = d.T
    lo, hi = wl.two_level_window(depth, mass)
    if len(w) != 200 or not (np.all(w > lo) and np.all(w < hi)):
        fails.append(f"tweezer_sweep: waists outside the two-level window ({lo}, {hi})")
    resid = np.abs(width_residual(a0, w, depth, mass)) / (depth * mass) ** 2
    if resid.max() > 1e-9:
        fails.append(f"tweezer_sweep: variational-width residual {resid.max():.3e}")
    a2 = a0 * a0
    omega_ref = (2.0 / (mass * a2) - math.sqrt(2.0) * depth * np.sqrt(2 * a2 * a2 + a2 ** 3 / (w * w))
                 / (a2 + 2 * w * w) ** 2)
    if np.abs(omega - omega_ref).max() > 1e-12 * np.abs(omega_ref).max():
        fails.append("tweezer_sweep: Omega differs from the transition-energy formula")

    # couplings: tensor structure with an independently solved width
    _, d = read_csv(out / "couplings.csv")
    k, g00, g11, g10 = d.T
    w1 = p["tweezer_waists"][0]
    a_ref = brentq(width_residual, 1e-3 * w1, 1e3 * w1, args=(w1, depth, mass), xtol=1e-15,
                   rtol=1e-14, maxiter=500)
    eps = k * k / 2.0
    s_k = np.sqrt(eps / np.sqrt(eps * (eps + 2 * mu)))
    g00_ref = g * np.sqrt(n0 * s_k / length) * np.exp(-k * k * a_ref * a_ref / 2.0)
    if np.abs(g00 - g00_ref).max() > 1e-8 * g00_ref.max():
        fails.append("couplings: |G00| differs from g sqrt(n0 S/L) exp(-k^2 a0^2/2)")
    if np.abs(g10 - a_ref * k * g00).max() > 1e-8 * max(g10.max(), 1e-300):
        fails.append("couplings: |G10| != a0 k |G00|")
    if np.abs(g11 - np.abs(1 - a_ref ** 2 * k * k / 2) * g00).max() > 1e-8 * g00.max():
        fails.append("couplings: |G11| != |1 - a0^2 k^2 / 2| |G00|")

    # bound-state grid: closed form recomputed, numeric count against a finer grid
    _, d = read_csv(out / "nb_grid.csv")
    v0, wg, closed, numeric, agree = d.T
    grid_v, grid_w = np.meshgrid(np.linspace(0.5, 8.0, 20), np.linspace(0.4, 2.4, 20),
                                 indexing="ij")
    if len(v0) != 400 or np.abs(v0 - grid_v.ravel()).max() > 1e-12 \
            or np.abs(wg - grid_w.ravel()).max() > 1e-12:
        fails.append("nb_grid: (V0, w) cells are not the 20 x 20 design grid")
        return fails
    closed_ref = np.floor(2.0 * np.sqrt(v0 * mass / (math.pi * wg)) - 0.5)
    if np.any(closed != closed_ref):
        fails.append("nb_grid: closed-form counts differ from floor(2 sqrt(V0 M/(pi w)) - 1/2)")
    if np.any(agree != (closed == numeric)):
        fails.append("nb_grid: agree column is not (closed == numeric)")
    below, above = sturm_counts(v0, wg, mass, (-NB_THRESHOLD, 0.0))
    off = (numeric < below) | (numeric > above)
    if off.any():
        i = int(np.argmax(off))
        fails.append(f"nb_grid: {int(off.sum())} numeric counts outside the finer-grid "
                     f"range, e.g. V0={v0[i]:g} w={wg[i]:g}: {int(numeric[i])} not in "
                     f"[{below[i]}, {above[i]}]")
    summary = read_summary(out / "summary.txt").get("nb_comparison", {})
    if int(summary.get("disagreements", "-1")) != int((agree == 0).sum()):
        fails.append("summary: disagreements != count of agree = 0 rows")
    if int(summary.get("grid_cells", "-1")) != 400:
        fails.append("summary: grid_cells != 400")
    return fails


CHECKS = {"fig2_sweep": check_fig2, "counter_dense": check_counter, "bec_design": check_bec}


def check_outputs(workload: str, params: dict, out: Path) -> list[str]:
    return CHECKS[workload](params, Path(out))


def check_identical(digests: list[dict[str, str]]) -> list[str]:
    """Every execution of a run must write byte-identical files."""
    fails = []
    for i, dig in enumerate(digests[1:], start=1):
        if dig != digests[0]:
            diff = sorted(set(dig.items()) ^ set(digests[0].items()))
            fails.append(f"execution {i} wrote different files than execution 0: "
                         f"{sorted({name for name, _ in diff})}")
    return fails
