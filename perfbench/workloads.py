"""Workload definitions: scenario configuration text drawn from a seed.

Seed 0 reproduces the physical values of the shipped presets (fig2, counter,
bec_design). Any other seed draws the physical parameters from the ranges
below. No seed changes a step count, record count, sweep length or grid size,
so the cost of one execution is the same for every seed.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("fig2_sweep", "counter_dense", "bec_design")

# fixed sizes: these set the cost of one execution
FIG2_N = 6
FIG2_POINTS = 5
FIG2_T_MAX = 2.0
FIG2_DT = 0.005
FIG2_RECORD_EVERY = 10

COUNTER_WEDGES = ("I", "I", "II", "II")
COUNTER_PAIR = (1, 3)
COUNTER_T_MAX = 2.0
COUNTER_DT = 0.001
# The bound-state grid costs in proportion to its bound states, about sqrt(M),
# so the impurity mass stays at the preset value for every seed.
BEC_MASS = 2.0

# seeded ranges, (low, high)
RANGES = {
    "fig2_sweep": {"alpha": (2.0, 10.0), "gamma0": (0.08, 0.12),
                   "omega_ref": (0.8, 1.2)},
    "counter_dense": {"alpha": (1.5, 4.0), "gamma0": (0.08, 0.12),
                      "omega_ref": (0.8, 1.2)},
    "bec_design": {"bec_mu": (0.8, 1.2), "bec_n0": (40.0, 60.0),
                   "bec_temperature": (0.3, 0.7), "tweezer_depth": (1.2, 2.0),
                   "tweezer_coupling": (0.002, 0.005),
                   "waist_fraction": (0.3, 0.7), "position_2": (2.0, 4.0)},
}


def _draw(rng: random.Random, low: float, high: float) -> float:
    # 6 significant digits keep the config text short and exactly reproducible
    return float(f"{rng.uniform(low, high):.6g}")


def fig2_params(seed: int) -> dict:
    if seed == 0:
        return {"alphas": [2.0, 4.0, 6.0, 8.0, 10.0], "gamma0": 0.1, "omega_ref": 1.0}
    rng = random.Random(f"fig2_sweep:{seed}")
    r = RANGES["fig2_sweep"]
    alphas: set[float] = set()
    while len(alphas) < FIG2_POINTS:
        alphas.add(_draw(rng, *r["alpha"]))
    return {"alphas": sorted(alphas), "gamma0": _draw(rng, *r["gamma0"]),
            "omega_ref": _draw(rng, *r["omega_ref"])}


def counter_params(seed: int) -> dict:
    if seed == 0:
        return {"alpha": 2.0, "gamma0": 0.1, "omega_ref": 1.0}
    rng = random.Random(f"counter_dense:{seed}")
    r = RANGES["counter_dense"]
    return {"alpha": _draw(rng, *r["alpha"]), "gamma0": _draw(rng, *r["gamma0"]),
            "omega_ref": _draw(rng, *r["omega_ref"])}


def two_level_window(depth: float, mass: float) -> tuple[float, float]:
    """Waist interval holding exactly two bound states (paper's closed form)."""
    root = math.sqrt(mass * depth / math.pi)
    return 0.8 * root, (4.0 / 3.0) * root


def bec_params(seed: int) -> dict:
    if seed == 0:
        return {"bec_mu": 1.0, "bec_n0": 50.0, "bec_u0": 0.02, "bec_temperature": 0.5,
                "tweezer_depth": math.pi / 2.0, "tweezer_mass": BEC_MASS,
                "tweezer_coupling": 0.0036, "tweezer_waists": [1.05, 1.12],
                "tweezer_positions": [0.0, 2.8]}
    rng = random.Random(f"bec_design:{seed}")
    r = RANGES["bec_design"]
    p = {name: _draw(rng, *r[name]) for name in
         ("bec_mu", "bec_n0", "bec_temperature", "tweezer_depth", "tweezer_coupling")}
    p["tweezer_mass"] = BEC_MASS
    p["bec_u0"] = float(f"{p['bec_mu'] / p['bec_n0']:.6g}")
    lo, hi = two_level_window(p["tweezer_depth"], p["tweezer_mass"])
    p["tweezer_waists"] = [float(f"{lo + _draw(rng, *r['waist_fraction']) * (hi - lo):.6g}")
                           for _ in range(2)]
    p["tweezer_positions"] = [0.0, _draw(rng, *r["position_2"])]
    return p


def params(workload: str, seed: int) -> dict:
    return {"fig2_sweep": fig2_params, "counter_dense": counter_params,
            "bec_design": bec_params}[workload](seed)


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def config_text(workload: str, p: dict) -> str:
    """Scenario configuration text for the workload's parameters `p`."""
    if workload == "fig2_sweep":
        return "\n".join([
            "schema_version = 1", "scenario = equal_acceleration_sweep",
            f"n_atoms = {FIG2_N}", f"sweep_alphas = {_floats(p['alphas'])}",
            "omega_rule = equal", f"omega_ref = {p['omega_ref']!r}",
            f"gamma0 = {p['gamma0']!r}", "eps_res = 1e-6", "couplings = equal: 1",
            "initial_state = all_excited", f"t_max = {FIG2_T_MAX!r}",
            f"dt = {FIG2_DT!r}", f"record_every = {FIG2_RECORD_EVERY}",
            "concurrence_pair = 1, 2", ""])
    if workload == "counter_dense":
        return "\n".join([
            "schema_version = 1", "scenario = counter_wedge",
            f"n_atoms = {len(COUNTER_WEDGES)}", f"alphas = equal: {p['alpha']!r}",
            f"wedges = {', '.join(COUNTER_WEDGES)}", "omega_rule = equal",
            f"omega_ref = {p['omega_ref']!r}", f"gamma0 = {p['gamma0']!r}",
            "eps_res = 1e-6", "couplings = equal: 1", "initial_state = all_ground",
            f"t_max = {COUNTER_T_MAX!r}", f"dt = {COUNTER_DT!r}", "record_every = 1",
            f"concurrence_pair = {COUNTER_PAIR[0]}, {COUNTER_PAIR[1]}", ""])
    if workload == "bec_design":
        lines = ["schema_version = 1", "scenario = bec_design", "bec_m = 1.0",
                 "bec_length = 100.0", "eps_res = 1e-6"]
        for key in ("bec_mu", "bec_n0", "bec_u0", "bec_temperature", "tweezer_depth",
                    "tweezer_mass", "tweezer_coupling"):
            lines.append(f"{key} = {p[key]!r}")
        lines += [f"tweezer_waists = {_floats(p['tweezer_waists'])}",
                  f"tweezer_positions = {_floats(p['tweezer_positions'])}",
                  "k_min = 0.001", "k_max = 10.0", "k_points = 1000", "waist_points = 200",
                  "nb_grid_points = 20", "nb_depth_min = 0.5", "nb_depth_max = 8.0",
                  "nb_waist_min = 0.4", "nb_waist_max = 2.4", ""]
        return "\n".join(lines)
    raise KeyError(f"unknown workload {workload!r}")
