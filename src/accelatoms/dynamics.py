"""Time integration and observables: populations, emission rate, coherences,
pairwise concurrence, and the independent correlation-equation oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, IntegrationError
from .liouvillian import LindbladGenerator, check_density_matrix
from .operators import all_excited, all_ground, product_state, sigma_minus, sigma_plus, number_op
from .rates import RateSet

__all__ = [
    "TimeSeries", "evolve", "population", "populations", "total_emission_rate",
    "coherence_measure", "partial_trace", "concurrence", "correlation_oracle",
    "heisenberg_correlation_rhs", "all_excited", "all_ground", "product_state",
]

# hard invariant tolerances for the integrator
_TRACE_HARD = 1e-6
_EIG_HARD = -1e-6
_CHECK_EVERY = 100  # steps between hard checks of the full rho


@dataclass
class TimeSeries:
    """Recorded trajectory: times, observable rows, optionally retained states.

    Columns are (P_1..P_N, P_tot, R_tot, C_coh, C_conc, trace_err, min_eig);
    C_conc refers to `concurrence_pair`.
    """

    times: np.ndarray
    columns: tuple[str, ...]
    records: np.ndarray
    concurrence_pair: tuple[int, int]
    states: list[np.ndarray] | None = None
    max_trace_drift: float = 0.0
    final_state: np.ndarray = field(default=None, repr=False)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.records[:, self.columns.index(name)]
        except ValueError:
            raise KeyError(f"no column {name!r}; have {self.columns}") from None


def population(rho: np.ndarray, j: int) -> float:
    """Excited-state population of atom j, Tr(sigma_j^+ sigma_j^- rho)."""
    n = int(np.log2(rho.shape[0]))
    if not 0 <= j < n:
        raise DomainError(f"atom index {j} out of range for {n} atoms")
    mask = (np.arange(2**n) >> j) & 1
    p = float(rho.diagonal().real @ mask)
    if p < -1e-9:
        raise DomainError(f"population of atom {j} is {p:.3e} < -1e-9")
    return max(p, 0.0)


def populations(rho: np.ndarray) -> np.ndarray:
    n = int(np.log2(rho.shape[0]))
    return np.array([population(rho, j) for j in range(n)])


def total_emission_rate(rho: np.ndarray, H: np.ndarray | None, rates: RateSet,
                        cross_pairing: str = "anomalous") -> float:
    """Exact instantaneous -d P_tot/dt evaluated from the generator."""
    sector = LindbladGenerator(H, rates, cross_pairing).sector(rho)
    return -float((sector.emission @ sector.gather(rho)).real)


@lru_cache(maxsize=2048)
def _pm_product(j: int, l: int, n: int) -> np.ndarray:
    out = sigma_plus(j, n) @ sigma_minus(l, n)
    out.setflags(write=False)
    return out


def coherence_measure(rho: np.ndarray) -> float:
    """Sum of inter-atom coherence magnitudes, sum_{j != l} |<sigma_j^+ sigma_l^->|."""
    n = int(np.log2(rho.shape[0]))
    total = 0.0
    for j in range(n):
        for l in range(j + 1, n):
            c = np.einsum("ij,ji->", _pm_product(j, l, n), rho)
            total += 2.0 * abs(c)  # <s_l^+ s_j^-> is the conjugate
    return total


def partial_trace(rho: np.ndarray, keep: tuple[int, int]) -> np.ndarray:
    """Reduced 4x4 state of the atom pair `keep` (first kept atom is the
    least significant bit of the reduced index, as in the full register)."""
    n = int(np.log2(rho.shape[0]))
    j, l = keep
    if j == l or not (0 <= j < n) or not (0 <= l < n):
        raise DomainError(f"keep={keep} must be two distinct atom indices < {n}")
    t = rho.reshape([2] * (2 * n))
    letters = "abcdefghijklmnopqrstuvwxyz"
    sub = [""] * (2 * n)
    next_letter = 4
    for atom in range(n):
        r_ax, c_ax = n - 1 - atom, 2 * n - 1 - atom
        if atom == j:
            sub[r_ax], sub[c_ax] = "a", "c"
        elif atom == l:
            sub[r_ax], sub[c_ax] = "b", "d"
        else:
            sub[r_ax] = sub[c_ax] = letters[next_letter]
            next_letter += 1
    spec = "".join(sub) + "->badc"  # rows (l, j), cols (l, j): keep[0] is LSB
    return np.einsum(spec, t).reshape(4, 4)


_SY_SY = np.array([[0, 0, 0, -1],
                   [0, 0, 1, 0],
                   [0, 1, 0, 0],
                   [-1, 0, 0, 0]], dtype=complex)


def concurrence(rho2: np.ndarray) -> float:
    """Two-qubit concurrence from the square roots of the eigenvalues of
    rho * (sy x sy) rho^* (sy x sy), tiny negative roundoff clamped."""
    rho2 = np.asarray(rho2, dtype=complex)
    if rho2.shape != (4, 4):
        raise DomainError(f"concurrence needs a 4x4 state, got {rho2.shape}")
    check_density_matrix(rho2, herm_tol=1e-8, trace_tol=1e-8, eig_floor=-1e-9)
    rho_tilde = _SY_SY @ rho2.conj() @ _SY_SY
    evals = np.linalg.eigvals(rho2 @ rho_tilde).real
    if evals.min() < -1e-9:
        raise DomainError(f"spectrum of rho*rho_tilde has eigenvalue {evals.min():.3e}")
    lam = np.sqrt(np.clip(evals, 0.0, None))
    lam.sort()
    return max(0.0, lam[-1] - lam[-2] - lam[-3] - lam[-4])


def evolve(rho0: np.ndarray, H: np.ndarray | None, rates: RateSet,
           t_max: float, dt: float = 1e-3, record_every: int = 10,
           retain_states: bool = False, concurrence_pair: tuple[int, int] = (0, 1),
           cross_pairing: str = "anomalous") -> TimeSeries:
    """Fixed-step RK4 integration of the master equation.

    The state is kept as the block vector u of the lumped sector of rho0
    (`LindbladGenerator.sector`); a step costs four products with its L_hat.
    The state is re-Hermitized and trace-renormalized after every step (drift
    is logged in max_trace_drift) and invariants are hard-checked on the full
    rho every 100 steps; a breach raises IntegrationError with the step index.
    Observables are recorded every `record_every` steps and at the final time.
    """
    if dt <= 0:
        raise DomainError(f"dt must be > 0, got {dt}")
    if t_max < 0:
        raise DomainError(f"t_max must be >= 0, got {t_max}")
    nsteps = round(t_max / dt)
    if abs(t_max / dt - nsteps) > 1e-9 * nsteps:
        raise DomainError(f"t_max = {t_max} is not a whole number of steps dt = {dt}")
    gen = LindbladGenerator(H, rates, cross_pairing)
    n = gen.n_atoms
    rho = np.array(rho0, dtype=complex)
    check_density_matrix(rho)
    if n >= 2:
        pair = concurrence_pair
        if pair[0] == pair[1] or not all(0 <= p < n for p in pair):
            raise DomainError(f"concurrence_pair {pair} invalid for {n} atoms")
    else:
        pair = None
    sector = gen.sector(rho)
    u = sector.gather(rho)

    columns = tuple(f"P_{j + 1}" for j in range(n)) + (
        "P_tot", "R_tot", "C_coh", "C_conc", "trace_err", "min_eig")
    times, rows, states = [], [], ([] if retain_states else None)
    max_drift = 0.0

    def hard_check(rho, step):
        if not np.isfinite(rho).all():
            raise IntegrationError("state became non-finite", step=step)
        trace_err = abs(rho.trace().real - 1.0) + abs(rho.trace().imag)
        if trace_err > _TRACE_HARD:
            raise IntegrationError(f"trace error {trace_err:.3e} beyond hard "
                                   f"tolerance {_TRACE_HARD}", step=step)
        min_eig = float(np.linalg.eigvalsh(rho).min())
        if min_eig < _EIG_HARD:
            raise IntegrationError(f"state eigenvalue {min_eig:.3e} below hard "
                                   f"floor {_EIG_HARD}", step=step)
        return trace_err, min_eig

    def record(step):
        rho = sector.scatter(u)
        trace_err, min_eig = hard_check(rho, step)
        pops = populations(rho)
        conc = concurrence(partial_trace(rho, pair)) if pair else 0.0
        times.append(step * dt)
        rows.append(list(pops) + [pops.sum(), -float((sector.emission @ u).real),
                                  coherence_measure(rho), conc, trace_err, min_eig])
        if states is not None:
            states.append(rho)

    # For a constant linear L the four RK4 stages combine to the degree-4
    # Taylor polynomial of exp(dt L); it is evaluated in Horner form,
    # u + dt L (u + dt/2 L (u + dt/3 L (u + dt/4 L u))), with the same 4 products.
    horner = (dt / 4.0, dt / 3.0, dt / 2.0, dt)
    for step in range(nsteps):
        if step % record_every == 0:
            record(step)
        w = u
        for c in horner:
            w = u + c * (sector.L_hat @ w)
        u = w
        # the Hermitized state has the trace Re(sum of the diagonal entries)
        tr = float((sector.diag_count @ u).real)
        if not math.isfinite(tr) or abs(tr - 1.0) > _TRACE_HARD:
            raise IntegrationError(f"trace drift {abs(tr - 1.0):.3e} beyond hard "
                                   f"tolerance {_TRACE_HARD}", step=step)
        max_drift = max(max_drift, abs(tr - 1.0))
        u = (u + u[sector.block_swap].conj()) * (0.5 / tr)
        if (step + 1) % _CHECK_EVERY == 0 or step == nsteps - 1:
            hard_check(sector.scatter(u), step)
    record(nsteps)

    return TimeSeries(times=np.array(times), columns=columns,
                      records=np.array(rows), concurrence_pair=pair or (0, 0),
                      states=states, max_trace_drift=max_drift, final_state=sector.scatter(u))


@lru_cache(maxsize=256)
def _sz_flipped(j: int, n: int) -> np.ndarray:
    # ground-minus-excited sign convention; with this sign the correlation
    # equation below is the exact Heisenberg form of the implemented generator
    out = np.eye(2**n, dtype=complex) - 2.0 * number_op(j, n)
    out.setflags(write=False)
    return out


def heisenberg_correlation_rhs(rho: np.ndarray, rates: RateSet, l: int, m: int,
                               omegas=None, cross_pairing: str = "anomalous") -> complex:
    """d<sigma_l^+ sigma_m^->/dt from the three-operator correlation equation.

    Independent of lindblad_rhs: evaluates the sums of three-operator
    expectation values directly. Under the anomalous inter-wedge pairing the
    cross channels contribute exactly zero to these normal correlations; under
    the literal pairing the four cross-wedge sums are added (wedge-I pairs only).
    """
    n = rates.n_atoms
    rho = np.asarray(rho, dtype=complex)
    ex = lambda op: complex(np.einsum("ij,ji->", op, rho))
    sp_l, sm_m = sigma_plus(l, n), sigma_minus(m, n)
    sz_l, sz_m = _sz_flipped(l, n), _sz_flipped(m, n)
    gpm, gmp = rates.gamma_plus_minus, rates.gamma_minus_plus
    total = 0.0 + 0.0j
    for j in range(n):
        sp_j, sm_j = sigma_plus(j, n), sigma_minus(j, n)
        if gpm[l, j] != 0:
            total += gpm[l, j] * ex(sz_l @ sm_m @ sp_j)
        if gmp[m, j] != 0:
            total -= gmp[m, j] * ex(sp_l @ sz_m @ sm_j)
        if gpm[m, j] != 0:
            total += np.conj(gpm[m, j]) * ex(sm_j @ sp_l @ sz_m)
        if gmp[l, j] != 0:
            total -= np.conj(gmp[l, j]) * ex(sp_j @ sz_l @ sm_m)
    if omegas is not None:
        total += 1j * (omegas[l] - omegas[m]) * ex(sp_l @ sm_m)
    if cross_pairing == "literal" and rates.has_cross:
        idx_i, idx_k = rates.wedge_partition
        if l not in idx_i or m not in idx_i:
            raise DomainError("literal-pairing correlation equation is implemented "
                              "for wedge-I pairs only")
        li, mi = idx_i.index(l), idx_i.index(m)
        for b, gk in enumerate(idx_k):
            sp_k, sm_k = sigma_plus(gk, n), sigma_minus(gk, n)
            x_m, x_l = rates.cross_pp[mi, b], rates.cross_pp[li, b]
            if x_m != 0:
                total += x_m * ex(sp_l @ sz_m @ sm_k)
                total -= np.conj(x_m) * ex(sm_k @ sp_l @ sz_m)
            if x_l != 0:
                total -= x_l * ex(sz_l @ sm_m @ sp_k)
                total += np.conj(x_l) * ex(sp_k @ sz_l @ sm_m)
    return total


def correlation_oracle(series: TimeSeries, rates: RateSet, pairs=None,
                       omegas=None, cross_pairing: str = "anomalous") -> float:
    """Maximum residual between centered finite differences of retained
    correlations <sigma_l^+ sigma_m^-> and the correlation-equation RHS."""
    if series.states is None or len(series.states) < 3:
        raise DomainError("correlation oracle needs a series with >= 3 retained states")
    dts = np.diff(series.times)
    if np.abs(dts - dts[0]).max() > 1e-12 * max(abs(dts[0]), 1e-300):
        raise DomainError("retained states must be uniformly spaced in time")
    step = dts[0]
    n = rates.n_atoms
    if pairs is None:
        pairs = [(l, m) for l in range(n) for m in range(n)]
    corr = {
        p: np.array([np.einsum("ij,ji->", _pm_product(p[0], p[1], n), st)
                     for st in series.states])
        for p in pairs
    }
    worst = 0.0
    for p in pairs:
        c = corr[p]
        fd = (c[2:] - c[:-2]) / (2.0 * step)
        for k, deriv in enumerate(fd, start=1):
            rhs_val = heisenberg_correlation_rhs(series.states[k], rates, p[0], p[1],
                                                 omegas=omegas, cross_pairing=cross_pairing)
            worst = max(worst, abs(deriv - rhs_val))
    return worst
