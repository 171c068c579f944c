"""Time integration and observables: populations, emission rate, coherences,
pairwise concurrence, and the independent correlation-equation oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, IntegrationError
from .liouvillian import LindbladGenerator, Sector, check_density_matrix
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
_CHECK_EVERY = 100  # steps between hard checks, and between evaluations of the snapshots
_POP_FLOOR = -1e-9
_BATCH_ENTRIES = 1 << 20  # evaluate sooner when the snapshots hold this many entries
_STEP_ENTRY_MAX = 1e308  # bound on a step's entries from which evolve refuses to step


@dataclass
class TimeSeries:
    """Recorded trajectory: times, observable rows, optionally retained states.

    Columns are (P_1..P_N, P_tot, R_tot, C_coh, C_conc, trace_err, min_eig);
    C_conc refers to the `concurrence_pair` that `evolve` was given.
    """

    times: np.ndarray
    columns: tuple[str, ...]
    records: np.ndarray
    states: list[np.ndarray] | None = None
    max_trace_drift: float = 0.0

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
    return _checked_population(float(rho.diagonal().real @ mask), j)


def _checked_population(p: float, j: int) -> float:
    if p < _POP_FLOOR:
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
    # atom a labels its row axis n-1-a and its column axis 2n-1-a with a, so
    # einsum traces it out; a kept atom's column axis gets n+a instead
    sub = [n - 1 - axis for axis in range(n)] * 2
    sub[2 * n - 1 - j], sub[2 * n - 1 - l] = n + j, n + l
    # rows (l, j), cols (l, j): keep[0] is LSB
    return np.einsum(rho.reshape([2] * (2 * n)), sub, [l, j, n + l, n + j]).reshape(4, 4)


_SY_SY = np.array([[0, 0, 0, -1],
                   [0, 0, 1, 0],
                   [0, 1, 0, 0],
                   [-1, 0, 0, 0]], dtype=complex)


def concurrence(rho2: np.ndarray) -> float | np.ndarray:
    """Two-qubit concurrence from the square roots of the eigenvalues of
    rho * (sy x sy) rho^* (sy x sy), tiny negative roundoff clamped.

    rho2 may carry leading batch axes; then the array of concurrences is
    returned, and the first failing state in C order raises, with its first
    failing check.
    """
    rho2 = np.asarray(rho2, dtype=complex)
    if rho2.shape[-2:] != (4, 4):
        raise DomainError(f"concurrence needs a 4x4 state, got {rho2.shape}")
    batch = rho2.shape[:-2]
    rho2 = rho2.reshape(-1, 4, 4)
    finite = np.isfinite(rho2).all(axis=(1, 2))
    ok = len(rho2) if finite.all() else int(finite.argmin())
    rho_tilde = _SY_SY @ rho2[:ok].conj() @ _SY_SY  # no LAPACK call sees a non-finite state
    evals = np.linalg.eigvals(rho2[:ok] @ rho_tilde).real
    low = evals.min(axis=1)
    bad = low < -1e-9
    first = int(bad.argmax()) if bad.any() else ok
    # the states up to the first bad spectrum or non-finite state are checked
    # first, as one at a time; the non-finite one fails there
    check_density_matrix(rho2[:first + 1], herm_tol=1e-8, trace_tol=1e-8, eig_floor=-1e-9)
    if first < ok:
        raise DomainError(f"spectrum of rho*rho_tilde has eigenvalue {low[first]:.3e}")
    lam = np.sort(np.sqrt(np.clip(evals, 0.0, None)), axis=1)
    conc = np.maximum(0.0, lam[:, 3] - lam[:, 2] - lam[:, 1] - lam[:, 0])
    return conc.reshape(batch) if batch else float(conc[0])


class RecordMap:
    """The recorded observables of a state on `sector` as linear maps of its
    block vector u, and the row blocks of rho for its lowest eigenvalue.

    The rows of W are P_1..P_N, Tr rho, <sigma_j^+ sigma_l^-> for j < l and,
    when `pair` is given, the 16 entries of the pair's reduced state in
    row-major order: each a 0/1 weight on the sector's pairs, summed over the
    blocks (`Sector.functionals`). R_tot is the sector's emission row.
    """

    def __init__(self, sector: Sector, n: int, pair: tuple[int, int] | None):
        x, y = np.divmod(sector.pairs, sector.dim)
        diag = x == y
        weights = [diag & ((x >> j) & 1 == 1) for j in range(n)] + [diag]
        for j in range(n):
            for l in range(j + 1, n):
                # <sigma_j^+ sigma_l^-> = rho[x, y], atom l excited only in x, atom j only in y
                weights.append(((x ^ y) == (1 << j) | (1 << l))
                               & ((x >> l) & 1 == 1) & ((x >> j) & 1 == 0))
        if pair is not None:
            # entry (r, c) of the reduced state sums rho[x, y] over the pairs
            # that agree off the kept atoms; pair[0] is the low bit of r and c
            j, l = pair
            traced = ((x ^ y) & ~((1 << j) | (1 << l))) == 0
            entry = (4 * (((x >> j) & 1) + 2 * ((x >> l) & 1))
                     + ((y >> j) & 1) + 2 * ((y >> l) & 1))
            weights += [traced & (entry == e) for e in range(16)]
        self.n_atoms = n
        self.W = sector.functionals(np.array(weights))
        self.emission = sector.emission
        self.blocks = sector.row_blocks()

    def linear(self, U: np.ndarray):
        """(populations, traces, correlations <sigma_j^+ sigma_l^->, reduced
        pair states or None, R_tot) of the block vectors in the rows of U."""
        n = self.n_atoms
        V = (self.W @ U.T).T
        corr_end = n + 1 + n * (n - 1) // 2
        rho2 = V[:, corr_end:].reshape(-1, 4, 4) if V.shape[1] > corr_end else None
        return (V[:, :n].real, V[:, n], V[:, n + 1:corr_end], rho2,
                -(U @ self.emission).real)

    def min_eig(self, U: np.ndarray) -> np.ndarray:
        """Lowest eigenvalue of rho for each block vector in the rows of U,
        from one stacked eigvalsh per row-block size."""
        U0 = np.concatenate([U, np.zeros((len(U), 1))], axis=1)
        return np.min([np.linalg.eigvalsh(U0[:, idx]).min(axis=(1, 2))
                       for idx in self.blocks], axis=0)


def evolve(rho0: np.ndarray, H: np.ndarray | None, rates: RateSet,
           t_max: float, dt: float = 1e-3, record_every: int = 10,
           retain_states: bool = False, concurrence_pair: tuple[int, int] = (0, 1),
           cross_pairing: str = "anomalous") -> TimeSeries:
    """Fixed-step RK4 integration of the master equation, with H the 2^N
    energies of `build_hamiltonian`, or None for the interaction picture.

    The state is kept as the block vector u of the lumped sector of rho0
    (`LindbladGenerator.sector`); a step costs four products with its L_hat.
    The state is re-Hermitized and trace-renormalized after every step (drift
    is logged in max_trace_drift). Observables are recorded every
    `record_every` steps and at the final time, and invariants are
    hard-checked every 100 steps. Both are snapshots of u, evaluated together
    through a `RecordMap` every 100 steps, at the end and before a trace-drift
    error. The earliest failing snapshot raises as a check at its own step
    would have: IntegrationError for a non-finite state, a trace error or an
    eigenvalue below the floor, then DomainError for a negative population or
    an invalid reduced pair state.
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
    # For a constant linear L the four RK4 stages combine to the degree-4
    # Taylor polynomial of exp(dt L); it is evaluated in Horner form,
    # u + dt L (u + dt/2 L (u + dt/3 L (u + dt/4 L u))), as w <- u + c L_hat w.
    # With |u_i| <= 1 and M = ||L_hat||_inf, |L_hat w| <= M |w| and
    # |w| <= 1 + c M |w| (max norms) bound every entry a step forms. From a
    # bound of 1e308, under the float64 limit 1.8e308, the first step can
    # overflow, so the input is refused before stepping
    row_sum = float(abs(sector.L_hat).sum(axis=1).max())
    horner = (dt / 4.0, dt / 3.0, dt / 2.0, dt)
    bound = peak = 1.0
    for c in horner:
        product = row_sum * bound
        bound = 1.0 + c * product
        peak = max(peak, product, bound)
    if peak >= _STEP_ENTRY_MAX:
        raise DomainError(f"an RK4 step of dt = {dt:.3e} on a generator with largest absolute "
                          f"row sum {row_sum:.3e} may form entries up to {peak:.3e}, at or "
                          f"above {_STEP_ENTRY_MAX:.0e}: it would overflow")
    u = sector.gather(rho)
    record_map = RecordMap(sector, n, pair)

    columns = tuple(f"P_{j + 1}" for j in range(n)) + (
        "P_tot", "R_tot", "C_coh", "C_conc", "trace_err", "min_eig")
    times, rows, states = [], [], ([] if retain_states else None)
    pending: list[tuple[int, bool, np.ndarray]] = []  # (steps taken, is a record, u)
    max_drift = 0.0

    def snapshot(step, is_record, u):
        pending.append((step, is_record, u))
        if len(pending) * len(u) >= _BATCH_ENTRIES:
            evaluate()

    def evaluate():
        if not pending:
            return
        steps = np.array([s[0] for s in pending])
        is_record = np.array([s[1] for s in pending])
        U = np.array([s[2] for s in pending])
        pending.clear()
        finite = np.isfinite(U).all(axis=1)
        ok = len(U) if finite.all() else int(finite.argmin())
        U = U[:ok]  # no LAPACK call sees a non-finite state
        pops, trace, corr, rho2, r_tot = record_map.linear(U)
        trace_err = np.abs(trace.real - 1.0) + np.abs(trace.imag)
        min_eig = record_map.min_eig(U)
        bad = ((trace_err > _TRACE_HARD) | (min_eig < _EIG_HARD)
               | (is_record[:ok] & (pops < _POP_FLOOR).any(axis=1)))
        first = int(bad.argmax()) if bad.any() else ok
        rec = np.flatnonzero(is_record[:first])
        # raises for the earliest invalid reduced state, all before `first`
        conc = concurrence(rho2[rec]) if pair else np.zeros(len(rec))
        if first < len(steps):
            step = int(steps[first])
            if first == ok:
                raise IntegrationError("state became non-finite", step=step)
            if trace_err[first] > _TRACE_HARD:
                raise IntegrationError(f"trace error {trace_err[first]:.3e} beyond hard "
                                       f"tolerance {_TRACE_HARD}", step=step)
            if min_eig[first] < _EIG_HARD:
                raise IntegrationError(f"state eigenvalue {min_eig[first]:.3e} below hard "
                                       f"floor {_EIG_HARD}", step=step)
            for j, value in enumerate(pops[first]):
                _checked_population(value, j)
        p = np.maximum(pops[rec], 0.0)
        times.extend(steps[rec] * dt)
        rows.append(np.column_stack([p, p.sum(axis=1), r_tot[rec],
                                     2.0 * np.abs(corr[rec]).sum(axis=1), conc,
                                     trace_err[rec], min_eig[rec]]))
        if states is not None:
            states.extend(sector.scatter(v) for v in U[rec])

    for step in range(nsteps):
        if step % record_every == 0:
            snapshot(step, True, u)
        w = u
        for c in horner:
            w = u + c * (sector.L_hat @ w)
        u = w
        # the Hermitized state has the trace Re(sum of the diagonal entries)
        tr = float((sector.diag_count @ u).real)
        if not math.isfinite(tr) or abs(tr - 1.0) > _TRACE_HARD:
            evaluate()  # an earlier snapshot's failure comes first
            raise IntegrationError(f"trace drift {abs(tr - 1.0):.3e} beyond hard "
                                   f"tolerance {_TRACE_HARD}", step=step + 1)
        max_drift = max(max_drift, abs(tr - 1.0))
        u = (u + u[sector.block_swap].conj()) * (0.5 / tr)
        if (step + 1) % _CHECK_EVERY == 0 or step == nsteps - 1:
            snapshot(step + 1, False, u)
            evaluate()
    snapshot(nsteps, True, u)
    evaluate()

    return TimeSeries(times=np.array(times), columns=columns, records=np.concatenate(rows),
                      states=states, max_trace_drift=max_drift)


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
