"""Time integration and observables: populations, emission rate, coherences,
pairwise concurrence, and the independent correlation-equation oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, IntegrationError
from .liouvillian import (_NON_FINITE, LindbladGenerator, Sector, _check_square, _density_checks,
                          _density_failures, _first_failure, _Slot)
from .operators import all_excited, all_ground, product_state, sigma_minus, sigma_plus, number_op
from .rates import RateSet, kossakowski_matrix

__all__ = [
    "TimeSeries", "check_step", "evolve", "population", "populations", "total_emission_rate",
    "coherence_measure", "partial_trace", "concurrence", "correlation_oracle",
    "heisenberg_correlation_rhs", "all_excited", "all_ground", "product_state",
]

# hard invariant tolerances for the integrator
_TRACE_HARD = 1e-6
_EIG_HARD = -1e-6
_CHECK_EVERY = 100  # steps between hard checks
_POP_FLOOR = -1e-9
_BATCH_ENTRIES = 1 << 17  # evaluate the snapshots when their evaluation gathers this many entries
                          # (2^20 made long runs slower and up to 25 MB larger in peak memory)
_STEP_ENTRY_MAX = 1e308  # bound on a step's entries from which check_step refuses it


@dataclass
class TimeSeries:
    """Recorded trajectory: times, observable rows, optionally retained states.

    Columns are (P_1..P_N, P_tot, R_tot, C_coh, C_conc, trace_err, min_eig);
    C_conc refers to the `concurrence_pair` that `evolve` was given. The
    events of `evolve` are its hard checks (every 100 steps and the last
    step), and a record is a snapshot inside a check interval, so
    max_trace_drift is the largest trace drift accumulated within a check
    interval, from the renormalized state at its start. The records are
    evaluated per batch of snapshots and at the end of the run, each on its
    own, so no row depends on its batch.
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
    p = float(rho.diagonal().real @ mask)
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


_PAIR_TOLERANCES = (1e-8, 1e-8, -1e-9)  # a pair state's Hermiticity, trace, eigenvalue floor
_SY_SY = np.array([[0, 0, 0, -1],
                   [0, 0, 1, 0],
                   [0, 1, 0, 0],
                   [-1, 0, 0, 0]], dtype=complex)


def concurrence(rho2: np.ndarray) -> float | np.ndarray:
    """Two-qubit concurrence from the square roots of the eigenvalues of
    rho * (sy x sy) rho^* (sy x sy), tiny negative roundoff clamped.

    rho2 may carry leading batch axes; then the array of concurrences is
    returned, and the first failing state in C order raises, with its first
    failing check. This is the generic path, by LAPACK, for any state: the
    oracle of the closed forms that `evolve` uses for X-shaped pair states.
    """
    rho2 = np.asarray(rho2, dtype=complex)
    if rho2.shape[-2:] != (4, 4):
        raise DomainError(f"concurrence needs a 4x4 state, got {rho2.shape}")
    conc, checks = _concurrence_core(rho2.reshape(-1, 4, 4))
    if failure := _first_failure(checks):
        raise DomainError(failure[1])
    return conc.reshape(rho2.shape[:-2]) if rho2.ndim > 2 else float(conc[0])


def _concurrence_core(rho2: np.ndarray):
    """The concurrences of the states rho2 (count, 4, 4) and their ordered
    checks: check_density_matrix's at 1e-8, then the spectrum of rho*rho_tilde."""
    rho2, checks = _density_checks(rho2, *_PAIR_TOLERANCES)
    with np.errstate(over="ignore", invalid="ignore"):
        product = rho2 @ (_SY_SY @ rho2.conj() @ _SY_SY)
    # a product that overflows is zeroed, so that LAPACK never sees it: its
    # state has an entry far beyond 1, so it fails a check above
    product[~np.isfinite(product).all(axis=(1, 2))] = 0
    return _wootters(np.linalg.eigvals(product).real, checks)


# the entries of an X state, on the diagonal and the anti-diagonal: rho_ii,
# then rho_03, rho_12, rho_21, rho_30
_X_ROWS, _X_COLS = [0, 1, 2, 3, 0, 1, 2, 3], [0, 1, 2, 3, 3, 2, 1, 0]


def _x_concurrence_core(x: np.ndarray):
    """_concurrence_core for X states, given as their 8 entries (count, 8) at
    _X_ROWS, _X_COLS; the entries off the diagonal and the anti-diagonal are
    zero: rho and rho*rho_tilde are then direct sums of 2 x 2 blocks on
    {00, 11} and {01, 10}, so every eigenvalue comes in closed form (Yu &
    Eberly, Quantum Inf. Comput. 7, 459, 2007). The same checks, in the same
    order, with the same messages."""
    finite = np.isfinite(x).all(axis=1)
    x = np.where(finite[:, None], x, 0)
    # per block [[p, q], [r, s]]: {00, 11} in column 0, {01, 10} in column 1
    p, s, q, r = x[:, [0, 1]], x[:, [3, 2]], x[:, [4, 5]], x[:, [7, 6]]
    # an overflow or a division by zero comes from a state that fails a check
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        herm = np.maximum(2.0 * np.abs(x[:, :4].imag).max(axis=1),
                          np.abs(q - r.conj()).max(axis=1))
        tr_err = np.abs(x[:, :4].sum(axis=1) - 1.0)
        # the Hermitized block [[a, b], [b*, d]] has eigenvalues (a+d)/2 +- hypot((a-d)/2, |b|)
        a, d = p.real, s.real
        min_eig = ((a + d) / 2 - np.hypot((a - d) / 2, np.abs((q + r.conj()) / 2))).min(axis=1)
        # M = B B_tilde, with B_tilde = [[s*, r*], [q*, p*]], has the eigenvalues
        # m +- sqrt(e^2 + M01 M10) (m and e the half sum and half difference of
        # its diagonal) and the determinant |det B|^2: the larger in size from
        # the root, the smaller as the determinant over it, without cancellation
        m00, m11 = p * s.conj() + q * q.conj(), r * r.conj() + s * p.conj()
        m, e = (m00 + m11) / 2, (m00 - m11) / 2
        root = np.sqrt(e * e + (p * r.conj() + q * p.conj()) * (r * s.conj() + s * q.conj()))
        big = m + np.where((m.conj() * root).real >= 0, root, -root)
        small = np.where(big != 0, np.abs(p * s - q * r) ** 2 / big, 0)
        evals = np.hstack((small, big)).real
    evals[~np.isfinite(evals).all(axis=1)] = 0  # as _concurrence_core's product
    return _wootters(evals, _density_failures(finite, herm, tr_err, min_eig, *_PAIR_TOLERANCES))


def _wootters(evals: np.ndarray, checks):
    """The concurrences from the spectra of rho*rho_tilde (count, 4), and the
    checks with the spectrum's appended."""
    low = evals.min(axis=1)
    checks.append((low < -1e-9, lambda i: f"spectrum of rho*rho_tilde has eigenvalue {low[i]:.3e}"))
    lam = np.sort(np.sqrt(np.clip(evals, 0.0, None)), axis=1)
    return np.maximum(0.0, lam[:, 3] - lam[:, 2] - lam[:, 1] - lam[:, 0]), checks


class RecordMap:
    """The recorded observables of a state on `sector` as linear maps of its
    block vector u, and the row-block quotients of rho for its lowest eigenvalue.

    The rows of W are P_1..P_N, Tr rho, <sigma_j^+ sigma_l^-> for j < l and,
    when `pair` is given, the 16 entries of the pair's reduced state in
    row-major order: each a 0/1 weight on the sector's pairs, summed over the
    blocks (`Sector.functionals`). `x_shaped` says that no pair of the sector
    reaches an entry of the pair state off its diagonal and anti-diagonal: W
    then has rows for the 8 entries on them only, in the order of _X_ROWS,
    _X_COLS, and the concurrence and checks come from the closed forms of
    `_x_concurrence_core`, else from the generic `_concurrence_core`, their
    oracle. A map holds structure only: it depends on the sector's dim,
    pairs and labels, N and the pair, so the runs of a sweep share one
    (`evolve`), and its arrays are read-only. R_tot, from the sector's own
    emission row, is not one of its maps.
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
        # an X-shaped pair state: no pair of the sector reaches an entry off
        # the diagonal and the anti-diagonal, where r XOR c is 1 or 2; W then
        # keeps only the 8 entries on them, in the order of _X_ROWS, _X_COLS
        self.x_shaped = pair is not None and not any(
            weights[-16 + e].any() for e in range(16) if ((e >> 2) ^ (e & 3)) in (1, 2))
        if self.x_shaped:
            weights[-16:] = [weights[-16 + 4 * r + c] for r, c in zip(_X_ROWS, _X_COLS)]
        self.W = sector.functionals(np.array(weights))
        # Within a component of rho's rows, rows with equal label rows are
        # equal rows of rho and, through block_swap, equal columns, whatever u
        # is: the component's s x s block is E C E^T, with C on one
        # representative row per class (the first) and E the s x m class
        # membership. Its spectrum is that of D^1/2 C D^1/2 (D the class
        # sizes) and s - m exact zeros. Per (s, m): the representatives'
        # entries (count, m, m), D^1/2 x D^1/2 and the cap 0 on the lowest
        # eigenvalue; where m == s the entries are the row blocks themselves,
        # with scale 1 and no cap.
        self.quotients = []
        for idx in sector.row_blocks():
            count, s, _ = idx.shape
            # the rows sorted stably by (component, label row); a class starts
            # where the key changes, and its first row is its representative
            keys = np.vstack((idx.reshape(-1, s).T[::-1], np.arange(count).repeat(s)))
            order = np.lexsort(keys)
            start = np.concatenate(([True], (np.diff(keys[:, order]) != 0).any(axis=0)))
            cls = np.empty(count * s, dtype=np.intp)
            cls[order] = np.cumsum(start) - 1
            first, size = order[start], np.bincount(cls)
            rep = (first[cls] == np.arange(count * s)).reshape(count, s)  # first of its class
            classes = rep.sum(axis=1)
            for m in np.flatnonzero(np.bincount(classes)):
                comp = np.flatnonzero(classes == m)[:, None]
                at = np.nonzero(rep[comp[:, 0]])[1].reshape(-1, m)
                w = np.sqrt(size[cls].reshape(count, s)[comp, at])
                scale, cap = (w[:, :, None] * w[:, None, :], 0.0) if m < s else (1.0, np.inf)
                self.quotients.append((idx[comp[:, :, None], at[:, :, None], at[:, None, :]],
                                       scale, cap))
        # the entries evaluating one state gathers: u, its linear functionals
        # and its row-block quotients
        self.entries = sum(self.W.shape) + sum(q.size for q, _, _ in self.quotients)
        W = self.W
        arrays = [W] if isinstance(W, np.ndarray) else [W.data, W.indices, W.indptr]
        for array in arrays + [a for q in self.quotients for a in q[:2]
                               if isinstance(a, np.ndarray)]:  # a scale of 1 is a float
            array.setflags(write=False)

    def linear(self, U: np.ndarray):
        """(populations, traces, correlations <sigma_j^+ sigma_l^->, reduced
        pair states or None) of the block vectors in the rows of U, each row
        by its own product, so that its numbers do not depend on the batch
        (a CSR product sums each column of W @ U.T on its own). The pair
        states are (count, 4, 4), or their 8 entries at _X_ROWS, _X_COLS
        (count, 8) when the map is `x_shaped`."""
        n = self.n_atoms
        V = (np.matmul(self.W, U[:, :, None])[:, :, 0] if isinstance(self.W, np.ndarray)
             else (self.W @ U.T).T)
        corr_end = n + 1 + n * (n - 1) // 2
        if V.shape[1] == corr_end:
            rho2 = None
        else:
            rho2 = V[:, corr_end:] if self.x_shaped else V[:, corr_end:].reshape(-1, 4, 4)
        return V[:, :n].real, V[:, n], V[:, n + 1:corr_end], rho2

    def min_eig(self, U: np.ndarray) -> np.ndarray:
        """Lowest eigenvalue of rho for each block vector in the rows of U
        (`_lowest_eigenvalues` of the row-block quotients)."""
        return _lowest_eigenvalues(self.quotients, U)


def _lowest_eigenvalues(quotients, U: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue of rho for each block vector in the rows of U, from
    one stacked eigvalsh per (row-block size, row classes) of a RecordMap's
    `quotients`: on the m x m quotients D^1/2 C D^1/2 of a lumped block, with
    its s - m exact zeros as min(., 0), and on the row blocks themselves where
    every row is its own class. A 1 x 1 quotient is its own eigenvalue."""
    U0 = np.concatenate([U, np.zeros((len(U), 1))], axis=1)
    lows = []
    for q, scale, cap in quotients:
        C = U0[:, q] * scale
        eig = C[..., 0].real if C.shape[-1] == 1 else np.linalg.eigvalsh(C)
        lows.append(np.minimum(eig.min(axis=(1, 2)), cap))
    return np.min(lows, axis=0)


_record_maps = _Slot()  # the RecordMap of a sector structure, which a sweep's runs share


_RHO0_TOLERANCES = (1e-10, 1e-10, -1e-9)  # check_density_matrix's defaults


def _check_on_sector(sector: Sector, u: np.ndarray, quotients) -> None:
    """check_density_matrix's Hermiticity, trace and eigenvalue checks, in
    that order and with its messages, on the state of block vector u, with no
    dim x dim matrix formed: max |u - conj(u[block_swap])|, |diag_count @ u - 1|
    and the lowest eigenvalue of the Hermitized u on the row-block `quotients`.
    They are those of rho when sector.scatter(u) is rho, as it is for the
    state a sector is built from: its nonzeros lie on the pairs, and the
    blocks refine its values."""
    swap = sector.block_swap
    herm = np.abs(u - u[swap].conj()).max(initial=0.0)
    tr_err = abs(sector.diag_count @ u - 1.0)
    low = _lowest_eigenvalues(quotients, ((u + u[swap].conj()) / 2)[None])
    checks = _density_failures(np.ones(1, dtype=bool), np.array([herm]), np.array([tr_err]),
                               low, *_RHO0_TOLERANCES)
    if failure := _first_failure(checks):
        raise DomainError(failure[1])


def check_step(H: np.ndarray | None, rates: RateSet, dt: float,
               cross_pairing: str = "anomalous") -> None:
    """Raise DomainError if an RK4 step of dt on the generator of (H, rates)
    may form an entry of 1e308 or more (float64 ends at 1.8e308), on any sector.

    Each term piece A rho B is a partial injection on the pairs, so
    ||L||_inf <= M = 2 max|h| + 4 sum_ab |K_ab|; lumping sums columns, so
    ||L_hat||_inf <= M. The step is w <- u + c L_hat w for c = dt/4, dt/3,
    dt/2, dt (RK4 of a constant L in Horner form); with |u_i| <= 1 the max
    norms |L_hat w| <= M |w| and |w| <= 1 + c M |w| bound every entry formed."""
    with np.errstate(over="ignore"):  # an inf bound is refused below
        row_sum = (2.0 * (0.0 if H is None else float(np.abs(H).max()))
                   + 4.0 * float(np.abs(kossakowski_matrix(rates, cross_pairing)).sum()))
    bound = peak = 1.0
    for c in (dt / 4.0, dt / 3.0, dt / 2.0, dt):
        product = row_sum * bound
        bound = 1.0 + c * product
        peak = max(peak, product, bound)
    if peak >= _STEP_ENTRY_MAX:
        raise DomainError(f"an RK4 step of dt = {dt:.3e} on row sums up to {row_sum:.3e} may "
                          f"form entries up to {peak:.3e} >= 1e308: it would overflow")


def evolve(rho0: np.ndarray, H: np.ndarray | None, rates: RateSet,
           t_max: float, dt: float = 1e-3, record_every: int = 10,
           retain_states: bool = False, concurrence_pair: tuple[int, int] = (0, 1),
           cross_pairing: str = "anomalous") -> TimeSeries:
    """Fixed-step RK4 integration of the master equation, with H the 2^N
    energies of `build_hamiltonian`, or None for the interaction picture.

    The state is kept as the block vector u of the lumped sector of rho0
    (`LindbladGenerator.sector`, whose structure a sweep builds once).
    rho0 gets check_density_matrix's checks and messages, in its order, but
    only its shape and finiteness on the full matrix; the concurrence pair
    and the step (`check_step`) are checked next, then rho0's Hermiticity,
    trace and lowest eigenvalue on its sector (`_check_on_sector`), with no
    dim x dim matrix formed. Observables are recorded every
    `record_every` (an integer >= 1) steps and at the final time, and
    invariants are hard-checked every 100 steps and at the final time; the
    checks are the events. u goes from check to check by k RK4 steps
    P = T4(dt L_hat), with no correction in between, and the states at the
    records inside the interval and at its check are snapshots: each
    Hermitized and trace-renormalized by its own trace, which is the same
    state as doing so after every step, since P commutes with the
    swap-conjugation. u goes on from the check's snapshot. On a dense L_hat
    (at most 128 blocks) all snapshots of an interval come from one product
    with a cached stack of the powers P^o at their offsets o, at most
    100 x 128^2 complex entries (26 MB). A record_every that divides 100
    needs one such stack per run, and one more for a shorter last interval;
    any other holds at most 199 powers over its full intervals (52 MB) and
    up to 100 more for the last (78 MB in all). On a CSR L_hat they
    are the states after k Horner steps at the offsets. The trace after every
    step is still checked, from the rows diag_count P^j applied to each
    snapshot's predecessor; max_trace_drift is the largest drift accumulated
    within a check interval. Each state is snapshotted once; the snapshots are
    evaluated together through a `RecordMap` (built once per sector
    structure and kept in a slot keyed by it; R_tot from the run's own
    emission row) when their evaluation gathers 2^17 entries
    (`RecordMap.entries` per snapshot: about 2500 snapshots on fig2's
    N = 6 sector), before a trace-drift error and at the end of the run,
    each on its own, so that a record does not depend on its batch; the
    reduced pair states of an X-shaped sector (every run from a basis
    product state) by closed forms with no LAPACK call, any other by the
    generic path of `concurrence`. Each state is checked for, in order, a
    non-finite entry, a trace error, an eigenvalue below the floor, then, on
    records, a negative population and an invalid reduced pair state; the
    earliest failing state raises its first failing check as
    IntegrationError, naming its step, and a trace drift raises at the step
    it happens, after the snapshots before it. So
    a failure other than a trace drift keeps its step and message but is
    raised up to one batch, or the run's end, after its step: a
    positivity-breaking run (the N = 4 counter wedges from the ground state
    under cross_pairing "literal", dt = 0.01, a record every 10 steps)
    fails its first record at step 10; it is stopped after 3.5 ms on 2000
    steps, 20 ms on 20000 and 25 ms on 200000 or 2000000 (its batch of
    2341 snapshots fills at about 23400 steps), against 2 ms in each case
    when every check interval was evaluated on its own (2-core VM).
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise DomainError(f"dt must be finite and > 0, got {dt}")
    if not (t_max >= 0 and math.isfinite(t_max)):
        raise DomainError(f"t_max must be finite and >= 0, got {t_max}")
    if not isinstance(record_every, (int, np.integer)) or record_every < 1:
        raise DomainError(f"record_every must be an integer >= 1, got {record_every!r}")
    if not math.isfinite(t_max / dt):
        raise DomainError(f"t_max / dt = {t_max / dt} is not a finite number of steps")
    nsteps = round(t_max / dt)
    if abs(t_max / dt - nsteps) > 1e-9 * nsteps:
        raise DomainError(f"t_max = {t_max} is not a whole number of steps dt = {dt}")
    gen = LindbladGenerator(H, rates, cross_pairing)
    n = gen.n_atoms
    # rho0 gets check_density_matrix's checks in their order: its shape and
    # finiteness here, on every entry, and the others on its sector
    rho = np.asarray(rho0, dtype=complex)
    _check_square(rho)
    if not np.isfinite(rho).all():
        raise DomainError(_NON_FINITE)
    if n >= 2:
        pair = tuple(concurrence_pair)
        if (len(pair) != 2 or pair[0] == pair[1]
                or not all(isinstance(p, (int, np.integer)) and 0 <= p < n for p in pair)):
            raise DomainError(f"concurrence_pair {concurrence_pair} must be two distinct "
                              f"atom indices < {n}")
    else:
        pair = None
    check_step(H, rates, dt, cross_pairing)
    sector = gen.sector(rho)
    u = sector.gather(rho)
    record_map = _record_maps.get(
        (sector.dim, n, pair, len(sector.block_swap), sector.pairs.tobytes(),
         sector.labels.tobytes()), lambda: RecordMap(sector, n, pair))
    _check_on_sector(sector, u, record_map.quotients)
    L_hat, swap = sector.L_hat, sector.block_swap
    dense = isinstance(L_hat, np.ndarray)

    def rk4(v, apply=lambda w: L_hat @ w):
        # the step P = T4(dt L_hat) of each column of v, in Horner form (check_step)
        w = v
        for c in (dt / 4.0, dt / 3.0, dt / 2.0, dt):
            w = v + c * apply(w)
        return w

    # P is a polynomial in L_hat, so the row diag_count steps by the same
    # Horner form: the traces after j = 1..len steps from v are trace_rows[:len] @ v
    trace_rows = np.empty((min(record_every, _CHECK_EVERY, nsteps), len(swap)), dtype=complex)
    row = sector.diag_count
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails its trace
        for j in range(len(trace_rows)):
            row = trace_rows[j] = rk4(row, lambda w: w @ L_hat)
    if dense:  # each column of P is one step of a unit vector (check_step)
        P, stacks = rk4(np.eye(len(swap))), {}  # per (first offset, interval length)

    def stacked(offsets):
        # P^o for each offset o, as one (len(offsets) * blocks, blocks) matrix,
        # each the power of the gap to the previous offset times the previous one
        gaps = np.diff(offsets, prepend=0)
        powers = {g: np.linalg.matrix_power(P, g) for g in set(gaps.tolist())}
        stack = np.empty((len(offsets), len(swap), len(swap)), dtype=complex)
        power = np.eye(len(swap))
        for i, g in enumerate(gaps):
            power = stack[i] = powers[g] @ power
        return stack.reshape(-1, len(swap))

    columns = tuple(f"P_{j + 1}" for j in range(n)) + (
        "P_tot", "R_tot", "C_coh", "C_conc", "trace_err", "min_eig")
    times, rows, states = [], [], ([] if retain_states else None)
    pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (steps taken, is a record, U)
    max_drift = 0.0

    def evaluate():
        if not pending:
            return
        steps, is_record, U = (np.concatenate(column) for column in zip(*pending))
        pending.clear()
        finite = np.isfinite(U).all(axis=1)
        U[~finite] = 0  # no LAPACK call sees a non-finite state
        pops, trace, corr, rho2 = record_map.linear(U)
        r_tot = -np.matmul(U[:, None, :], sector.emission[:, None])[:, 0, 0].real
        trace_err = np.abs(trace.real - 1.0) + np.abs(trace.imag)
        min_eig = record_map.min_eig(U)
        low = pops < _POP_FLOOR
        atom = low.argmax(axis=1)
        if pair is None:
            conc, pair_checks = np.zeros(len(U)), []
        else:
            kernel = _x_concurrence_core if record_map.x_shaped else _concurrence_core
            conc, pair_checks = kernel(rho2)
        failure = _first_failure([
            (~finite, lambda i: "state became non-finite"),
            (trace_err > _TRACE_HARD,
             lambda i: f"trace error {trace_err[i]:.3e} beyond hard tolerance {_TRACE_HARD}"),
            (min_eig < _EIG_HARD,
             lambda i: f"state eigenvalue {min_eig[i]:.3e} below hard floor {_EIG_HARD}"),
            (is_record & low.any(axis=1),
             lambda i: f"population of atom {atom[i]} is {pops[i, atom[i]]:.3e} < -1e-9"),
            *((is_record & mask, lambda i, message=message: f"reduced pair state: {message(i)}")
              for mask, message in pair_checks)])
        if failure:
            raise IntegrationError(failure[1], step=int(steps[failure[0]]))
        p = np.maximum(pops[is_record], 0.0)
        times.extend(steps[is_record] * dt)
        rows.append(np.column_stack([p, p.sum(axis=1), r_tot[is_record],
                                     2.0 * np.abs(corr[is_record]).sum(axis=1), conc[is_record],
                                     trace_err[is_record], min_eig[is_record]]))
        if states is not None:
            states.extend(sector.scatter(v) for v in U[is_record])

    def snapshot(at, start, W, ends):
        # W[i], the state after ends[i] steps, unnormalized since the check,
        # is reached from W[i - 1], and W[0] from `start` after `at` steps. The
        # traces after each step are Re(trace_rows[:length] @ each start),
        # each its own product, so that they do not depend on the batch
        nonlocal max_drift
        lengths = np.diff(ends, prepend=at)
        starts = np.vstack((start, W[:-1]))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails its trace
            traces = np.matmul(trace_rows, starts[:, :, None])[:, :, 0].real
            traces = traces[np.arange(len(trace_rows)) < lengths[:, None]]
            U = (W + W[:, swap].conj()) * (0.5 / traces[ends - at - 1])[:, None]
        is_record = (ends % record_every == 0) | (ends == nsteps)
        drift = np.abs(traces - 1.0)
        worst = float(drift.max())
        if not worst <= _TRACE_HARD:  # a non-finite trace too
            j = int((~(drift <= _TRACE_HARD)).argmax())
            before = ends <= at + j  # an earlier snapshot's failure comes first
            pending.append((ends[before], is_record[before], U[before]))
            evaluate()
            raise IntegrationError(f"trace drift {drift[j]:.3e} beyond hard tolerance "
                                   f"{_TRACE_HARD}", step=at + j + 1)
        max_drift = max(max_drift, worst)
        pending.append((ends, is_record, U))
        return U[-1]

    def batch_full(taken=0):
        # whether evaluating the pending snapshots and `taken` more gathers a batch
        held = sum(len(steps) for steps, _, _ in pending) + taken
        return held * record_map.entries >= _BATCH_ENTRIES

    pending.append((np.zeros(1, dtype=int), np.ones(1, dtype=bool), u[None]))
    for step in range(0, nsteps, _CHECK_EVERY):  # from check to check
        k = min(_CHECK_EVERY, nsteps - step)
        # the snapshots: the records within (step, step + k], and the check
        ends = np.append(np.arange(step + record_every - step % record_every, step + k,
                                   record_every), step + k)
        if dense:  # all of them from one stacked product
            with np.errstate(over="ignore", invalid="ignore"):
                key = (ends[0] - step, k)  # which fix every offset
                if key not in stacks:
                    stacks[key] = stacked(ends - step)
                W = (stacks[key] @ u).reshape(len(ends), -1)
            u = snapshot(step, u, W, ends)
            if batch_full():
                evaluate()
        else:  # k Horner steps; the snapshots are taken before they outgrow a batch
            at, start, w, taken = step, u, u, []
            for s in range(step + 1, step + k + 1):
                with np.errstate(over="ignore", invalid="ignore"):
                    w = rk4(w)
                if s in ends:
                    taken.append(w)
                    full = batch_full(len(taken))
                    if full or s == step + k:
                        u = snapshot(at, start, np.array(taken), ends[(ends > at) & (ends <= s)])
                        at, start, taken = s, w, []
                        if full:
                            evaluate()
    evaluate()  # the last batch; a run of no steps has its initial state only

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
