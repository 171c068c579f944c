"""System Hamiltonian, Lindblad generator, superoperator and spectral analysis.

The master equation is in GKS-Lindblad form (Gorini, Kossakowski & Sudarshan,
J. Math. Phys. 17, 821, 1976) over A = (sigma_1^-..sigma_N^-, sigma_1^+..sigma_N^+),

    drho/dt = -i[H, rho] + sum_ab K[a, b] [A_a rho, A_b^+] + h.c.,

where K = rates.kossakowski_matrix(rates, cross_pairing) is the one table the
generator, the Kronecker oracle and the certificate K >= 0 read. K[j, i] =
gamma_minus_plus[i, j] and K[N+j, N+i] = gamma_plus_minus[i, j] (atoms from
0), so for a single-wedge (co-accelerating) ensemble, in the Schroedinger picture,

    drho/dt = -i[H, rho]
              + sum_ij gamma_plus_minus[i,j] [sigma_j^+ rho, sigma_i^-]
              + sum_ij gamma_minus_plus[i,j] [sigma_j^- rho, sigma_i^+] + h.c.

For counter-accelerating ensembles the Hamiltonian commutator is omitted: the
relative sign of the wedge-II atomic Hamiltonian makes a Schroedinger-picture
form ambiguous, so that evolution is generated in the interaction picture
(populations and coherence magnitudes are picture-invariant). Four anomalous
inter-wedge terms per wedge-I atom i and wedge-II atom kappa then enter with
minus signs, pairing raising with raising and lowering with lowering
operators; -cross_pp[i, kappa] sits at K[N+i, kappa] and K[N+kappa, i], its
conjugate at K[kappa, N+i] and K[i, N+kappa]:

    - sum_{i,kappa} cross_pp[i,kappa] ([sigma_i^+ rho, sigma_kappa^+]
                                       + [sigma_kappa^+ rho, sigma_i^+])
    - sum_{i,kappa} conj(cross_pp[i,kappa]) ([sigma_i^- rho, sigma_kappa^-]
                                             + [sigma_kappa^- rho, sigma_i^-]) + h.c.

cross_pairing="literal" pairs sigma^+ with sigma^- instead, kept only so the
two structures can be compared: -cross_pp[i, kappa] sits at K[N+i, N+kappa],
K[i, kappa], K[N+kappa, N+i] and K[kappa, i], and that K is not positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, DomainError
from .kinematics import AtomSpec, FrameConfig, kinematic_state
from .operators import sigma_minus, sigma_plus
from .rates import RateSet, kossakowski_matrix

N_MAX_DENSE = 6            # atoms of the Kronecker oracle at most; 4^6 x 4^6 takes 268 MB
_ASSEMBLY_CHUNK = 1 << 18  # jump x pair entries gathered at a time
_LUMP_GAP = 1e-10          # signatures this far apart, relative to max|L|, split a block
_LUMP_CERTIFICATE = 1e-13  # largest max|L P - P L_hat| accepted, relative to max|L|
_DENSE_BLOCKS = 128        # at most this many columns, a dense product beats CSR dispatch
                           # (fig4 case_c submatrices: 4 against 9 us at 64, 7 against 10 at 128)


def hamiltonian_from_omegas(omegas: Sequence[float]) -> np.ndarray:
    """H = sum_j Omega_j sigma_j^+ sigma_j^- as its 2^N energies H[b, b], atom j in bit j."""
    omegas = np.asarray(omegas, dtype=float)
    n = len(omegas)
    b = np.arange(2**n)
    diag = np.zeros(2**n)
    for j in range(n):
        diag += omegas[j] * ((b >> j) & 1)
    return diag


def build_hamiltonian(atoms: Sequence[AtomSpec], frame: FrameConfig) -> np.ndarray:
    """System Hamiltonian of a co-accelerating (single wedge) ensemble, as its 2^N energies."""
    if len({atom.wedge for atom in atoms}) > 1:
        raise DomainError("Schroedinger-picture Hamiltonian is only defined for a "
                          "single-wedge configuration")
    return hamiltonian_from_omegas([kinematic_state(frame, a).Omega for a in atoms])


def check_density_matrix(rho: np.ndarray, herm_tol: float = 1e-10,
                         trace_tol: float = 1e-10, eig_floor: float = -1e-9) -> None:
    """Raise DomainError unless rho is finite, Hermitian, unit trace and
    positive within the stated tolerances. rho may carry leading batch axes;
    then the first failing state in C order raises, with its first failing
    check."""
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise DomainError(f"density matrix must be square, got shape {rho.shape}")
    rho = rho.reshape(-1, *rho.shape[-2:])
    finite = np.isfinite(rho).all(axis=(1, 2))
    ok = len(rho) if finite.all() else int(finite.argmin())
    rho = rho[:ok]  # no LAPACK call sees a non-finite state
    rho_h = rho.conj().swapaxes(-1, -2)
    herm = np.abs(rho - rho_h).max(axis=(1, 2))
    tr_err = np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)
    min_eig = np.linalg.eigvalsh((rho + rho_h) / 2).min(axis=1)
    bad = (herm > herm_tol) | (tr_err > trace_tol) | (min_eig < eig_floor)
    if not bad.any():
        if ok < len(finite):
            raise DomainError("density matrix has a non-finite entry")
        return
    i = int(bad.argmax())
    if herm[i] > herm_tol:
        raise DomainError(f"density matrix not Hermitian (max deviation {herm[i]:.3e})")
    if tr_err[i] > trace_tol:
        raise DomainError(f"density matrix trace off by {tr_err[i]:.3e}")
    raise DomainError(f"density matrix has eigenvalue {min_eig[i]:.3e} below {eig_floor}")


def thermal_state(H: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs state exp(-beta H)/Z of the energies H, diagonal; shifted by the
    lowest energy, so that no weight overflows."""
    w = np.exp(-beta * (np.asarray(H) - np.min(H)))
    return np.diag(w / w.sum())


def _ladder_table(n: int) -> np.ndarray:
    """Row o is the image of every basis index under A_o (sigma_1^-..sigma_N^-,
    sigma_1^+..sigma_N^+), row 2N under the identity. Index dim means "the
    product vanishes" and maps to itself, so A_p A_o is table[p, table[o]]."""
    dim = 2**n
    x = np.arange(dim + 1, dtype=np.int32)
    bit = (1 << np.arange(n, dtype=np.int32))[:, None]
    up = (x & bit) == 0
    table = np.vstack((np.where(up, dim, x ^ bit), np.where(up, x ^ bit, dim), x))
    table[:, dim] = dim
    return table


@dataclass(frozen=True)
class Sector:
    """A set of density-matrix pairs closed under the generator, lumped into
    blocks on which the generator acts exactly.

    The entries of a state on the pairs form the vector v = rho.ravel()[pairs]
    with d v/dt = L @ v for the CSR matrix L that `LindbladGenerator.restrict`
    gathers from its jump table. The pairs are split into blocks such that,
    for any two pairs of a block, the row sums of L into every block agree
    (exact lumpability). A state that is constant on every block,
    v = u[labels], then stays so, with d u/dt = L_hat @ u. When no two pairs
    merge, every pair is its own block and L_hat is L.
    """

    dim: int
    pairs: np.ndarray        # sorted pair indices p = a * dim + b
    swap: np.ndarray         # position of (b, a) for each pair (a, b)
    labels: np.ndarray       # block of each pair
    L_hat: np.ndarray | sp.csr_array  # d u/dt = L_hat @ u; dense when small
    block_swap: np.ndarray   # block of the pairs (b, a) for each block of pairs (a, b)
    diag_count: np.ndarray   # pairs (a, a) in each block: Tr rho = Re(diag_count @ u)
    emission: np.ndarray     # R_tot = -Re(emission @ u)

    def gather(self, rho: np.ndarray) -> np.ndarray:
        """The block vector u of rho, which must be constant on every block,
        as the state the sector was built from is."""
        u = np.empty(len(self.block_swap), dtype=complex)
        u[self.labels] = np.asarray(rho).ravel()[self.pairs]
        return u

    def scatter(self, u: np.ndarray) -> np.ndarray:
        """The full dim x dim rho with entries u[labels] on the pairs, zero
        elsewhere."""
        out = np.zeros(self.dim * self.dim, dtype=complex)
        out[self.pairs] = u[self.labels]
        return out.reshape(self.dim, self.dim)

    def functionals(self, weights: np.ndarray) -> np.ndarray | sp.csr_array:
        """The linear functionals with pair weights `weights` (one row of
        len(pairs) weights each) as functionals of the block vector: row r
        sums weights[r] over each block, so that weights @ v = result @ u for
        v = u[labels]. Dense when there are few blocks, like L_hat."""
        r, pos = np.nonzero(weights)
        return _dense_if_few_blocks(sp.csr_array(
            (weights[r, pos].astype(complex), (r, self.labels[pos])),
            shape=(len(weights), len(self.block_swap))))

    def row_blocks(self) -> list[np.ndarray]:
        """rho is block diagonal over the components of the rows that the
        pairs link. For each component size s, the position in u of every
        entry of those components' s x s submatrices, shape (count, s, s);
        an entry outside the sector gets len(u), the index of a zero appended
        to u. A row in no pair is a component whose one entry is that zero."""
        dim, k = self.dim, len(self.block_swap)
        root = _components(dim, *np.divmod(self.pairs, dim))
        rows = np.argsort(root, kind="stable")
        _, start, size = np.unique(root[rows], return_index=True, return_counts=True)
        blocks = []
        for s in np.unique(size):
            members = rows[start[size == s, None] + np.arange(s)]
            p = members[:, :, None] * dim + members[:, None, :]
            i = np.minimum(np.searchsorted(self.pairs, p), len(self.pairs) - 1)
            blocks.append(np.where(self.pairs[i] == p, self.labels[i], k))
        return blocks


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The smallest node of the component of each of the nodes 0..n-1 in the
    graph with the edges i[e] -- j[e], followed in both directions; by
    min-label propagation with pointer jumping (Shiloach & Vishkin,
    J. Algorithms 3, 57, 1982)."""
    root = np.arange(n)
    while True:
        new = root.copy()
        np.minimum.at(new, i, root[j])
        np.minimum.at(new, j, root[i])
        new = new[new]
        if np.array_equal(new, root):
            return root
        root = new


def _dense_if_few_blocks(m: sp.csr_array) -> np.ndarray | sp.csr_array:
    """m as a dense array if it has at most _DENSE_BLOCKS columns, else as it is."""
    return m.toarray() if m.shape[1] <= _DENSE_BLOCKS else m


def _lump(L: sp.csr_array, swap: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, sp.csr_array]:
    """The coarsest partition of the pairs into blocks that refines the
    classes of equal entries of v, is closed under `swap`, and over which L is
    exactly lumpable; returns the block labels and L_hat.

    Each round splits every block by one signature per pair, the row sums of
    L into the blocks combined with fixed pseudo-random complex weights, until
    a round splits nothing (Buchholz, J. Appl. Prob. 31, 59, 1994). The result
    is certified by max|L P - P L_hat| <= _LUMP_CERTIFICATE * max|L|, where P
    is the 0/1 block membership and row I of L_hat is the row of L P of the
    first pair in block I. A block average would add the rounding of sums
    over thousands of pairs (2e-13 relative at N = 8) to the certificate.
    When it fails, or when no two pairs merge, every pair is its own block
    and L_hat is L.
    """
    m = L.shape[0]
    scale = float(np.abs(L.data).max()) if L.nnz else 0.0
    values, labels = np.unique(v, return_inverse=True)
    k = len(values)
    rng = np.random.default_rng(0)
    while k < m:
        weights = rng.random(k) + 1j * rng.random(k)
        signature = (L @ weights[labels]).real
        swapped = labels[swap]
        order = np.lexsort((signature, swapped, labels))
        # equal signatures differ by rounding, far below the gap
        cut = ((np.diff(labels[order]) != 0) | (np.diff(swapped[order]) != 0)
               | (np.diff(signature[order]) > _LUMP_GAP * scale))
        blocks = int(cut.sum()) + 1
        if blocks == k:
            break
        labels = np.empty(m, dtype=np.intp)
        labels[order] = np.concatenate(([0], np.cumsum(cut)))
        k = blocks
    if k < m:
        LP = L @ sp.csr_array((np.ones(m), (np.arange(m), labels)), shape=(m, k))
        L_hat = LP[np.unique(labels, return_index=True)[1]]
        residual = (LP - L_hat[labels]).data
        if not residual.size or np.abs(residual).max() <= _LUMP_CERTIFICATE * scale:
            return labels, L_hat
    return np.arange(m), L


class LindbladGenerator:
    """The master equation compiled to one jump table over density-matrix pairs.

    Every term is A rho R with A, R products of ladder operators, so it sends
    the pair (a, b) to at most one pair (f(a), g(b)) with a constant weight.
    Terms with equal (f, g) merge into one jump of the table: f and g as int
    maps over the basis (dim where the product vanishes) and a weight. Jumps
    that leave the pair in place (H and the diagonal parts of the no-jump
    terms) fold into one diagonal weight. `restrict` gathers the table once to
    find the pairs reachable from a state and to assemble the sparse L on
    them, with pair index p = a * dim + b (row-major in rho).
    """

    def __init__(self, H: np.ndarray | None, rates: RateSet,
                 cross_pairing: str = "anomalous"):
        K = kossakowski_matrix(rates, cross_pairing)
        n = rates.n_atoms
        dim = 2**n
        self.n_atoms = n
        self.dim = dim
        self.rates = rates
        h = np.zeros(dim) if H is None else np.asarray(H)
        if h.shape != (dim,):
            raise DomainError(f"H has shape {h.shape}, expected its energies, shape {(dim,)}")

        # coef [A_a rho, A_b^+] + h.c. = coef A_a rho A_b^+ - coef A_b^+ A_a rho
        #     + coef* A_b rho A_a^+ - coef* rho A_a^+ A_b; the right factor acts on
        # the column index through its transpose (A_b^+ -> A_b, A_a^+ A_b -> A_b^+ A_a)
        a, b = np.nonzero(K)  # row-major, the order the pieces merge in
        coef = K[a, b]
        table = _ladder_table(n)  # row a is A_a, row b A_b, row (b + N) mod 2N A_b^+
        op_a, op_b = table[a], table[b]
        prod = table[((b + n) % (2 * n))[:, None], op_a]  # A_b^+ A_a
        one = np.broadcast_to(table[2 * n], op_a.shape)
        fl = np.stack((op_a, prod, op_b, one), axis=1).reshape(-1, dim + 1)
        fr = np.stack((op_b, one, op_a, prod), axis=1).reshape(-1, dim + 1)
        w = np.stack((coef, -coef, coef.conj(), -coef.conj()), axis=1).ravel()
        # merge equal pieces (as byte strings) in first-appearance order, weights in piece order
        maps = np.hstack((fl, fr))
        maps = maps.view(np.dtype((np.void, maps.itemsize * maps.shape[1]))).ravel()
        _, first, inverse = np.unique(maps, return_index=True, return_inverse=True)
        order = np.argsort(first)
        w = (np.bincount(inverse, w.real) + 1j * np.bincount(inverse, w.imag))[order]
        kept = first[order][w != 0]
        fl, fr, w = fl[kept, :dim], fr[kept, :dim], w[w != 0]

        ident = np.arange(dim)
        on_left = (fr == ident).all(1) & ((fl == ident) | (fl == dim)).all(1)
        on_right = ~on_left & (fl == ident).all(1) & ((fr == ident) | (fr == dim)).all(1)
        self._left_diag = np.vstack((-1j * h, w[on_left, None] * (fl[on_left] != dim))).sum(0)
        self._right_diag = np.vstack((1j * h, w[on_right, None] * (fr[on_right] != dim))).sum(0)
        moves = ~(on_left | on_right)  # row x of _fl, _fr: x's image under every jump
        self._fl, self._fr, self._w = fl[moves].T.copy(), fr[moves].T.copy(), w[moves]

    def restrict(self, support) -> tuple[np.ndarray, sp.csr_array]:
        """The sorted pair indices reachable from the pair indices `support`
        (breadth-first over the jumps), which L leaves invariant, and the CSR
        matrix of L on them: (L v)[k] is d rho[pairs[k]]/dt. Each pair's jumps
        are gathered once, _ASSEMBLY_CHUNK jump x pair entries at a time; the
        gather marks new pairs and keeps every live (source, target, jump)."""
        dim, jumps = self.dim, len(self._w)
        step = max(1, _ASSEMBLY_CHUNK // max(1, jumps))
        seen = np.zeros(dim**2, dtype=bool)
        seen[np.asarray(support, dtype=np.intp)] = True
        frontier = np.flatnonzero(seen)
        src, tgt, jump = [], [], []  # int32: pair indices are below 4^10
        while frontier.size:
            found = np.zeros_like(seen)
            for start in range(0, len(frontier), step):
                chunk = frontier[start:start + step]
                ta, tb = self._fl[chunk // dim], self._fr[chunk % dim]
                live = np.flatnonzero((ta != dim) & (tb != dim))
                tgt.append(ta.ravel()[live] * dim + tb.ravel()[live])
                found[tgt[-1]] = True
                src.append(chunk[live // jumps].astype(np.int32))
                jump.append((live % jumps).astype(np.int32))
            frontier = np.flatnonzero(found & ~seen)
            seen[frontier] = True
        pairs = np.flatnonzero(seen)
        diag = self._left_diag[pairs // dim] + self._right_diag[pairs % dim]
        on = np.flatnonzero(diag)
        position = np.empty(dim**2, dtype=np.int32)  # read at the pairs only
        position[pairs] = np.arange(len(pairs))
        # one COO triple with int32 indices, the diagonal first; the kept
        # arrays and the table are freed before the conversion
        vals = np.concatenate([diag[on], *(self._w[j] for j in jump)])
        rows = np.concatenate([on, *(position[t] for t in tgt)], dtype=np.int32)
        cols = np.concatenate([on, *(position[s] for s in src)], dtype=np.int32)
        del src, tgt, jump, position
        return pairs, sp.csr_array((vals, (rows, cols)), shape=(len(pairs),) * 2)

    def sector(self, rho: np.ndarray) -> Sector:
        """The pairs reachable from the support of rho and of rho.T, lumped
        into the coarsest blocks on which rho is constant and L is exact. L
        commutes with Hermitian conjugation, so the pairs are closed under
        (a, b) -> (b, a), and so are the blocks."""
        rho = np.asarray(rho)
        dim = self.dim
        if rho.shape != (dim, dim):
            raise DomainError(f"state has shape {rho.shape}, expected {(dim, dim)}")
        pairs, L = self.restrict(np.flatnonzero((rho != 0) | (rho.T != 0)))
        a, b = np.divmod(pairs, dim)
        swap = np.searchsorted(pairs, b * dim + a)
        labels, L_hat = _lump(L, swap, rho.ravel()[pairs])
        L_hat = _dense_if_few_blocks(L_hat)
        k = L_hat.shape[0]
        block_swap = np.empty(k, dtype=np.intp)
        block_swap[labels] = labels[swap]
        # R_tot = -sum_a popcount(a) d rho_aa/dt = -Re(r . u) with r = L_hat^T w,
        # w the popcounts summed over the diagonal pairs of each block
        popcount = sum((a >> j) & 1 for j in range(self.n_atoms))
        w = np.bincount(labels, np.where(a == b, popcount, 0), k)
        return Sector(dim=dim, pairs=pairs, swap=swap, labels=labels, L_hat=L_hat,
                      block_swap=block_swap, diag_count=np.bincount(labels, a == b, k),
                      emission=L_hat.T @ w)

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        """d rho/dt, from the lumped generator on the sector of rho."""
        s = self.sector(rho)
        return s.scatter(s.L_hat @ s.gather(rho))

    rhs_hermitian = rhs  # alias: rhs accepts any rho, Hermitian or not

    def invariant_blocks(self) -> list[np.ndarray]:
        """Dense diagonal blocks of L over a partition of all pairs into
        invariant sets (the weakly connected components of its graph, in the
        order of their smallest pair); the spectrum of L is the union of the
        blocks' spectra."""
        _, L = self.restrict(np.arange(self.dim * self.dim))
        root = _components(L.shape[0], *L.nonzero())
        blocks = []
        for c in np.unique(root):
            idx = np.flatnonzero(root == c)
            blocks.append(L[idx][:, idx].toarray())
        return blocks


def lindblad_rhs(rho: np.ndarray, H: np.ndarray | None, rates: RateSet,
                 cross_pairing: str = "anomalous") -> np.ndarray:
    """drho/dt for one state; convenience wrapper over LindbladGenerator."""
    return LindbladGenerator(H, rates, cross_pairing).rhs(rho)


def build_superoperator(H: np.ndarray | None, rates: RateSet,
                        cross_pairing: str = "anomalous") -> np.ndarray:
    """Dense 4^N x 4^N generator acting on column-stacked density matrices,
    for at most N_MAX_DENSE atoms.

    Assembled independently of LindbladGenerator's jump table, from the same
    coefficient table and the dense diagonal H of the energies, via Kronecker
    identities (vec(A rho B) = (B^T kron A) vec(rho)); kept as the test oracle.
    """
    n = rates.n_atoms
    if n > N_MAX_DENSE:
        raise CapacityError(f"dense superoperator for N={n} atoms exceeds the "
                            f"cap of {N_MAX_DENSE} atoms")
    dim = 2**n
    eye = np.eye(dim, dtype=complex)
    L = np.zeros((dim * dim, dim * dim), dtype=complex)
    if H is not None:
        H = np.diag(np.asarray(H, dtype=complex))
        L += -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    K = kossakowski_matrix(rates, cross_pairing)
    ops = [sigma_minus(j, n) for j in range(n)] + [sigma_plus(j, n) for j in range(n)]
    for a, b in zip(*np.nonzero(K)):
        coef, A, B = K[a, b], ops[a], ops[(b + n) % (2 * n)]  # B is A_b^+
        L += coef * (np.kron(B.T, A) - np.kron(eye, B @ A))
        # Hermitian conjugate of coef*[A rho, B]
        L += np.conj(coef) * (np.kron(A.conj(), B.conj().T)
                              - np.kron(B.conj() @ A.conj(), eye))
    return L


@dataclass(frozen=True)
class SteadyStateAnalysis:
    eigenvalues: np.ndarray
    zero_multiplicity: int


def steady_state_analysis(L: np.ndarray, zero_tol: float = 1e-10) -> SteadyStateAnalysis:
    """Full spectrum of the generator, without eigenvectors, and the number of
    its eigenvalues within zero_tol of 0 (the zero-eigenvalue multiplicity).

    zero_tol should scale with the rate magnitudes (1e-9 * gamma0 is the
    contract used by the acceptance suite).
    """
    evals = np.linalg.eigvals(np.asarray(L))
    return SteadyStateAnalysis(evals, int((np.abs(evals) < zero_tol).sum()))


def thermal_residual(H: np.ndarray, rates: RateSet, beta: float) -> float:
    """Frobenius norm of the generator applied to the Gibbs state of H."""
    if rates.has_cross:
        raise DomainError("thermal_residual applies to co-accelerating "
                          "(single-wedge) configurations")
    rho_th = thermal_state(H, beta)
    return float(np.linalg.norm(lindblad_rhs(rho_th, H, rates)))
