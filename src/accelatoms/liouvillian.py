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
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import CapacityError, DomainError
from .kinematics import AtomSpec, FrameConfig, kinematic_state
from .operators import sigma_minus, sigma_plus
from .rates import RateSet, kossakowski_matrix

if TYPE_CHECKING:
    import scipy.sparse as sp

N_MAX_DENSE = 6            # atoms of the Kronecker oracle at most; 4^6 x 4^6 takes 268 MB
_ASSEMBLY_CHUNK = 1 << 18  # jump x pair entries gathered at a time
_LUMP_GAP = 1e-10          # signatures this far apart, relative to max|L|, split a block
_LUMP_CERTIFICATE = 1e-13  # largest max|L P - P L_hat| accepted, relative to max|L|
_DENSE_BLOCKS = 128        # at most this many columns, a dense product beats CSR dispatch
                           # (fig4 case_c submatrices: 4 against 9 us at 64, 7 against 10 at 128);
                           # only a matrix with more columns imports scipy.sparse


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


def _first_failure(checks) -> tuple[int, str] | None:
    """The first state in C order that fails any of the ordered checks, each a
    (mask over the states, message of a state's index), with the message of
    its first failing check; None when every state passes."""
    bad = np.array([mask for mask, _ in checks])
    if not bad.any():
        return None
    i = int(bad.any(axis=0).argmax())
    return i, checks[int(bad[:, i].argmax())][1](i)


def _density_checks(rho: np.ndarray, herm_tol: float, trace_tol: float, eig_floor: float):
    """The states rho (count, d, d) with the non-finite ones zeroed, so that no
    LAPACK call sees one, and check_density_matrix's ordered checks on them."""
    finite = np.isfinite(rho).all(axis=(1, 2))
    rho = np.where(finite[:, None, None], rho, 0)
    rho_h = rho.conj().swapaxes(-1, -2)
    herm = np.abs(rho - rho_h).max(axis=(1, 2))
    tr_err = np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)
    min_eig = np.linalg.eigvalsh((rho + rho_h) / 2).min(axis=1)
    return rho, _density_failures(finite, herm, tr_err, min_eig, herm_tol, trace_tol, eig_floor)


_NON_FINITE = "density matrix has a non-finite entry"


def _density_failures(finite, herm, tr_err, min_eig, herm_tol, trace_tol, eig_floor):
    """check_density_matrix's ordered checks, from each state's finiteness,
    largest |rho - rho^H| entry, |Tr rho - 1| and lowest Hermitized eigenvalue."""
    return [
        (~finite, lambda i: _NON_FINITE),
        (herm > herm_tol, lambda i: f"density matrix not Hermitian (max deviation {herm[i]:.3e})"),
        (tr_err > trace_tol, lambda i: f"density matrix trace off by {tr_err[i]:.3e}"),
        (min_eig < eig_floor,
         lambda i: f"density matrix has eigenvalue {min_eig[i]:.3e} below {eig_floor}")]


def check_density_matrix(rho: np.ndarray, herm_tol: float = 1e-10,
                         trace_tol: float = 1e-10, eig_floor: float = -1e-9) -> None:
    """Raise DomainError unless rho is finite, Hermitian, unit trace and
    positive within the stated tolerances. rho may carry leading batch axes;
    then the first failing state in C order raises, with its first failing
    check."""
    rho = np.asarray(rho)
    _check_square(rho)
    _, checks = _density_checks(rho.reshape(-1, *rho.shape[-2:]), herm_tol, trace_tol, eig_floor)
    if failure := _first_failure(checks):
        raise DomainError(failure[1])


def _check_square(rho: np.ndarray) -> None:
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise DomainError(f"density matrix must be square, got shape {rho.shape}")


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
    with d v/dt = L @ v for the matrix L of the generator on the pairs. The
    pairs are split into blocks such that, for any two pairs of a block, the
    row sums of L into every block agree (exact lumpability). A state that is
    constant on every block, v = u[labels], then stays so, with
    d u/dt = L_hat @ u. Each block is a union of orbits of the permutations
    of interchangeable atoms, and L_hat is lumped from the orbit quotient that
    `LindbladGenerator.restrict` gathers from its jump table, so L itself is
    never assembled when two atoms are interchangeable. When no two pairs
    merge, every pair is its own block and L_hat is L.
    """

    dim: int
    pairs: np.ndarray        # sorted pair indices p = a * dim + b
    swap: np.ndarray         # position of (b, a) for each pair (a, b)
    labels: np.ndarray       # block of each pair
    L_hat: np.ndarray | sp.csr_array  # d u/dt = L_hat @ u; dense up to _DENSE_BLOCKS blocks
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
        return _matrix(r, self.labels[pos], weights[r, pos].astype(complex),
                       (len(weights), len(self.block_swap)))

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
        for s in np.flatnonzero(np.bincount(size)):  # a plain np.unique loads numpy.ma
            members = rows[start[size == s, None] + np.arange(s)]
            p = members[:, :, None] * dim + members[:, None, :]
            if not len(self.pairs):  # the zero state's sector
                blocks.append(np.full(p.shape, k))
                continue
            i = np.minimum(np.searchsorted(self.pairs, p), len(self.pairs) - 1)
            blocks.append(np.where(self.pairs[i] == p, self.labels[i], k))
        return blocks


class _Slot:
    """One cached value and the key it was built for: a sweep's runs share
    one structure. Keys are values (numbers, tuples and bytes), never object
    ids or data pointers, and every array of a value is read-only: the slot
    makes an array, or a tuple of arrays, so, and any other value (a
    `dynamics.RecordMap`) its own arrays. A first build fills the slot."""

    def __init__(self):
        self.key = self.value = None

    def get(self, key, build):
        if self.value is None or self.key != key:
            value = build()
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)
            self.key, self.value = key, value
        return self.value

    def clear(self):
        self.key = self.value = None


# what depends only on structure: the merged pieces of K's nonzero positions,
# the jump table of the pieces kept, the orbit keys of the atom classes and
# the search of a sector; see LindbladGenerator and restrict
_merged, _jumps, _orbits, _searches = _Slot(), _Slot(), _Slot(), _Slot()


def _orbit_keys(dim: int, classes: Sequence[Sequence[int]]) -> np.ndarray:
    """The orbit key of every pair index p = a * dim + b under the
    permutations of the atoms within each class: the pair of the orbit whose
    class atoms, in increasing order, are of type 11 first, then 10, 01 and
    00 (bit in a, bit in b). An orbit is the per-class counts of the types,
    found by popcounts, so equal keys are one orbit; an atom in no class of
    two or more atoms keeps its bits, and with no such class the key is the
    identity, every pair its own orbit. int32, in _ASSEMBLY_CHUNK pairs at a
    time; read-only, built once per (dim, classes)."""
    classes = tuple(tuple(c) for c in classes if len(c) > 1)
    return _orbits.get((dim, classes), lambda: _build_orbit_keys(dim, classes) if classes
                       else np.arange(dim * dim, dtype=np.int32))


def _build_orbit_keys(dim: int, classes: tuple[tuple[int, ...], ...]) -> np.ndarray:
    keys = np.empty(dim * dim, dtype=np.int32)
    bits = np.zeros((len(classes), max(map(len, classes)) + 1), dtype=np.int64)
    for c, atoms in enumerate(classes):
        bits[c, 1:len(atoms) + 1] = np.left_shift(1, atoms)
    prefix = np.cumsum(bits, axis=1)  # prefix[c, k]: the bits of the first k atoms of class c
    mask, outside = prefix[:, -1:], ~int(bits.sum())
    rows = np.arange(len(classes))[:, None]
    for start in range(0, dim * dim, _ASSEMBLY_CHUNK):
        a, b = np.divmod(np.arange(start, min(start + _ASSEMBLY_CHUNK, dim * dim)), dim)
        a_in, b_in = a & mask, b & mask  # per class and pair; the classes' bits are disjoint
        n11 = np.bitwise_count(a_in & b_in)
        n1x, nx1 = np.bitwise_count(a_in), np.bitwise_count(b_in)
        excited = prefix[rows, n1x]  # types 11 and 10
        a = (a & outside) | excited.sum(axis=0)
        b = (b & outside) | (prefix[rows, n11] + prefix[rows, n1x + nx1 - n11]
                             - excited).sum(axis=0)
        keys[start:start + len(a)] = a * dim + b
    return keys


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


def _matrix(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
            shape: tuple[int, int]) -> np.ndarray | sp.csr_array:
    """The complex matrix with the entries vals at (rows, cols), repeated
    positions summed in the order given: dense, by np.bincount, when it has at
    most _DENSE_BLOCKS columns, else a scipy CSR array."""
    key = rows.astype(np.int64) * shape[1] + cols
    if shape[1] <= _DENSE_BLOCKS:
        size = shape[0] * shape[1]
        out = np.empty(size, dtype=complex)
        out.real, out.imag = np.bincount(key, vals.real, size), np.bincount(key, vals.imag, size)
        return out.reshape(shape)
    import scipy.sparse as sp
    # repeats adjacent and in the given order, so scipy sums them in that order
    order = np.argsort(key, kind="stable")
    return sp.csr_array((vals[order], (rows[order], cols[order])), shape=shape)


def _unit_hash(x: np.ndarray) -> np.ndarray:
    """A float in [0, 1) for each uint64 counter in x: its SplitMix64 hash
    (Steele, Lea & Flood, OOPSLA 2014), with uint64 wraparound, to 53 bits."""
    z = (x + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * 2.0**-53


def _lump(L: tuple[np.ndarray, np.ndarray, np.ndarray], swap: np.ndarray,
          v: np.ndarray) -> tuple[np.ndarray, np.ndarray | sp.csr_array]:
    """The coarsest partition of the pairs into blocks that refines the
    classes of equal entries of v, is closed under `swap`, and over which L,
    given as its row-major entries (rows, cols, vals), is exactly lumpable;
    returns the block labels and L_hat (`_matrix`).

    Each round splits every block by one signature per pair, the row sums of
    L into the blocks combined with pseudo-random complex weights
    (`_unit_hash` of a counter), until a round splits nothing (Buchholz,
    J. Appl. Prob. 31, 59, 1994). The coarsest such partition is unique, so
    any generic weights find it; the blocks are then numbered by their first
    pair, which makes the labels and L_hat a function of the partition and
    L alone, whatever the weights. The result is certified by
    max|L P - P L_hat| <= _LUMP_CERTIFICATE * max|L|, where P is the 0/1
    block membership and row I of L_hat is the row of L P of the first pair
    in block I. A block average would add the rounding of sums over
    thousands of pairs (2e-13 relative at N = 8) to the certificate. When it
    fails, or when no two pairs merge, every pair is its own block and L_hat
    is L.
    """
    rows, cols, vals = L
    m = len(v)
    scale = float(np.abs(vals).max()) if len(vals) else 0.0
    values, labels = np.unique(v, return_inverse=True)
    k = len(values)
    drawn = 0  # the counter of the weights
    while k < m:
        unit = _unit_hash(np.arange(drawn, drawn + 2 * k, dtype=np.uint64))
        drawn += 2 * k
        weights = unit[:k] + 1j * unit[k:]
        signature = np.bincount(rows, (vals * weights[labels][cols]).real, m)
        swapped = labels[swap]
        order = np.lexsort((signature, swapped, labels))
        # equal signatures differ by rounding, far below the gap
        old, swapped, signature = labels[order], swapped[order], signature[order]
        cut = ((old[1:] != old[:-1]) | (swapped[1:] != swapped[:-1])
               | (signature[1:] - signature[:-1] > _LUMP_GAP * scale))
        blocks = int(cut.sum()) + 1
        if blocks == k:
            break
        labels = np.empty(m, dtype=np.intp)
        labels[order] = np.concatenate(([0], np.cumsum(cut)))
        k = blocks
    if k < m:
        first = np.unique(labels, return_index=True)[1]  # the first pair of each block
        labels = np.unique(first[labels], return_inverse=True)[1]  # blocks in that order
        LP = _matrix(rows, labels[cols], vals, (m, k))
        L_hat = LP[np.sort(first)]
        if abs(LP - L_hat[labels]).max() <= _LUMP_CERTIFICATE * scale:
            return labels, L_hat
    return np.arange(m), _matrix(rows, cols, vals, (m, m))


def _merge_pieces(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """The pieces of the terms K[a, b] [A_a rho, A_b^+] + h.c. merged by their
    maps: the merged piece of each of the 4 pieces per (a, b), numbered in
    first-appearance order, and the merged pieces' maps (fl, fr) over the
    basis, dim where the product vanishes."""
    # coef [A_a rho, A_b^+] + h.c. = coef A_a rho A_b^+ - coef A_b^+ A_a rho
    #     + coef* A_b rho A_a^+ - coef* rho A_a^+ A_b; the right factor acts on
    # the column index through its transpose (A_b^+ -> A_b, A_a^+ A_b -> A_b^+ A_a)
    dim = 2**n
    table = _ladder_table(n)  # row a is A_a, row b A_b, row (b + N) mod 2N A_b^+
    op_a, op_b = table[a], table[b]
    prod = table[((b + n) % (2 * n))[:, None], op_a]  # A_b^+ A_a
    one = np.broadcast_to(table[2 * n], op_a.shape)
    fl = np.stack((op_a, prod, op_b, one), axis=1).reshape(-1, dim + 1)
    fr = np.stack((op_b, one, op_a, prod), axis=1).reshape(-1, dim + 1)
    # merge equal pieces (as byte strings) in first-appearance order
    maps = np.hstack((fl, fr))
    maps = maps.view(np.dtype((np.void, maps.itemsize * maps.shape[1]))).ravel()
    _, first, inverse = np.unique(maps, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], fl[first[order], :dim], fr[first[order], :dim]


def _jump_table(fl: np.ndarray, fr: np.ndarray, dim: int) -> tuple[np.ndarray, ...]:
    """The pieces (fl, fr) split into those that act on the left index alone
    and those that act on the right index alone, both leaving the pair in
    place where they do not vanish (their masks of nonvanishing images), and
    the moves, transposed: row x of the last two is x's image under every move."""
    ident = np.arange(dim)
    on_left = (fr == ident).all(1) & ((fl == ident) | (fl == dim)).all(1)
    on_right = ~on_left & (fl == ident).all(1) & ((fr == ident) | (fr == dim)).all(1)
    moves = ~(on_left | on_right)
    return (on_left, on_right, moves, fl[on_left] != dim, fr[on_right] != dim,
            fl[moves].T.copy(), fr[moves].T.copy())


class LindbladGenerator:
    """The master equation compiled to one jump table over density-matrix pairs.

    Every term is A rho R with A, R products of ladder operators, so it sends
    the pair (a, b) to at most one pair (f(a), g(b)) with a constant weight.
    Terms with equal (f, g) merge into one jump of the table: f and g as int
    maps over the basis (dim where the product vanishes) and a weight. Jumps
    that leave the pair in place (H and the diagonal parts of the no-jump
    terms) fold into one diagonal weight. `restrict` gathers the table once at
    one representative of each orbit of pairs to find the orbits reachable
    from a state and the entries of the orbit quotient of L on them, with
    pair index p = a * dim + b (row-major in rho); with every atom its own
    class an orbit is one pair and the quotient is L. The table is 2^N rows
    wide, so N is limited to about 12 by memory.

    The merged pieces depend only on N and the nonzero positions of K, and
    the jump table (the split into moves and diagonal pieces, transposed)
    also on which merged pieces have nonzero weight: both are built once per
    such structure and shared, read-only, by the generators that have it,
    as the runs of a sweep do. Each generator sums its own weights and
    diagonals.
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

        # the structure is compiled once per (N, K's nonzero positions, merged
        # pieces of nonzero weight); the weights are this generator's own
        a, b = np.nonzero(K)  # row-major, the order the pieces merge in
        coef = K[a, b]
        positions = (n, (a * 2 * n + b).tobytes())
        piece, fl, fr = _merged.get(positions, lambda: _merge_pieces(n, a, b))
        # the weights of the merged pieces, each summed in piece order
        w = np.stack((coef, -coef, coef.conj(), -coef.conj()), axis=1).ravel()
        w = np.bincount(piece, w.real) + 1j * np.bincount(piece, w.imag)
        kept = w != 0
        self._structure = (*positions, kept.tobytes())
        on_left, on_right, moves, left, right, self._fl, self._fr = _jumps.get(
            self._structure, lambda: _jump_table(fl[kept], fr[kept], dim))
        w = w[kept]
        self._left_diag = np.vstack((-1j * h, w[on_left, None] * left)).sum(0)
        self._right_diag = np.vstack((1j * h, w[on_right, None] * right)).sum(0)
        self._K, self._h = K, h  # what an atom swap must leave equal (atom_classes)
        self._w = w[moves]

    def atom_classes(self, rho: np.ndarray) -> list[list[int]]:
        """The classes of interchangeable atoms of the generator with the state
        rho, each in increasing order, ordered by their first atom. Atoms i and
        j are interchangeable when swapping them leaves K (rows and columns
        i <-> j and N+i <-> N+j), the energies h and rho (bits i <-> j of both
        indices) exactly equal. Swaps compose, so the classes are the
        components of the swaps found, by union-find; a pair already in one
        class is not tested on rho."""
        n, dim = self.n_atoms, self.dim
        i, j = np.less.outer(np.arange(n), np.arange(n)).nonzero()  # every pair i < j
        swap = np.arange(n) + np.zeros((len(i), 1), dtype=int)  # atoms after each swap
        swap[np.arange(len(i)), i], swap[np.arange(len(i)), j] = j, i
        perm = np.concatenate((swap, swap + n), axis=1)  # rows and columns of K
        x = np.arange(dim)
        swapped = x ^ ((((x >> i[:, None]) ^ (x >> j[:, None])) & 1)  # bits i <-> j
                       * ((1 << i) | (1 << j))[:, None])
        candidates = ((self._K[perm[:, :, None], perm[:, None, :]] == self._K).all(axis=(1, 2))
                      & (self._h[swapped] == self._h).all(axis=1))
        rho = np.asarray(rho)
        support = rho.ravel().nonzero()[0]
        values = rho.ravel()[support]
        a, b = np.divmod(support, dim)
        root = list(range(n))

        def find(k):
            while root[k] != k:
                k = root[k]
            return k

        for s in candidates.nonzero()[0]:
            ri, rj = find(i[s]), find(j[s])
            if ri != rj and (rho[swapped[s, a], swapped[s, b]] == values).all():
                root[rj] = ri
        classes: dict[int, list[int]] = {}
        for k in range(n):
            classes.setdefault(find(k), []).append(k)
        return list(classes.values())

    def restrict(self, support, classes: Sequence[Sequence[int]] = ()
                 ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The orbits reachable from the pair indices `support` (breadth-first
        over the jumps, from one representative pair per orbit), which L leaves
        invariant, and the entries (rows, cols, vals) of the orbit quotient of
        L on them: int32 indices, in row-major order, no (row, col) repeated.
        The orbits are those of the permutations of the atoms within each of
        `classes` (`_orbit_keys`), returned as their sorted keys, each the
        representative pair (a, b) as p = a * dim + b; with no class of two or
        more atoms every pair is its own orbit.

        The orbits of `_orbit_keys` are those of permutations that commute
        with L (`atom_classes`), so a state v constant on every orbit stays
        so, with d u/dt = L_orb @ u: L_orb[I, J] is |J|/|I| times the sum of
        the jumps from the representative of J into I, plus its diagonal
        where I = J. Where every reachable orbit is one pair, L_orb is L,
        (L v)[k] being d rho[pairs[k]]/dt; each unfolded jump flips a distinct
        set of bits and the diagonal none, so no (row, col) repeats and
        nothing is summed. Each representative's jumps are gathered once,
        _ASSEMBLY_CHUNK jump x pair entries at a time; the gather marks new
        orbits and keeps every live (source, target orbit, jump).

        That search (`_search`) depends only on the generator's structure,
        the support and the classes, so it is kept for them, by value, and
        a repeated call gathers nothing; each call sums its own diagonal and
        the jumps' weights into the quotient's entries."""
        dim = self.dim
        support = np.asarray(support, dtype=np.intp)
        classes = tuple(map(tuple, classes))
        keys, tgt, src, jump, size = _searches.get(
            (self._structure, support.tobytes(), classes),
            lambda: self._search(support, _orbit_keys(dim, classes)))
        diag = self._left_diag[keys // dim] + self._right_diag[keys % dim]
        on = diag.nonzero()[0]
        # the diagonal first, then the gathered entries
        vals = np.concatenate((diag[on], self._w[jump]))
        rows = np.concatenate((on, tgt), dtype=np.int32)
        cols = np.concatenate((on, src), dtype=np.int32)
        # the quotient's repeats are summed in the order gathered, so its sort
        # is stable; with every orbit one pair there are none, and the faster
        # sort gives the same order
        entry = rows.astype(np.int64) * len(keys) + cols
        unique = bool((size == 1).all())
        order = np.argsort(entry, kind=None if unique else "stable")
        vals = vals[order]
        rows = rows[order]
        cols = cols[order]
        if not unique:  # jumps of one representative into one orbit
            first = np.flatnonzero(np.diff(entry[order], prepend=-1))
            vals = np.add.reduceat(vals, first)
            rows, cols = rows[first], cols[first]
            vals *= size[cols] / size[rows]
        return keys, (rows, cols, vals)

    def _search(self, support: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, ...]:
        """restrict's search, which depends only on the generator's structure,
        the support and the orbit key of every pair: the reachable orbit keys,
        the position of the target and the source orbit and the jump of every
        gathered live entry, in the order gathered, and the size of every
        reachable orbit."""
        dim, jumps = self.dim, len(self._w)
        step = max(1, _ASSEMBLY_CHUNK // max(1, jumps))
        seen = np.zeros(dim**2, dtype=bool)
        seen[key[support]] = True
        frontier = seen.nonzero()[0]
        src, tgt, jump = [], [], []  # int32: pair indices are below 4^10
        while frontier.size:
            found = np.zeros(dim**2, dtype=bool)
            for start in range(0, len(frontier), step):
                chunk = frontier[start:start + step]
                ta, tb = self._fl[chunk // dim], self._fr[chunk % dim]
                live = ((ta != dim) & (tb != dim)).ravel().nonzero()[0]
                tgt.append(key[ta.ravel()[live] * dim + tb.ravel()[live]])
                found[tgt[-1]] = True
                src.append(chunk[live // jumps].astype(np.int32))
                jump.append((live % jumps).astype(np.int32))
            frontier = (found & ~seen).nonzero()[0]
            seen[frontier] = True
        keys = seen.nonzero()[0]
        position = np.empty(dim**2, dtype=np.int32)  # read at the keys only
        position[keys] = np.arange(len(keys))
        none = np.zeros(0, dtype=np.int32)
        return (keys, np.concatenate([none, *(position[t] for t in tgt)]),
                np.concatenate([none, *(position[s] for s in src)]),
                np.concatenate([none, *jump]), np.bincount(key)[keys])

    def sector(self, rho: np.ndarray) -> Sector:
        """The pairs reachable from the support of rho and of rho.T, lumped
        into the coarsest blocks on which rho is constant and L is exact. The
        permutations of interchangeable atoms (`atom_classes`) commute with L
        and fix rho, so their orbits lump exactly: L is assembled only as the
        orbit quotient (`restrict`), which `_lump` then lumps further. L
        commutes with Hermitian conjugation, so the pairs are closed under
        (a, b) -> (b, a), and so are the orbits and the blocks. The orbit
        keys and the search are built once per structure, atom classes and
        support; the classes and the lumping depend on values and are found
        on every call. rho is constant on every block and zero off the pairs,
        so scatter(gather(rho)) is rho exactly."""
        rho = np.asarray(rho)
        dim = self.dim
        if rho.shape != (dim, dim):
            raise DomainError(f"state has shape {rho.shape}, expected {(dim, dim)}")
        classes = self.atom_classes(rho)
        orbits, L = self.restrict(np.flatnonzero((rho != 0) | (rho.T != 0)), classes)
        key = _orbit_keys(dim, classes)
        member = np.zeros(dim * dim, dtype=bool)
        member[orbits] = True
        pairs = np.flatnonzero(member[key])  # the pairs of the reachable orbits
        a, b = np.divmod(orbits, dim)
        orbit, orbit_swap = orbits.searchsorted(key[pairs]), orbits.searchsorted(key[b * dim + a])
        orbit_labels, L_hat = _lump(L, orbit_swap, rho.ravel()[orbits])
        labels = orbit_labels[orbit]
        a, b = np.divmod(pairs, dim)
        swap = np.searchsorted(pairs, b * dim + a)
        k = L_hat.shape[0]
        block_swap = np.empty(k, dtype=np.intp)
        block_swap[labels] = labels[swap]
        # R_tot = -sum_a popcount(a) d rho_aa/dt = -Re(r . u) with r = L_hat^T w,
        # w the popcounts summed over the diagonal pairs of each block
        w = np.bincount(labels, np.where(a == b, np.bitwise_count(a), 0), k)
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
        pairs, (rows, cols, vals) = self.restrict(np.arange(self.dim * self.dim))
        root = _components(len(pairs), rows, cols)
        blocks = []
        for c in np.flatnonzero(root == np.arange(len(pairs))):  # each component's smallest pair
            idx = np.flatnonzero(root == c)
            e = np.flatnonzero(root[rows] == c)
            block = np.zeros((len(idx), len(idx)), dtype=complex)
            block[np.searchsorted(idx, rows[e]), np.searchsorted(idx, cols[e])] = vals[e]
            blocks.append(block)
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
