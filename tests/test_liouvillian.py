import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from accelatoms import AtomSpec, CapacityError, DomainError, FrameConfig, dynamics, liouvillian
from accelatoms.kinematics import unruh_beta
from accelatoms.liouvillian import (LindbladGenerator, _ladder_table,
                                    build_hamiltonian, build_superoperator,
                                    check_density_matrix, hamiltonian_from_omegas,
                                    lindblad_rhs, steady_state_analysis, thermal_residual,
                                    thermal_state)
from accelatoms.operators import (all_excited, all_ground, product_state, sigma_minus,
                                  sigma_plus)
from accelatoms.rates import cross_wedge_rates, kossakowski_matrix, same_wedge_rates
from csr_oracle import csr


def resonant_pair(a=2.0):
    frame = FrameConfig(a=a)
    atoms = [AtomSpec(omega=1.0, alpha=a), AtomSpec(omega=1.0, alpha=a)]
    return frame, atoms, same_wedge_rates(frame, atoms)


def random_hermitian(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return x + x.conj().T


def vec(rho):
    return rho.flatten(order="F")


def unvec(v, dim):
    return v.reshape(dim, dim, order="F")


def test_hamiltonian_single_atom():
    frame = FrameConfig(a=1.0)
    h = build_hamiltonian([AtomSpec(omega=1.0, alpha=1.0)], frame)
    assert np.array_equal(h, [0.0, 1.0])


def test_hamiltonian_subset_sums_and_bit_order():
    h = hamiltonian_from_omegas([1.0, 0.5])
    assert sorted(h) == pytest.approx([0.0, 0.5, 1.0, 1.5])
    # atom 0 lives in the least significant bit
    assert h[1] == pytest.approx(1.0)
    assert h[2] == pytest.approx(0.5)
    assert np.all(hamiltonian_from_omegas([0.0, 0.0]) == 0)


def test_hamiltonian_rejects_mixed_wedges():
    frame = FrameConfig(a=1.0)
    atoms = [AtomSpec(omega=1.0, alpha=1.0), AtomSpec(omega=1.0, alpha=1.0, wedge="II")]
    with pytest.raises(DomainError):
        build_hamiltonian(atoms, frame)


def test_density_matrix_validator():
    check_density_matrix(np.eye(2) / 2)
    with pytest.raises(DomainError):
        check_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))
    with pytest.raises(DomainError):
        check_density_matrix(np.eye(2))
    with pytest.raises(DomainError):
        check_density_matrix(np.diag([1.5, -0.5]).astype(complex))


def test_rhs_hermitian_traceless_on_random_states():
    frame, atoms, rs = resonant_pair()
    h = build_hamiltonian(atoms, frame)
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = random_hermitian(rng, 4)
        out = lindblad_rhs(rho, h, rs)
        assert np.abs(out - out.conj().T).max() < 1e-12
        assert abs(out.trace()) < 1e-12 * max(1.0, np.abs(rho).max())


def test_rhs_single_atom_decay_rate():
    frame = FrameConfig(a=1e-3)  # zero-occupation regime
    atoms = [AtomSpec(omega=1.0, alpha=1e-3)]
    rs = same_wedge_rates(frame, atoms)
    h = build_hamiltonian(atoms, frame)
    excited = np.diag([0.0, 1.0]).astype(complex)
    out = lindblad_rhs(excited, h, rs)
    # population loss at rate 2*gamma0*s^2 (the two conjugate channel copies)
    assert out[1, 1].real == pytest.approx(-2 * frame.gamma0, rel=1e-12)
    assert out[0, 0].real == pytest.approx(2 * frame.gamma0, rel=1e-12)


def test_rhs_zero_rates_is_zero():
    frame = FrameConfig(a=1.0)
    rs = same_wedge_rates(frame, [AtomSpec(omega=1.0, alpha=1.0, g=0.0)])
    out = lindblad_rhs(np.diag([0.3, 0.7]).astype(complex), None, rs)
    assert np.all(out == 0)


def test_thermal_state_is_fixed_point():
    frame, atoms, rs = resonant_pair()
    h = build_hamiltonian(atoms, frame)
    rho_th = thermal_state(h, unruh_beta(frame))
    out = lindblad_rhs(rho_th, h, rs)
    assert np.linalg.norm(out) < 1e-10 * frame.gamma0


def test_thermal_residuals():
    for n in (2, 3, 4):
        frame = FrameConfig(a=2.0)
        atoms = [AtomSpec(omega=1.0, alpha=2.0)] * n
        rs = same_wedge_rates(frame, atoms)
        h = build_hamiltonian(atoms, frame)
        assert thermal_residual(h, rs, unruh_beta(frame)) < 1e-10 * frame.gamma0
    # detuned atoms relax to a product of thermal states at their own frequencies
    frame = FrameConfig(a=2.0)
    atoms = [AtomSpec(omega=1.0, alpha=2.0), AtomSpec(omega=1.4, alpha=2.0)]
    rs = same_wedge_rates(frame, atoms)
    h = build_hamiltonian(atoms, frame)
    assert thermal_residual(h, rs, unruh_beta(frame)) < 1e-10 * frame.gamma0
    # infinite beta: the ground-state projector is the vacuum fixed point
    frame = FrameConfig(a=1e-3)
    atoms = [AtomSpec(omega=1.0, alpha=1e-3)]
    rs = same_wedge_rates(frame, atoms)
    h = build_hamiltonian(atoms, frame)
    assert thermal_residual(h, rs, 1e6) < 1e-12


def test_superoperator_matches_rhs_and_preserves_trace():
    frame, atoms, rs = resonant_pair()
    h = build_hamiltonian(atoms, frame)
    L = build_superoperator(h, rs)
    rng = np.random.default_rng(9)
    for _ in range(20):
        rho = random_hermitian(rng, 4)
        direct = lindblad_rhs(rho, h, rs)
        assert np.abs(unvec(L @ vec(rho), 4) - direct).max() < 1e-10
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 2] = 1.0  # neither Hermitian nor symmetric under transpose
    assert np.abs(unvec(L @ vec(rho), 4) - lindblad_rhs(rho, h, rs)).max() < 1e-12
    assert np.abs(vec(np.eye(4)).conj() @ L).max() < 1e-12


def test_superoperator_matches_rhs_counter_case():
    frame = FrameConfig(a=2.0)
    rs = cross_wedge_rates(frame, [AtomSpec(omega=1.0, alpha=2.0)],
                           [AtomSpec(omega=1.0, alpha=2.0, wedge="II")])
    L = build_superoperator(None, rs)
    rng = np.random.default_rng(13)
    for _ in range(10):
        rho = random_hermitian(rng, 4)
        assert np.abs(unvec(L @ vec(rho), 4) - lindblad_rhs(rho, None, rs)).max() < 1e-10
    for pairing in ("anomalous", "literal"):
        L2 = build_superoperator(None, rs, cross_pairing=pairing)
        rho = random_hermitian(rng, 4)
        assert np.abs(unvec(L2 @ vec(rho), 4)
                      - lindblad_rhs(rho, None, rs, cross_pairing=pairing)).max() < 1e-10


def test_superoperator_matches_rhs_four_atoms():
    frame = FrameConfig(a=2.0)
    atoms = [AtomSpec(omega=1.0, alpha=2.0, g=g) for g in (1.0, 0.8, 1.2, 0.5)]
    rs = same_wedge_rates(frame, atoms)
    h = build_hamiltonian(atoms, frame)
    L = build_superoperator(h, rs)
    rng = np.random.default_rng(21)
    rho = random_hermitian(rng, 16)
    assert np.abs(unvec(L @ vec(rho), 16) - lindblad_rhs(rho, h, rs)).max() < 1e-10


def test_rhs_fast_path_matches_general():
    frame = FrameConfig(a=2.0)
    atoms = [AtomSpec(omega=1.0, alpha=2.0, g=g) for g in (1.0, 0.6, 1.4)]
    rs = same_wedge_rates(frame, atoms)
    gen = LindbladGenerator(build_hamiltonian(atoms, frame), rs)
    rng = np.random.default_rng(2)
    rho = random_hermitian(rng, 8)
    assert np.abs(gen.rhs(rho) - gen.rhs_hermitian(rho)).max() < 1e-12


def test_single_atom_spectrum():
    frame = FrameConfig(a=1e-3)
    atoms = [AtomSpec(omega=1.0, alpha=1e-3)]
    rs = same_wedge_rates(frame, atoms)
    L = build_superoperator(build_hamiltonian(atoms, frame), rs)
    gamma = 2 * frame.gamma0
    evals = np.linalg.eigvals(L)
    expected = np.array([0.0, -gamma, -gamma / 2, -gamma / 2])
    assert np.sort(evals.real) == pytest.approx(np.sort(expected), abs=1e-12)


def test_spectrum_properties_and_degeneracy():
    frame, atoms, rs = resonant_pair()
    h = build_hamiltonian(atoms, frame)
    L = build_superoperator(h, rs)
    analysis = steady_state_analysis(L, zero_tol=1e-9 * frame.gamma0)
    assert analysis.zero_multiplicity >= 2
    evals = analysis.eigenvalues
    assert evals.real.max() <= 1e-10 * frame.gamma0
    # closed under conjugation
    for lam in evals:
        assert np.abs(evals - lam.conjugate()).min() < 1e-9
    # detuned pair loses the degeneracy
    frame2 = FrameConfig(a=2.0)
    atoms2 = [AtomSpec(omega=1.0, alpha=2.0), AtomSpec(omega=1.5, alpha=2.0)]
    rs2 = same_wedge_rates(frame2, atoms2)
    L2 = build_superoperator(build_hamiltonian(atoms2, frame2), rs2)
    assert steady_state_analysis(L2, zero_tol=1e-9 * frame2.gamma0).zero_multiplicity == 1
    # single atom has a unique steady state
    rs1 = same_wedge_rates(frame2, [AtomSpec(omega=1.0, alpha=2.0)])
    L1 = build_superoperator(build_hamiltonian([AtomSpec(omega=1.0, alpha=2.0)], frame2), rs1)
    assert steady_state_analysis(L1, zero_tol=1e-9 * frame2.gamma0).zero_multiplicity == 1


def test_semigroup_positivity():
    frame, atoms, rs = resonant_pair()
    h = build_hamiltonian(atoms, frame)
    L = build_superoperator(h, rs)
    t_final = 10.0 / frame.gamma0
    propagator = scipy.linalg.expm(L * (t_final / 20.0))
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= rho.trace()
        v = vec(rho)
        for _ in range(20):
            v = propagator @ v
            assert np.linalg.eigvalsh(unvec(v, 4)).min() >= -1e-9


def test_capacity_limits():
    frame = FrameConfig(a=2.0)
    atoms = [AtomSpec(omega=1.0, alpha=2.0)] * 7
    with pytest.raises(CapacityError):
        build_superoperator(build_hamiltonian(atoms, frame), same_wedge_rates(frame, atoms))
    # within the cap of six atoms the oracle builds
    atoms5 = [AtomSpec(omega=1.0, alpha=2.0)] * 5
    rs5 = same_wedge_rates(frame, atoms5)
    L = build_superoperator(build_hamiltonian(atoms5, frame), rs5)
    assert L.shape == (1024, 1024)


def counter_wedge_four(cross_pairing="anomalous"):
    frame = FrameConfig(a=2.0)
    rs = cross_wedge_rates(frame, [AtomSpec(omega=1.0, alpha=2.0)] * 2,
                           [AtomSpec(omega=1.0, alpha=2.0, wedge="II")] * 2)
    return LindbladGenerator(None, rs, cross_pairing)


def written_master_equation(rates, cross_pairing):
    """The module docstring's master equation written out from the rate
    matrices: the set of (coef, B, C) for its terms coef [B rho, C], with
    ladder operators as (atom, raising)."""
    n = rates.n_atoms
    terms = []
    for i in range(n):
        for j in range(n):
            terms.append((rates.gamma_plus_minus[i, j], (j, True), (i, False)))
            terms.append((rates.gamma_minus_plus[i, j], (j, False), (i, True)))
    idx_i, idx_k = rates.wedge_partition
    for a, i in enumerate(idx_i):
        for b, k in enumerate(idx_k):
            x = rates.cross_pp[a, b]
            if cross_pairing == "anomalous":
                terms += [(-x, (i, True), (k, True)), (-x, (k, True), (i, True)),
                          (-np.conj(x), (i, False), (k, False)),
                          (-np.conj(x), (k, False), (i, False))]
            else:
                terms += [(-x, (i, True), (k, False)), (-x, (i, False), (k, True)),
                          (-x, (k, True), (i, False)), (-x, (k, False), (i, True))]
    return {(complex(c), b, d) for c, b, d in terms if c != 0}


def test_generator_terms_are_the_written_master_equation():
    # c10-style random rate sets, every third one counter-accelerating, plus
    # the zero-temperature limit, where the inter-wedge channels vanish
    frame0 = FrameConfig(a=1e-3)
    systems = [cross_wedge_rates(frame0, [AtomSpec(omega=1.0, alpha=1e-3)],
                                 [AtomSpec(omega=1.0, alpha=1e-3, wedge="II")])]
    rng = np.random.default_rng(202)
    for trial in range(30):
        a = float(rng.uniform(0.3, 10.0))
        frame = FrameConfig(a=a)
        n = int(rng.integers(1, 5))
        n_clusters = int(rng.integers(1, n + 1))
        cluster_alpha = rng.uniform(0.5 * a, 3.0 * a, size=n_clusters)
        cluster_omega = rng.uniform(0.5, 2.0, size=n_clusters)
        members = rng.integers(0, n_clusters, size=n)
        atoms = [AtomSpec(omega=float(cluster_omega[c]), alpha=float(cluster_alpha[c]),
                          g=float(rng.uniform(0.2, 1.5))) for c in members]
        if n >= 2 and trial % 3 == 0:
            half = n // 2
            systems.append(cross_wedge_rates(
                frame, atoms[:n - half],
                [dataclasses.replace(at, wedge="II") for at in atoms[n - half:]]))
        else:
            systems.append(same_wedge_rates(frame, atoms))
    assert sum(rs.has_cross and np.any(rs.cross_pp) for rs in systems) >= 5
    for rs in systems:
        n = rs.n_atoms
        for pairing in ("anomalous", "literal"):
            # K[a, b] [A_a rho, A_b^+], with the operators as (atom, raising)
            K = kossakowski_matrix(rs, pairing)
            terms = [(K[a, b], (a % n, a >= n), (b % n, b < n))
                     for a, b in np.argwhere(K).tolist()]
            as_set = {(complex(c), b, d) for c, b, d in terms}
            assert len(as_set) == len(terms)
            assert as_set == written_master_equation(rs, pairing)
    with pytest.raises(DomainError):
        LindbladGenerator(None, systems[0], "bogus")


def basis_image(op):
    """The image of every basis index under a 0/1 matrix with at most one
    nonzero per column; dim where the column is zero."""
    assert set(np.unique(op)) <= {0, 1} and (op != 0).sum(axis=0).max() <= 1
    return np.where(op.any(axis=0), np.abs(op).argmax(axis=0), len(op))


def test_ladder_table_matches_dense_products():
    for n in (1, 2, 3):
        dim = 2**n
        table = _ladder_table(n)
        # the Kossakowski ordering, then the identity
        dense = ([sigma_minus(j, n) for j in range(n)] + [sigma_plus(j, n) for j in range(n)]
                 + [np.eye(dim)])
        assert table.shape == (2 * n + 1, dim + 1)
        assert np.all(table[:, dim] == dim)
        for o, op in enumerate(dense):
            assert np.array_equal(table[o, :dim], basis_image(op))
            for p, later in enumerate(dense):
                product = table[p, table[o]]
                assert np.array_equal(product[:dim], basis_image(later @ op))
                assert product[dim] == dim


class _CountedGathers:
    """A jump table that counts the gathers made from it and the rows they read."""

    def __init__(self, table):
        self.table, self.count, self.rows = table, 0, 0

    def __getitem__(self, rows):
        self.count += 1
        self.rows += len(rows)
        return self.table[rows]


def _clear_slots():
    # a repeated build is served from the structure slots and gathers
    # nothing, so a count of gathers starts from empty slots
    for slot in (liouvillian._merged, liouvillian._jumps, liouvillian._orbits,
                 liouvillian._searches, dynamics._record_maps):
        slot.clear()


def test_assembly_in_several_chunks_matches_one(monkeypatch):
    frame = FrameConfig(a=2.0)
    atoms = [AtomSpec(omega=1.0, alpha=2.0)] * 6
    fig2 = LindbladGenerator(build_hamiltonian(atoms, frame), same_wedge_rates(frame, atoms))
    counter = counter_wedge_four()
    cases = [(fig2, np.flatnonzero(all_excited(6))), (counter, np.arange(counter.dim**2))]
    whole = [gen.restrict(support) for gen, support in cases]
    reached = [gen.restrict(pairs[:1])[0] for (gen, _), (pairs, _) in zip(cases, whole)]
    spies = [_CountedGathers(gen._fl) for gen, _ in cases]
    for (gen, _), spy in zip(cases, spies):
        monkeypatch.setattr(gen, "_fl", spy)
    # the whole sector as the support is one frontier, gathered in one chunk
    for (gen, _), (pairs, _), spy in zip(cases, whole, spies):
        _clear_slots()
        assert np.array_equal(gen.restrict(pairs)[0], pairs) and spy.count == 1
    monkeypatch.setattr(liouvillian, "_ASSEMBLY_CHUNK", 1000)
    for (gen, support), (pairs, L), seen, spy in zip(cases, whole, reached, spies):
        for start in (pairs, support):
            spy.count = 0
            _clear_slots()
            chunked_pairs, chunked = gen.restrict(start)
            assert spy.count > 10
            assert np.array_equal(chunked_pairs, pairs)
            for got, expected in zip(chunked, L):  # rows, cols, vals
                assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert np.array_equal(gen.restrict(pairs[:1])[0], seen)


def test_assembled_coo_triple_has_no_repeated_entry():
    # each unfolded jump flips a distinct set of bits and the diagonal flips
    # none, so no (row, col) of the triple that restrict returns repeats; the
    # keys row * m + col strictly increase, so the triple is also row-major
    rng = np.random.default_rng(31)
    cases = []
    for trial in range(20):
        n = 1 + trial % 5
        a = float(rng.uniform(0.3, 10.0))
        frame = FrameConfig(a=a)
        atoms = [AtomSpec(omega=float(rng.uniform(0.5, 2.0)),
                          alpha=float(rng.uniform(0.5 * a, 3.0 * a)),
                          g=float(rng.uniform(0.2, 1.5))) for _ in range(n)]
        if n >= 2 and trial % 3 == 0:
            half = n // 2
            rates, h = cross_wedge_rates(
                frame, atoms[:n - half],
                [dataclasses.replace(at, wedge="II") for at in atoms[n - half:]]), None
        else:
            rates = same_wedge_rates(frame, atoms)
            h = build_hamiltonian(atoms, frame) if trial % 2 else None
        for pairing in ("anomalous", "literal"):
            gen = LindbladGenerator(h, rates, pairing)
            cases.append((gen, np.arange(gen.dim**2)))
    frame = FrameConfig(a=2.0)
    atoms = [AtomSpec(omega=1.0, alpha=2.0)] * 6
    fig2 = LindbladGenerator(build_hamiltonian(atoms, frame), same_wedge_rates(frame, atoms))
    counter = counter_wedge_four()
    cases += [(fig2, fig2.sector(all_excited(6)).pairs),
              (counter, counter.sector(all_ground(4)).pairs)]
    assert sum(gen.rates.has_cross for gen, _ in cases) >= 6

    for gen, pairs in cases:
        reached, (rows, cols, vals) = gen.restrict(pairs)
        assert np.array_equal(reached, pairs)
        assert rows.dtype == cols.dtype == np.int32 and len(rows) == len(cols) == len(vals)
        keys = rows.astype(np.int64) * len(pairs) + cols
        assert np.all(np.diff(keys) > 0)
        assert rows.min() >= 0 and cols.min() >= 0 and keys[-1] < len(pairs) ** 2


def test_reachable_sector_of_product_states():
    frame = FrameConfig(a=2.0)
    atoms = [AtomSpec(omega=1.0, alpha=2.0)] * 6
    gen = LindbladGenerator(build_hamiltonian(atoms, frame), same_wedge_rates(frame, atoms))
    # equal excitation numbers on both sides: sum_k C(6, k)^2 = C(12, 6) pairs
    assert len(gen.restrict(np.flatnonzero(all_excited(6)))[0]) == 924
    # anomalous pairing: equal charge N_I - N_II (atoms 0, 1 in wedge I) on both sides
    anomalous, _ = counter_wedge_four().restrict(np.flatnonzero(all_ground(4)))
    a, b = np.divmod(anomalous, 16)
    charge = np.array([(k & 1) + (k >> 1 & 1) - (k >> 2 & 1) - (k >> 3 & 1) for k in range(16)])
    assert len(anomalous) == 70 and np.all(charge[a] == charge[b])
    # literal pairing: the same code path finds the equal-excitation sector instead
    literal, L = csr(counter_wedge_four("literal").restrict(np.flatnonzero(all_ground(4))))
    a, b = np.divmod(literal, 16)
    popcount = np.array([bin(k).count("1") for k in range(16)])
    assert len(literal) == 70 and np.all(popcount[a] == popcount[b])
    assert not np.array_equal(literal, anomalous)
    # atom 0 in (|g> + |e>)/sqrt(2): the sectors with charge difference 0 and +-1
    coherent = np.zeros((16, 16))
    coherent[np.ix_([0, 1], [0, 1])] = 0.5
    reached, _ = counter_wedge_four().restrict(np.flatnonzero(coherent))
    a, b = np.divmod(reached, 16)
    assert len(reached) == np.sum(np.abs(charge[:, None] - charge[None, :]) <= 1) == 182
    assert set(charge[a] - charge[b]) == {-1, 0, 1}
    # the generator on a sector agrees with the Kronecker oracle there
    gen = counter_wedge_four("literal")
    rng = np.random.default_rng(4)
    rho = np.zeros(256, dtype=complex)
    rho[literal] = rng.normal(size=len(literal)) + 1j * rng.normal(size=len(literal))
    rho = rho.reshape(16, 16)
    oracle = build_superoperator(None, gen.rates, cross_pairing="literal")
    expected = unvec(oracle @ vec(rho), 16).ravel()
    assert np.abs(L @ rho.ravel()[literal] - expected[literal]).max() < 1e-12
    assert np.abs(np.delete(expected, literal)).max() < 1e-12


def test_sector_swap_maps_each_pair_to_its_transpose():
    sector = counter_wedge_four().sector(all_ground(4))
    a, b = np.divmod(sector.pairs, 16)
    assert np.array_equal(sector.pairs[sector.swap], b * 16 + a)
    assert np.array_equal(sector.swap[sector.swap], np.arange(len(sector.pairs)))
    # the blocks are closed under the swap too, also for a non-Hermitian state
    assert np.array_equal(sector.block_swap[sector.labels], sector.labels[sector.swap])
    # uncoupled atoms (L = 0): the zeros at (1, 0) and (3, 2) are equal, but
    # their transposes are not, so they stay apart
    frame = FrameConfig(a=1.0)
    rs = same_wedge_rates(frame, [AtomSpec(omega=1.0, alpha=1.0, g=0.0)] * 2)
    rho = np.zeros((4, 4))
    rho[0, 1], rho[2, 3] = 1.0, 2.0
    sector = LindbladGenerator(None, rs).sector(rho)
    assert np.array_equal(sector.block_swap[sector.labels], sector.labels[sector.swap])


def test_lumping_finds_the_symmetric_blocks():
    # fig2: six co-located identical atoms, all excited: the 924 pairs of equal
    # excitation number lump into the 7 rungs of the Dicke ladder
    frame = FrameConfig(a=2.0)
    atoms = [AtomSpec(omega=1.0, alpha=2.0)] * 6
    gen = LindbladGenerator(build_hamiltonian(atoms, frame), same_wedge_rates(frame, atoms))
    sector = gen.sector(all_excited(6))
    assert len(sector.pairs) == 924 and sector.L_hat.shape == (7, 7)
    a, b = np.divmod(sector.pairs, 64)
    popcount = np.array([bin(k).count("1") for k in range(64)])
    assert len(set(zip(sector.labels, popcount[a]))) == 7
    assert sector.diag_count.sum() == 64
    # rho is block diagonal over the excitation numbers; merged row blocks would
    # keep the lowest eigenvalue, so pin their sizes
    sizes = [b.shape[1] for b in sector.row_blocks() for _ in b]
    assert sizes == sorted([1, 6, 15, 20, 15, 6, 1])
    # the N = 4 counter wedges from the ground state: 70 pairs in 10 blocks
    sector = counter_wedge_four().sector(all_ground(4))
    assert len(sector.pairs) == 70 and sector.L_hat.shape == (10, 10)
    assert [b.shape[1] for b in sector.row_blocks() for _ in b] == [1, 1, 4, 4, 6]
    # the lumped generator reproduces L on every state constant on the blocks
    rng = np.random.default_rng(7)
    u = rng.normal(size=10) + 1j * rng.normal(size=10)
    _, L = csr(counter_wedge_four().restrict(sector.pairs))
    assert np.abs(L @ u[sector.labels] - (sector.L_hat @ u)[sector.labels]).max() < 1e-13


def test_lumped_sector_above_128_blocks_is_stepped_as_csr():
    # three groups of identical atoms: 720 pairs in 200 blocks, more than
    # _DENSE_BLOCKS, so L_hat and the functionals are scipy CSR arrays whose
    # repeated entries were summed from L's row-major entries
    frame = FrameConfig(a=2.0)
    atoms = ([AtomSpec(omega=1.0, alpha=2.0)] * 3 + [AtomSpec(omega=1.0, alpha=2.6)] * 2
             + [AtomSpec(omega=1.0, alpha=3.1)] * 2)
    gen = LindbladGenerator(build_hamiltonian(atoms, frame), same_wedge_rates(frame, atoms))
    sector = gen.sector(product_state("egegege"))
    k = len(sector.block_swap)
    assert len(sector.pairs) == 720 and k == 200 > liouvillian._DENSE_BLOCKS
    assert sp.issparse(sector.L_hat) and sector.L_hat.shape == (k, k)
    assert sector.L_hat.has_canonical_format
    rng = np.random.default_rng(5)
    u = rng.normal(size=k) + 1j * rng.normal(size=k)
    _, L = csr(gen.restrict(sector.pairs))
    assert np.abs(L @ u[sector.labels] - (sector.L_hat @ u)[sector.labels]).max() < 1e-13
    weights = rng.integers(0, 2, size=(3, len(sector.pairs)))
    W = sector.functionals(weights)
    assert sp.issparse(W) and W.shape == (3, k)
    assert np.abs(weights @ u[sector.labels] - W @ u).max() < 1e-12


def test_lumping_leaves_distinct_atoms_unreduced():
    frame = FrameConfig(a=0.2)
    atoms = [AtomSpec(omega=1.0, alpha=al) for al in (0.2, 0.8, 1.4)]
    gen = LindbladGenerator(build_hamiltonian(atoms, frame), same_wedge_rates(frame, atoms))
    sector = gen.sector(all_excited(3))
    m = len(sector.pairs)
    assert np.array_equal(sector.labels, np.arange(m))
    assert sector.L_hat.shape == (m, m)
    assert abs(sector.L_hat - csr(gen.restrict(sector.pairs))[1]).max() == 0


def test_lumping_certificate_rejects_a_perturbed_generator(monkeypatch):
    # the counter wedges lump their 26 orbits (classes {0, 1} and {2, 3}) into
    # 10 blocks; the certificate checks that lumping of the orbit quotient
    gen = counter_wedge_four()
    lumped = gen.sector(all_ground(4))
    restrict = gen.restrict
    seen = {}

    def perturbed_restrict(support, classes=()):
        orbits, exact = csr(restrict(support, classes))
        key = liouvillian._orbit_keys(gen.dim, classes)
        orbit = np.searchsorted(orbits, key[lumped.pairs])
        blocks = np.zeros(len(orbits), dtype=int)
        blocks[orbit] = lumped.labels
        # one diagonal entry of an orbit in the block of most orbits moves far
        # below the refinement's gap and far above the certificate's tolerance
        i = np.flatnonzero(blocks == np.bincount(blocks).argmax())[-1]
        delta = 1e-11 * np.abs(exact.data).max()
        perturbed = exact + sp.csr_array(([delta], ([i], [i])), shape=exact.shape)
        entries = perturbed.tocoo()  # row-major, as restrict returns them
        seen.update(orbit=orbit, perturbed=perturbed)
        return orbits, (entries.row, entries.col, entries.data)

    monkeypatch.setattr(gen, "restrict", perturbed_restrict)
    sector = gen.sector(all_ground(4))
    # every orbit is its own block, and L_hat is the perturbed quotient
    assert len(sector.pairs) == 70 and sector.L_hat.shape == (26, 26)
    assert np.array_equal(sector.labels, seen["orbit"])
    assert np.array_equal(sector.L_hat, seen["perturbed"].toarray())


def test_lumping_is_numbered_by_first_orbit_whatever_the_weights(monkeypatch):
    # the coarsest lumpable partition is unique, and its blocks are numbered
    # by their first orbit, so two weight streams give the same labels and a
    # bitwise-equal L_hat; fig2's sweep points share one numbering, dense and
    # CSR sectors alike
    frame = FrameConfig(a=2.0)
    seven = ([AtomSpec(omega=1.0, alpha=2.0)] * 3 + [AtomSpec(omega=1.0, alpha=2.6)] * 2
             + [AtomSpec(omega=1.0, alpha=3.1)] * 2)
    cases = [(counter_wedge_four(), all_ground(4)),
             (LindbladGenerator(build_hamiltonian(seven, frame), same_wedge_rates(frame, seven)),
              product_state("egegege"))]
    for alpha in (2.0, 4.0, 10.0):
        frame = FrameConfig(a=alpha)
        six = [AtomSpec(omega=1.0, alpha=alpha)] * 6
        cases.append((LindbladGenerator(build_hamiltonian(six, frame),
                                        same_wedge_rates(frame, six)), all_excited(6)))
    lump = liouvillian._lump
    sparse, fig2_labels = [], []
    for gen, rho in cases:
        seen = []
        with monkeypatch.context() as m:
            m.setattr(liouvillian, "_lump", lambda *args: seen.append(args) or lump(*args))
            sector = gen.sector(rho)
        labels, L_hat = lump(*seen[0])
        first = np.unique(labels, return_index=True)[1]
        assert len(first) < len(labels) and np.all(np.diff(first) > 0)
        with monkeypatch.context() as m:  # another weight stream
            m.setattr(liouvillian, "_unit_hash",
                      lambda x: np.random.default_rng(int(x[0]) + 1).random(len(x)))
            other_labels, other_L_hat = lump(*seen[0])
        assert np.array_equal(other_labels, labels)
        sparse.append(sp.issparse(L_hat))
        if sparse[-1]:
            assert np.array_equal(other_L_hat.indptr, L_hat.indptr)
            assert np.array_equal(other_L_hat.indices, L_hat.indices)
            L_hat, other_L_hat = L_hat.data, other_L_hat.data
        assert np.array_equal(other_L_hat, L_hat)
        if gen.n_atoms == 6:
            fig2_labels.append(sector.labels)
    assert sparse == [False, True, False, False, False]
    assert all(np.array_equal(labels, fig2_labels[0]) for labels in fig2_labels)


def _orbit_counts(pairs, dim, classes):
    """Per pair (a, b), the number of atoms of type 11, 10 and 01 (bit in a,
    bit in b) in each class: its orbit under the permutations within classes."""
    a, b = np.divmod(pairs, dim)
    counts = []
    for atoms in classes:
        x = np.array([(a >> j) & 1 for j in atoms])
        y = np.array([(b >> j) & 1 for j in atoms])
        counts += [(x & y).sum(0), (x & (1 - y)).sum(0), ((1 - x) & y).sum(0)]
    return list(zip(*counts))


def test_orbit_quotient_matches_full_assembly():
    # random rate sets of two kinds of atom, repeated: the sector built on the
    # orbits of the interchangeable atoms against L assembled on every pair
    # (restrict with no atom classes)
    rng = np.random.default_rng(25)
    with_class = coarser = 0
    for trial in range(30):
        n = 2 + trial % 5
        a = float(rng.uniform(0.5, 4.0))
        frame = FrameConfig(a=a)
        kinds = [AtomSpec(omega=float(rng.uniform(0.5, 2.0)),
                          alpha=float(rng.uniform(0.5 * a, 3.0 * a)),
                          g=float(rng.uniform(0.2, 1.5))) for _ in range(2)]
        atoms = [kinds[k] for k in rng.integers(0, 2, size=n)]
        if trial % 3 == 0:
            half = n // 2
            rates, h = cross_wedge_rates(
                frame, atoms[:n - half],
                [dataclasses.replace(at, wedge="II") for at in atoms[n - half:]]), None
        else:
            rates = same_wedge_rates(frame, atoms)
            h = build_hamiltonian(atoms, frame) if trial % 2 else None
        rho = product_state("".join(rng.choice(["e", "g"], size=n, p=[0.7, 0.3])))
        for pairing in ("anomalous", "literal"):
            gen = LindbladGenerator(h, rates, pairing)
            classes = gen.atom_classes(rho)
            sector = gen.sector(rho)
            pairs, entries = gen.restrict(np.flatnonzero(rho))
            _, L = csr((pairs, entries))
            assert np.array_equal(sector.pairs, pairs)
            # every orbit (equal type counts in every class) lies in one block
            orbits = _orbit_counts(pairs, gen.dim, classes)
            assert len(set(zip(sector.labels, orbits))) == len(set(orbits))
            k = len(sector.block_swap)
            u = rng.normal(size=k) + 1j * rng.normal(size=k)
            scale = np.abs(entries[2]).max()
            assert np.abs(L @ u[sector.labels] - (sector.L_hat @ u)[sector.labels]).max() \
                <= 1e-13 * scale
            # the coarsest lumping is unique: _lump on all of L finds the same blocks
            x, y = np.divmod(pairs, gen.dim)
            full, _ = liouvillian._lump(entries, np.searchsorted(pairs, y * gen.dim + x),
                                        rho.ravel()[pairs])
            assert full.max() + 1 == k == len(set(zip(full, sector.labels)))
            if n <= 4:
                v = np.zeros(gen.dim**2, dtype=complex)
                v[pairs] = u[sector.labels]
                oracle = build_superoperator(h, rates, pairing)
                expected = unvec(oracle @ vec(v.reshape(gen.dim, -1)), gen.dim).ravel()
                assert np.abs(expected[pairs] - (sector.L_hat @ u)[sector.labels]).max() \
                    <= 1e-12 * scale
                assert np.abs(np.delete(expected, pairs)).max() <= 1e-12 * scale
            with_class += max(map(len, classes)) > 1
            coarser += k < len(set(orbits))
    assert with_class >= 40 and coarser >= 10


def test_atom_classes_need_equal_rates_energies_and_state():
    frame = FrameConfig(a=2.0)
    atom = AtomSpec(omega=1.0, alpha=2.0)

    def classes(atoms, rho, with_h=True):
        h = build_hamiltonian(atoms, frame) if with_h else None
        gen = LindbladGenerator(h, same_wedge_rates(frame, atoms))
        return gen.atom_classes(product_state(rho) if isinstance(rho, str) else rho)

    assert classes([atom] * 3, "eee") == [[0, 1, 2]]
    # atoms that differ only in their initial bit, in g or in omega stay apart
    assert classes([atom] * 3, "ege") == [[0, 2], [1]]
    assert classes([atom, dataclasses.replace(atom, g=0.5), atom], "eee") == [[0, 2], [1]]
    for with_h in (True, False):
        assert classes([atom, dataclasses.replace(atom, omega=1.5)], "ee", with_h) == [[0], [1]]
    # a mixed state: |eg><eg| alone breaks the swap, its mixture with |ge><ge| not
    rho = np.diag([0.0, 1.0, 0.0, 0.0])
    assert classes([atom] * 2, rho) == [[0], [1]]
    assert classes([atom] * 2, np.diag([0.0, 0.5, 0.5, 0.0])) == [[0, 1]]
    # the counter wedges, and three kinds of atom with every other one excited
    assert counter_wedge_four().atom_classes(all_ground(4)) == [[0, 1], [2, 3]]
    atoms = [atom] * 3 + [dataclasses.replace(atom, alpha=2.6)] * 2 + [
        dataclasses.replace(atom, alpha=3.1)] * 2
    assert classes(atoms, "egegege") == [[0, 2], [1], [3], [4], [5], [6]]


def test_symmetric_sector_gathers_only_orbit_representatives(monkeypatch):
    # fig2's six identical atoms: the 924 pairs fall into 16 orbits, and only
    # one representative of each is gathered from the jump table
    frame = FrameConfig(a=2.0)
    atoms = [AtomSpec(omega=1.0, alpha=2.0)] * 6
    gen = LindbladGenerator(build_hamiltonian(atoms, frame), same_wedge_rates(frame, atoms))
    spy = _CountedGathers(gen._fl)
    monkeypatch.setattr(gen, "_fl", spy)
    _clear_slots()
    sector = gen.sector(all_excited(6))
    assert len(sector.pairs) == 924 and sector.L_hat.shape == (7, 7)
    assert spy.rows == 16
    # the orbit keys and the gathers in several chunks give the same sector
    monkeypatch.setattr(liouvillian, "_ASSEMBLY_CHUNK", 1000)
    _clear_slots()
    chunked = gen.sector(all_excited(6))
    assert spy.rows == 32 and spy.count > 3
    for field in dataclasses.fields(sector):
        assert np.array_equal(getattr(chunked, field.name), getattr(sector, field.name))


def _counted(function, name, calls):
    def counted(*args):
        calls.append(name)
        return function(*args)
    return counted


def _count_structure_builds(monkeypatch):
    # the names of the structure builds made from here on
    builds = []
    for name in ("_merge_pieces", "_jump_table", "_build_orbit_keys"):
        monkeypatch.setattr(liouvillian, name, _counted(getattr(liouvillian, name), name, builds))
    monkeypatch.setattr(LindbladGenerator, "_search",
                        _counted(LindbladGenerator._search, "_search", builds))
    return builds


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _fresh_sector(h, rates, rho, cross_pairing="anomalous"):
    _clear_slots()
    return LindbladGenerator(h, rates, cross_pairing).sector(rho)


def test_a_sweep_compiles_its_structure_once(monkeypatch):
    # fig2's five sweep points share N, the nonzero positions of K and its
    # kept pieces, the atom classes and the support of rho0: the pieces are
    # merged, the jumps split, the orbit keys built and the sector searched
    # once, and each run's sector is bit for bit one built from empty slots
    from accelatoms.dynamics import evolve
    sectors = []
    build = LindbladGenerator.sector

    def kept(self, rho):
        sectors.append(build(self, rho))
        return sectors[-1]

    _clear_slots()
    builds = _count_structure_builds(monkeypatch)
    monkeypatch.setattr(LindbladGenerator, "sector", kept)
    systems = []
    for alpha in (2.0, 4.0, 6.0, 8.0, 10.0):
        frame = FrameConfig(a=alpha)
        atoms = [AtomSpec(omega=1.0, alpha=alpha)] * 6
        systems.append((build_hamiltonian(atoms, frame), same_wedge_rates(frame, atoms)))
        evolve(all_excited(6), *systems[-1], t_max=0.05, dt=0.005)
    assert sorted(builds) == ["_build_orbit_keys", "_jump_table", "_merge_pieces", "_search"]
    monkeypatch.setattr(LindbladGenerator, "sector", build)
    assert len({s.L_hat.tobytes() for s in sectors}) == 5
    for (h, rates), sector in zip(systems, sectors):
        fresh = _fresh_sector(h, rates, all_excited(6))
        for field in dataclasses.fields(sector):
            assert _same_bits(getattr(sector, field.name), getattr(fresh, field.name))


def test_structure_slots_are_keyed_by_value(monkeypatch):
    # a search is reused only for the same structure, orbits (the atom
    # classes) and support, and a compile only for the same nonzero positions
    # of K and the same merged pieces of nonzero weight
    frame, atoms, rates = resonant_pair()
    h = build_hamiltonian(atoms, frame)
    gen = LindbladGenerator(h, rates)
    symmetric = np.diag([0.0, 0.5, 0.5, 0.0])
    distinct = np.diag([0.0, 0.3, 0.7, 0.0])  # the same support, atoms not interchangeable
    bell = np.zeros((4, 4))
    bell[np.ix_([0, 3], [0, 3])] = 0.5  # the same atom classes, another support
    assert gen.atom_classes(symmetric) == gen.atom_classes(bell) == [[0, 1]]
    assert gen.atom_classes(distinct) == [[0], [1]]
    _clear_slots()
    builds = _count_structure_builds(monkeypatch)
    sectors = [gen.sector(rho) for rho in (symmetric, distinct, symmetric, bell)]
    assert builds.count("_search") == 4
    for rho, sector in zip((symmetric, distinct, symmetric, bell), sectors):
        fresh = _fresh_sector(h, rates, rho)
        for field in dataclasses.fields(sector):
            assert _same_bits(getattr(sector, field.name), getattr(fresh, field.name))
    assert len(sectors[1].pairs) == len(sectors[0].pairs) < len(sectors[3].pairs)
    # the orbit keys, per dim and classes
    for dim, classes in ((16, [[0, 1], [2, 3]]), (16, [[0, 1, 2, 3]]), (8, [[0, 1, 2, 3]]),
                         (16, [[0, 1], [2, 3]])):
        expected = liouvillian._build_orbit_keys(dim, tuple(map(tuple, classes)))
        assert _same_bits(liouvillian._orbit_keys(dim, classes), expected)

    # an imaginary K[0, 0] keeps every nonzero position but cancels the merged
    # piece A_0 rho A_0^+, whose weight is 2 Re K[0, 0]: it is compiled anew
    K = kossakowski_matrix(rates)
    cancelled = K.copy()
    cancelled[0, 0] = 1j * K[0, 0].real
    gens = []
    for k in (K, cancelled, K):
        monkeypatch.setattr(liouvillian, "kossakowski_matrix", lambda rates, pairing, k=k: k)
        builds.clear()
        gens.append(LindbladGenerator(h, rates))
        assert builds == ["_jump_table"] * (len(gens) > 1)
    assert gens[0]._structure[:2] == gens[1]._structure[:2]
    assert gens[0]._structure == gens[2]._structure != gens[1]._structure
    assert len(gens[1]._w) == len(gens[0]._w) - 1
    for k, compiled in zip((K, cancelled, K), gens):
        monkeypatch.setattr(liouvillian, "kossakowski_matrix", lambda rates, pairing, k=k: k)
        _clear_slots()
        fresh = LindbladGenerator(h, rates)
        for name in ("_fl", "_fr", "_w", "_left_diag", "_right_diag"):
            assert _same_bits(getattr(compiled, name), getattr(fresh, name))


def test_cached_structure_is_read_only(monkeypatch):
    gen = counter_wedge_four()
    gen.sector(all_ground(4))
    slots = (liouvillian._merged, liouvillian._jumps, liouvillian._orbits,
             liouvillian._searches)
    assert all(slot.value is not None for slot in slots)
    arrays = [a for slot in slots
              for a in (slot.value if isinstance(slot.value, tuple) else (slot.value,))]
    assert not any(a.flags.writeable for a in arrays)
    assert not gen._fl.flags.writeable and not gen._fr.flags.writeable
    with pytest.raises(ValueError):
        gen._fl[0, 0] = 0
    # the record map of a run, with a dense W and, on a CSR sector, a CSR one
    for dense_blocks in (liouvillian._DENSE_BLOCKS, 0):
        monkeypatch.setattr(liouvillian, "_DENSE_BLOCKS", dense_blocks)
        dynamics._record_maps.clear()
        dynamics.evolve(all_ground(4), None, gen.rates, t_max=0.01, dt=0.005,
                        concurrence_pair=(0, 2))
        record_map = dynamics._record_maps.value
        W = record_map.W
        assert sp.issparse(W) == (dense_blocks == 0)
        arrays = [W] if dense_blocks else [W.data, W.indices, W.indptr]
        arrays += [a for q in record_map.quotients for a in q[:2] if isinstance(a, np.ndarray)]
        assert len(arrays) > len(record_map.quotients)
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            arrays[0][0] = 0


def test_search_slot_is_keyed_on_the_atom_classes():
    # the search of an N = 8 Dicke sector is kept per (structure, support,
    # atom classes): its key holds the classes, and no copy of the 4^N orbit
    # keys
    frame = FrameConfig(a=2.0)
    atoms = [AtomSpec(omega=1.0, alpha=2.0)] * 8
    gen = LindbladGenerator(build_hamiltonian(atoms, frame), same_wedge_rates(frame, atoms))
    _clear_slots()
    sector = gen.sector(all_excited(8))
    assert (len(sector.pairs), len(sector.block_swap)) == (12870, 9)
    structure, support, classes = liouvillian._searches.key
    assert classes == (tuple(range(8)),)
    assert support == np.flatnonzero(all_excited(8)).tobytes()
    assert not any(isinstance(part, bytes) and len(part) >= 4 * 4**8
                   for part in (*structure, support))


def test_invariant_block_spectrum_matches_superoperator():
    frame = FrameConfig(a=2.0)
    systems = []
    for omegas in ((1.0, 1.0), (1.0, 1.5)):  # the two c04 systems
        atoms = [AtomSpec(omega=w, alpha=2.0) for w in omegas]
        h = build_hamiltonian(atoms, frame)
        systems.append((LindbladGenerator(h, same_wedge_rates(frame, atoms)), h))
    systems.append((counter_wedge_four(), None))
    # at zero temperature L only lowers excitations, so its graph is directed
    frame0 = FrameConfig(a=1e-3)
    atoms0 = [AtomSpec(omega=1.0, alpha=1e-3)] * 2
    h0 = build_hamiltonian(atoms0, frame0)
    systems.append((LindbladGenerator(h0, same_wedge_rates(frame0, atoms0)), h0))
    zero_tol = 1e-9 * frame.gamma0
    for gen, h in systems:
        # merged blocks would keep the spectrum, so pin the partition: the
        # weak components of L, ordered by their smallest pair
        blocks = gen.invariant_blocks()
        _, L = csr(gen.restrict(np.arange(gen.dim**2)))
        count, labels = connected_components(L != 0, directed=True, connection="weak")
        members = sorted((np.flatnonzero(labels == c) for c in range(count)), key=min)
        assert len(blocks) == count
        for block, idx in zip(blocks, members):
            assert np.array_equal(block, L[idx][:, idx].toarray())
        parts = [steady_state_analysis(b, zero_tol=zero_tol) for b in blocks]
        assert sum(len(p.eigenvalues) for p in parts) == gen.dim**2
        dense = steady_state_analysis(build_superoperator(h, gen.rates), zero_tol=zero_tol)
        assert sum(p.zero_multiplicity for p in parts) == dense.zero_multiplicity
        # degenerate eigenvalues have no stable sort order, so match them one to one
        blockwise = np.concatenate([p.eigenvalues for p in parts])
        cost = np.abs(blockwise[:, None] - dense.eigenvalues[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() < 1e-10
