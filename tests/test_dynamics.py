import math

import numpy as np
import pytest
import scipy.linalg

from accelatoms import AtomSpec, DomainError, FrameConfig, IntegrationError, dynamics
from accelatoms.dynamics import (RecordMap, all_excited, all_ground, coherence_measure,
                                 concurrence, correlation_oracle, evolve, partial_trace,
                                 population, populations, product_state, total_emission_rate)
from accelatoms.kinematics import kinematic_state, unruh_beta
from accelatoms.liouvillian import (LindbladGenerator, Sector, build_hamiltonian,
                                    build_superoperator, check_density_matrix)
from accelatoms.operators import sigma_minus, sigma_plus
from accelatoms.rates import cross_wedge_rates, kossakowski_matrix, same_wedge_rates

ZERO_T_A = 1e-3


def zero_temp_system(n):
    frame = FrameConfig(a=ZERO_T_A)
    atoms = [AtomSpec(omega=1.0, alpha=ZERO_T_A)] * n
    return frame, atoms, same_wedge_rates(frame, atoms), build_hamiltonian(atoms, frame)


def resonant_system(n, a=2.0):
    frame = FrameConfig(a=a)
    atoms = [AtomSpec(omega=1.0, alpha=a)] * n
    return frame, atoms, same_wedge_rates(frame, atoms), build_hamiltonian(atoms, frame)


def test_single_atom_decay_matches_exponential():
    frame, atoms, rs, h = zero_temp_system(1)
    ts = evolve(all_excited(1), h, rs, t_max=5.0, dt=1e-3)
    gamma = 2 * frame.gamma0
    assert np.abs(ts.column("P_1") - np.exp(-gamma * ts.times)).max() < 1e-8
    assert ts.max_trace_drift < 1e-12
    assert np.all(ts.column("trace_err") < 1e-8)
    assert np.all(ts.column("min_eig") > -1e-9)
    assert ts.records.shape[0] == len(ts.times)
    assert np.all(np.diff(ts.times) > 0)


def test_evolve_matches_matrix_exponential():
    frame, atoms, rs, h = resonant_system(2)
    ts = evolve(all_excited(2), h, rs, t_max=5.0, dt=1e-3, record_every=100,
                retain_states=True)
    L = build_superoperator(h, rs)
    for t, state in zip(ts.times, ts.states):
        expected = (scipy.linalg.expm(L * t) @ all_excited(2).flatten(order="F"))
        assert np.abs(state.flatten(order="F") - expected).max() < 1e-10


def test_evolve_zero_time_returns_initial_state():
    frame, atoms, rs, h = resonant_system(1)
    rho0 = np.diag([0.25, 0.75]).astype(complex)
    ts = evolve(rho0, h, rs, t_max=0.0, retain_states=True)
    assert len(ts.times) == 1
    assert np.array_equal(ts.states[-1], rho0)


def test_evolve_rejects_bad_inputs():
    frame, atoms, rs, h = resonant_system(1)
    with pytest.raises(DomainError):
        evolve(all_excited(1), h, rs, t_max=1.0, dt=0.0)
    with pytest.raises(DomainError):
        evolve(np.eye(2, dtype=complex), h, rs, t_max=1.0)  # trace 2
    with pytest.raises(DomainError):
        evolve(all_excited(2), h, rs, t_max=1.0)  # wrong dimension


def test_generator_and_evolve_take_the_energies_only():
    # H is the 2^N energies; a dense matrix or a vector of another length is refused
    frame, atoms, rs, h = resonant_system(2)
    for bad in (np.diag(h), h[:3], np.append(h, 0.0)):
        with pytest.raises(DomainError, match=r"expected its energies, shape \(4,\)"):
            LindbladGenerator(bad, rs)
        with pytest.raises(DomainError, match=r"expected its energies, shape \(4,\)"):
            evolve(all_excited(2), bad, rs, t_max=1.0)


def test_evolve_flags_divergence_with_step_index():
    frame, atoms, rs, h = resonant_system(1)
    with pytest.raises(IntegrationError) as err:
        evolve(all_excited(1), h, rs, t_max=500.0, dt=50.0)
    assert err.value.step >= 0


def test_step_halving_convergence():
    frame, atoms, rs, h = resonant_system(2)
    coarse = evolve(all_excited(2), h, rs, t_max=2.0, dt=1e-3, record_every=10)
    fine = evolve(all_excited(2), h, rs, t_max=2.0, dt=5e-4, record_every=20)
    assert np.array_equal(coarse.times, fine.times)
    assert np.abs(coarse.records - fine.records).max() < 1e-6


def test_population_observables():
    assert populations(all_excited(3)) == pytest.approx([1.0, 1.0, 1.0])
    assert populations(all_ground(3)) == pytest.approx([0.0, 0.0, 0.0])
    assert population(product_state("eg"), 0) == 1.0
    assert population(product_state("eg"), 1) == 0.0
    with pytest.raises(DomainError):
        population(all_ground(2), 5)


def test_single_atom_thermal_steady_state():
    # occupation 1 at the resonant frequency: steady population n/(2n+1) = 1/3
    a = 2 * math.pi / math.log(2.0)
    frame = FrameConfig(a=a)
    atoms = [AtomSpec(omega=1.0, alpha=a)]
    rs = same_wedge_rates(frame, atoms)
    h = build_hamiltonian(atoms, frame)
    ts = evolve(all_excited(1), h, rs, t_max=30.0, dt=1e-3, record_every=1000)
    assert ts.column("P_1")[-1] == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_emission_rate_product_state_additivity():
    # at t=0 a product of excited atoms emits N times the single-atom rate
    frame, atoms, rs, h = zero_temp_system(3)
    r3 = total_emission_rate(all_excited(3), h, rs)
    frame1, atoms1, rs1, h1 = zero_temp_system(1)
    r1 = total_emission_rate(all_excited(1), h1, rs1)
    assert r3 == pytest.approx(3 * r1, rel=1e-12)


def test_emission_rate_vanishes_at_fixed_point():
    from accelatoms.liouvillian import thermal_state
    frame, atoms, rs, h = resonant_system(2)
    rho_th = thermal_state(h, unruh_beta(frame))
    assert abs(total_emission_rate(rho_th, h, rs)) < 1e-10 * frame.gamma0


def test_emission_rate_matches_population_derivative():
    frame, atoms, rs, h = resonant_system(2)
    ts = evolve(all_excited(2), h, rs, t_max=2.0, dt=1e-3, record_every=10)
    p_tot = ts.column("P_tot")
    dt_rec = ts.times[1] - ts.times[0]
    fd = (p_tot[2:] - p_tot[:-2]) / (2 * dt_rec)
    assert np.abs(-fd - ts.column("R_tot")[1:-1]).max() < 1e-5


def test_coherence_measure_values():
    assert coherence_measure(product_state("ee")) == 0.0
    assert coherence_measure(product_state("ge")) == 0.0
    dicke = np.zeros(4, dtype=complex)
    dicke[1] = dicke[2] = 1 / math.sqrt(2)  # (|eg> + |ge>)/sqrt(2)
    rho = np.outer(dicke, dicke.conj())
    assert coherence_measure(rho) == pytest.approx(1.0, rel=1e-12)


def test_partial_trace_product_and_identity():
    rng = np.random.default_rng(23)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho_a = g @ g.conj().T
    rho_a /= rho_a.trace()
    p_b = np.diag([0.3, 0.7]).astype(complex)
    joint = np.kron(p_b, rho_a)  # atom 2 is the most significant bit
    assert np.abs(partial_trace(joint, (0, 1)) - rho_a).max() < 1e-12
    # two-atom state: keeping both atoms is the identity map
    assert np.abs(partial_trace(rho_a, (0, 1)) - rho_a).max() < 1e-14


def test_partial_trace_ghz_pair():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / math.sqrt(2)
    rho = np.outer(ghz, ghz.conj())
    for pair in ((0, 1), (0, 2), (1, 2)):
        red = partial_trace(rho, pair)
        assert np.abs(red - np.diag([0.5, 0.0, 0.0, 0.5])).max() < 1e-14


def test_partial_trace_rejects_bad_pairs():
    with pytest.raises(DomainError):
        partial_trace(all_ground(3), (1, 1))
    with pytest.raises(DomainError):
        partial_trace(all_ground(3), (0, 3))


def test_concurrence_reference_states():
    bell = np.zeros(4, dtype=complex)
    bell[1] = bell[2] = 1 / math.sqrt(2)
    assert concurrence(np.outer(bell, bell.conj())) == pytest.approx(1.0, rel=1e-12)
    assert concurrence(product_state("eg")) == 0.0
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    werner = 0.5 * np.outer(phi, phi.conj()) + 0.5 * np.eye(4) / 4
    assert concurrence(werner) == pytest.approx(0.25, rel=1e-10)
    with pytest.raises(DomainError):
        concurrence(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))
    # a batch raises for its first failing state, with that state's first failing check
    off_trace = np.diag([0.5, 0.0, 0.0, 0.0]).astype(complex)
    skew = np.outer(bell, bell.conj()) + np.diag([0.0, 1j, -1j, 0.0])
    with pytest.raises(DomainError, match="trace off"):
        concurrence(np.array([werner, off_trace, skew]))
    with pytest.raises(DomainError, match="not Hermitian"):
        concurrence(np.array([werner, skew, off_trace]))


def test_nonfinite_states_raise_domain_error():
    # the finiteness check comes first for each state, before any eigenvalue routine
    frame, atoms, rs, h = resonant_system(2)
    mixed = np.eye(4, dtype=complex) / 4
    negative = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    for value in (np.nan, np.inf):
        rho0 = all_excited(2).astype(complex)
        rho0[0, 3] = rho0[3, 0] = value
        for check in (check_density_matrix, concurrence):
            for states in (rho0, np.array([mixed, rho0, negative])):
                with pytest.raises(DomainError, match="non-finite"):
                    check(states)
            # an earlier failing state still raises first, with its own check
            with pytest.raises(DomainError, match="eigenvalue -5.000e-01"):
                check(np.array([mixed, negative, rho0]))
        with pytest.raises(DomainError, match="non-finite"):
            evolve(rho0, h, rs, t_max=1.0, dt=1e-2)


def test_concurrence_agrees_with_matrix_square_root_route():
    sy = np.array([[0, -1j], [1j, 0]])
    sysy = np.kron(sy, sy)
    rng = np.random.default_rng(29)
    states = []
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= rho.trace()
        rho_t = sysy @ rho.conj() @ sysy
        sq = scipy.linalg.sqrtm(rho)
        r = scipy.linalg.sqrtm(sq @ rho_t @ sq)
        lam = np.sort(np.linalg.eigvalsh((r + r.conj().T) / 2))
        reference = max(0.0, lam[-1] - lam[-2] - lam[-3] - lam[-4])
        assert concurrence(rho) == pytest.approx(reference, abs=1e-9)
        states.append(rho)
    assert concurrence(np.array(states)).tolist() == [concurrence(st) for st in states]


def test_picture_invariance_of_coacc_observables():
    frame, atoms, rs, h = resonant_system(2)
    with_h = evolve(all_excited(2), h, rs, t_max=3.0, dt=1e-3, record_every=100,
                    retain_states=True)
    without_h = evolve(all_excited(2), None, rs, t_max=3.0, dt=1e-3, record_every=100,
                       retain_states=True)
    for name in ("P_1", "P_2", "P_tot", "C_coh", "C_conc"):
        assert np.abs(with_h.column(name) - without_h.column(name)).max() < 1e-10
    # frame rotation maps one picture to the other state by state
    diag = h
    for t, rho_s, rho_i in zip(with_h.times, with_h.states, without_h.states):
        u = np.diag(np.exp(1j * diag * t))
        assert np.abs(u @ rho_s @ u.conj().T - rho_i).max() < 1e-8


def test_correlation_oracle_self_consistency():
    frame, atoms, rs, h = resonant_system(2)
    omegas = [kinematic_state(frame, at).Omega for at in atoms]
    ts = evolve(all_excited(2), h, rs, t_max=1.0, dt=1e-3, record_every=1,
                retain_states=True)
    assert correlation_oracle(ts, rs, omegas=omegas) < 1e-5


def test_correlation_oracle_zero_rates():
    frame = FrameConfig(a=1.0)
    atoms = [AtomSpec(omega=1.0, alpha=1.0, g=0.0)] * 2
    rs = same_wedge_rates(frame, atoms)
    ts = evolve(all_excited(2), None, rs, t_max=0.1, dt=1e-2, record_every=1,
                retain_states=True)
    assert correlation_oracle(ts, rs) < 1e-12


def test_correlation_oracle_literal_pairing():
    # comparison variant: its cross-wedge correlation terms must reproduce the
    # generator exactly, checked algebraically on random valid states
    from accelatoms.dynamics import heisenberg_correlation_rhs
    from accelatoms.liouvillian import lindblad_rhs
    from accelatoms.operators import sigma_minus, sigma_plus
    frame = FrameConfig(a=2.0)
    rs = cross_wedge_rates(frame,
                           [AtomSpec(omega=1.0, alpha=2.0),
                            AtomSpec(omega=1.0, alpha=2.0, g=0.7)],
                           [AtomSpec(omega=1.0, alpha=2.0, wedge="II")])
    rng = np.random.default_rng(31)
    for _ in range(5):
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = g @ g.conj().T
        rho /= rho.trace()
        rhs_mat = lindblad_rhs(rho, None, rs, cross_pairing="literal")
        for l, m in ((0, 0), (1, 1), (0, 1), (1, 0)):
            direct = np.einsum("ij,ji->", sigma_plus(l, 3) @ sigma_minus(m, 3), rhs_mat)
            formula = heisenberg_correlation_rhs(rho, rs, l, m, cross_pairing="literal")
            assert abs(direct - formula) < 1e-12


def test_literal_pairing_breaks_positivity():
    # the alternative pairing is trace preserving but not completely positive;
    # the integrator's invariant monitor flags the violation
    frame = FrameConfig(a=2.0)
    rs = cross_wedge_rates(frame, [AtomSpec(omega=1.0, alpha=2.0)],
                           [AtomSpec(omega=1.0, alpha=2.0, wedge="II")])
    with pytest.raises(IntegrationError):
        evolve(all_ground(2), None, rs, t_max=20.0, dt=1e-2,
               cross_pairing="literal")
    # and the positivity certificate, which reads the generator's own
    # coefficient matrix, sees it: for the N = 4 counter wedges the literal K
    # (Hermitian here, the rates being real) has a negative eigenvalue
    rs4 = cross_wedge_rates(frame, [AtomSpec(omega=1.0, alpha=2.0)] * 2,
                            [AtomSpec(omega=1.0, alpha=2.0, wedge="II")] * 2)
    assert np.linalg.eigvalsh(kossakowski_matrix(rs4)).min() >= -1e-12
    literal = kossakowski_matrix(rs4, "literal")
    assert np.array_equal(literal, literal.conj().T)
    assert np.linalg.eigvalsh(literal).min() < -1e-2 * np.abs(literal).max()


def test_correlation_oracle_needs_states():
    frame, atoms, rs, h = resonant_system(2)
    ts = evolve(all_excited(2), h, rs, t_max=1.0, dt=1e-3)
    with pytest.raises(DomainError):
        correlation_oracle(ts, rs)


def test_counter_wedge_marginals_and_entanglement():
    # wedge-I observables are blind to the other wedge, yet the pair entangles
    frame = FrameConfig(a=2.0)
    rs = cross_wedge_rates(frame, [AtomSpec(omega=1.0, alpha=2.0)],
                           [AtomSpec(omega=1.0, alpha=2.0, wedge="II")])
    both = evolve(all_ground(2), None, rs, t_max=10.0, dt=1e-3)
    rs_single = same_wedge_rates(frame, [AtomSpec(omega=1.0, alpha=2.0)])
    alone = evolve(all_ground(1), None, rs_single, t_max=10.0, dt=1e-3)
    assert np.abs(both.column("P_1") - alone.column("P_1")).max() < 1e-8
    assert both.column("C_conc").max() > 0.1


def test_small_zero_concurrence_certificate():
    # distinct red-shifted frequencies: independent decay, exactly no entanglement
    alphas = [0.2, 0.8, 1.4]
    frame = FrameConfig(a=alphas[0])
    atoms = [AtomSpec(omega=1.0, alpha=al) for al in alphas]
    rs = same_wedge_rates(frame, atoms)
    h = build_hamiltonian(atoms, frame)
    ts = evolve(all_excited(3), h, rs, t_max=5.0, dt=2e-3)
    assert ts.column("C_conc").max() < 1e-10


def test_emission_rate_column_matches_superoperator_oracle():
    # R_tot = -sum_a popcount(a) (d rho/dt)_aa with d rho/dt from the Kronecker oracle
    frame = FrameConfig(a=2.0)
    pair = [AtomSpec(omega=1.0, alpha=2.0)] * 2
    wedge_i = [AtomSpec(omega=1.0, alpha=2.0)] * 2
    wedge_ii = [AtomSpec(omega=1.0, alpha=2.0, wedge="II")] * 2
    cases = [(all_excited(2), build_hamiltonian(pair, frame), same_wedge_rates(frame, pair)),
             (all_ground(4), None, cross_wedge_rates(frame, wedge_i, wedge_ii))]
    for rho0, h, rs in cases:
        dim = rho0.shape[0]
        popcount = np.array([bin(b).count("1") for b in range(dim)])
        L = build_superoperator(h, rs)
        ts = evolve(rho0, h, rs, t_max=1.0, dt=1e-3, record_every=50, retain_states=True)
        expected = [-popcount @ (L @ st.flatten(order="F")).reshape(dim, dim, order="F")
                    .diagonal().real for st in ts.states]
        assert np.abs(ts.column("R_tot") - expected).max() < 1e-12


def test_evolve_rejects_partial_final_step():
    frame, atoms, rs, h = resonant_system(1)
    with pytest.raises(DomainError):
        evolve(all_excited(1), h, rs, t_max=1.0, dt=0.3)


def _reference_states(gen, rho0, pairs, dt, nsteps, record_every):
    # classic four-stage RK4 on the unreduced sector, with the same
    # Hermitization and trace renormalisation as evolve
    _, L = gen.restrict(pairs)
    a, b = np.divmod(pairs, gen.dim)
    swap = np.searchsorted(pairs, b * gen.dim + a)
    v = rho0.ravel()[pairs].astype(complex)
    states = []
    for step in range(nsteps + 1):
        if step % record_every == 0 or step == nsteps:
            full = np.zeros(gen.dim**2, dtype=complex)
            full[pairs] = v
            states.append(full.reshape(gen.dim, gen.dim))
        k1 = L @ v
        k2 = L @ (v + dt / 2 * k1)
        k3 = L @ (v + dt / 2 * k2)
        k4 = L @ (v + dt * k3)
        v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        v = (v + v[swap].conj()) / (2 * v[a == b].sum().real)
    return states


def test_lumped_evolve_matches_unreduced_rk4():
    frame = FrameConfig(a=2.0)
    six = [AtomSpec(omega=1.0, alpha=2.0)] * 6
    wedge_i = [AtomSpec(omega=1.0, alpha=2.0)] * 2
    wedge_ii = [AtomSpec(omega=1.0, alpha=2.0, wedge="II")] * 2
    cases = [(all_excited(6), build_hamiltonian(six, frame), same_wedge_rates(frame, six), 7),
             (all_ground(4), None, cross_wedge_rates(frame, wedge_i, wedge_ii), 10)]
    dt, nsteps, record_every = 0.005, 400, 40
    for rho0, h, rs, blocks in cases:
        gen = LindbladGenerator(h, rs)
        sector = gen.sector(rho0)
        assert sector.L_hat.shape == (blocks, blocks)
        ts = evolve(rho0, h, rs, t_max=dt * nsteps, dt=dt, record_every=record_every,
                    retain_states=True)
        expected = _reference_states(gen, rho0, sector.pairs, dt, nsteps, record_every)
        assert len(ts.states) == len(expected) == nsteps // record_every + 1
        assert max(np.abs(s - e).max() for s, e in zip(ts.states, expected)) < 1e-12


def _record_map_cases():
    # (rho0, H, rates, cross_pairing, concurrence pair)
    frame = FrameConfig(a=2.0)
    six = [AtomSpec(omega=1.0, alpha=2.0)] * 6
    mismatched = [AtomSpec(omega=1.0, alpha=0.2 + 0.6 * j) for j in range(6)]
    frame_b = FrameConfig(a=0.2)
    wedge_i = [AtomSpec(omega=1.0, alpha=2.0)] * 2
    wedge_ii = [AtomSpec(omega=1.0, alpha=2.0, wedge="II")] * 2
    counter = cross_wedge_rates(frame, wedge_i, wedge_ii)
    frame0, atoms0, rates0, h0 = zero_temp_system(3)
    return [
        (all_excited(6), build_hamiltonian(six, frame), same_wedge_rates(frame, six),
         "anomalous", (0, 1)),
        (all_excited(6), build_hamiltonian(mismatched, frame_b),
         same_wedge_rates(frame_b, mismatched), "anomalous", (0, 1)),
        (all_ground(4), None, counter, "anomalous", (0, 2)),
        (all_ground(4), None, counter, "literal", (0, 2)),
        (product_state("egg"), h0, rates0, "anomalous", (0, 1)),
    ]


def _random_block_state(sector, rng):
    # Hermitian, constant on the blocks, unit trace, nonnegative diagonal
    k = len(sector.block_swap)
    u = rng.normal(size=k) + 1j * rng.normal(size=k)
    u = (u + u[sector.block_swap].conj()) / 2
    on_diagonal = sector.diag_count > 0
    u[on_diagonal] = np.abs(u[on_diagonal])
    return u / (sector.diag_count @ u).real


def test_record_map_matches_oracle_functions():
    rng = np.random.default_rng(37)
    block_counts = []
    for rho0, h, rs, pairing, pair in _record_map_cases():
        sector = LindbladGenerator(h, rs, pairing).sector(rho0)
        block_counts.append(len(sector.block_swap))
        n = rs.n_atoms
        record_map = RecordMap(sector, n, pair)
        for _ in range(3):
            u = _random_block_state(sector, rng)
            rho = sector.scatter(u)
            pops, trace, corr, rho2, r_tot = record_map.linear(u[None])
            assert np.abs(pops[0] - populations(rho)).max() < 1e-13
            assert abs(trace[0] - rho.trace()) < 1e-13
            assert abs(2.0 * np.abs(corr[0]).sum() - coherence_measure(rho)) < 1e-13
            expected = [np.einsum("ij,ji->", sigma_plus(j, n) @ sigma_minus(l, n), rho)
                        for j in range(n) for l in range(j + 1, n)]
            assert np.abs(corr[0] - expected).max() < 1e-13
            assert np.abs(rho2[0] - partial_trace(rho, pair)).max() < 1e-13
            assert abs(r_tot[0] - total_emission_rate(rho, h, rs, pairing)) < 1e-13
    # fig2's Dicke ladder, fig4 case_b unlumped, the counter wedges under both pairings
    assert block_counts[:3] == [7, 64, 10]


def test_blockwise_min_eig_matches_full_eigvalsh():
    rng = np.random.default_rng(41)
    uncovered = []
    # and the N = 8 Dicke ladder: 12870 pairs in 9 blocks, row blocks up to 70 x 70
    frame, eight = FrameConfig(a=2.0), [AtomSpec(omega=1.0, alpha=2.0)] * 8
    dicke = (all_excited(8), build_hamiltonian(eight, frame), same_wedge_rates(frame, eight),
             "anomalous", (0, 1))
    for rho0, h, rs, pairing, pair in [*_record_map_cases(), dicke]:
        sector = LindbladGenerator(h, rs, pairing).sector(rho0)
        record_map = RecordMap(sector, rs.n_atoms, pair)
        rows = np.unique(np.divmod(sector.pairs, sector.dim))
        uncovered.append(sector.dim - len(rows))
        U = np.array([_random_block_state(sector, rng) for _ in range(4)])
        expected = [np.linalg.eigvalsh(sector.scatter(u)).min() for u in U]
        assert np.abs(record_map.min_eig(U) - expected).max() < 1e-13
    assert (len(sector.pairs), len(sector.block_swap)) == (12870, 9)
    assert max(b.shape[-1] for b in sector.row_blocks()) == 70
    # one excitation at zero temperature leaves 4 of the 8 rows of rho empty;
    # the thermal cases reach every row
    assert uncovered == [0, 0, 0, 0, 4, 0]
    # the ground state at zero temperature is one pair; its empty rows give the 0
    frame, atoms, rs, h = zero_temp_system(2)
    sector = LindbladGenerator(h, rs).sector(all_ground(2))
    assert len(sector.pairs) == 1
    assert RecordMap(sector, 2, (0, 1)).min_eig(sector.gather(all_ground(2))[None]) == [0.0]
    rho0, h, rs, pairing, pair = _record_map_cases()[2]
    ts = evolve(rho0, h, rs, t_max=1.0, dt=1e-3, record_every=20, retain_states=True,
                concurrence_pair=pair)
    assert ts.column("C_conc").max() > 0.0
    assert np.abs(ts.column("C_conc") - [concurrence(partial_trace(s, pair))
                                          for s in ts.states]).max() < 1e-13
    assert np.abs(ts.column("min_eig") - [np.linalg.eigvalsh(s).min()
                                           for s in ts.states]).max() < 1e-13


def test_integration_error_counts_the_steps_taken():
    # every failure names its state by the steps taken to reach it, the state
    # at time step * dt, whichever check finds it
    frame, atoms, rs, h = resonant_system(2)

    def failure(t_max, dt):
        with pytest.raises(IntegrationError) as err:
            evolve(all_excited(2), h, rs, t_max=t_max, dt=dt, record_every=1000)
        return err.value

    # the hard check every 100 steps, and the final check of a 99-step run
    err = failure(1650.0, 5.5)
    assert err.message.startswith("state eigenvalue") and err.step == 100
    assert failure(99 * 5.5, 5.5).step == 99
    # the 8th step drifts in trace; a 7-step run fails its final check first
    err = failure(1000.0, 10.0)
    assert err.message.startswith("trace drift") and err.step == 8
    assert failure(70.0, 10.0).step == 7


def test_failure_order_matches_per_record_checks(monkeypatch):
    # the record at step 7 fails its hard check; the batch evaluation must not
    # report a later record's invalid reduced state (a DomainError) instead
    frame, atoms, rs, h = resonant_system(2)
    with pytest.raises(IntegrationError) as err:
        evolve(all_excited(2), h, rs, t_max=2000.0, dt=5.0, record_every=7)
    assert type(err.value) is IntegrationError
    assert err.value.message.startswith("state eigenvalue -3.393e-01 below hard floor -1e-06")
    assert err.value.step == 7

    # a non-finite state is reported before any eigenvalue routine sees it
    gather = Sector.gather

    def poisoned(self, rho):
        u = gather(self, rho)
        u[0] = np.nan
        return u

    monkeypatch.setattr(Sector, "gather", poisoned)
    with pytest.raises(IntegrationError) as err:
        evolve(all_excited(2), h, rs, t_max=1.0, dt=1e-2)
    assert err.value.message == "state became non-finite"
    assert err.value.step == 0


def test_snapshots_evaluated_one_at_a_time_match_one_batch(monkeypatch):
    # with _BATCH_ENTRIES = 1 every snapshot is evaluated as soon as it is
    # taken; a record's numbers depend on its batch at the rounding level only
    frame = FrameConfig(a=2.0)
    six = [AtomSpec(omega=1.0, alpha=2.0)] * 6
    wedge_i = [AtomSpec(omega=1.0, alpha=2.0)] * 2
    wedge_ii = [AtomSpec(omega=1.0, alpha=2.0, wedge="II")] * 2
    # fig2's N = 6 sector and the counter wedges, as the benchmark runs them
    cases = [(all_excited(6), build_hamiltonian(six, frame), same_wedge_rates(frame, six),
              0.005, 10, (0, 1)),
             (all_ground(4), None, cross_wedge_rates(frame, wedge_i, wedge_ii), 0.001, 1, (0, 2))]

    def run(rho0, h, rs, dt, record_every, pair):
        return evolve(rho0, h, rs, t_max=2.0, dt=dt, record_every=record_every,
                      concurrence_pair=pair)

    batched = [run(*case) for case in cases]
    monkeypatch.setattr(dynamics, "_BATCH_ENTRIES", 1)
    for case, whole in zip(cases, batched):
        alone = run(*case)
        assert len(alone.times) == (41 if case[4] == 10 else 2001)
        assert np.array_equal(alone.times, whole.times)
        assert np.abs(alone.records - whole.records).max() < 1e-13
    # the failures of the two tests above keep their message and step
    frame, atoms, rs, h = resonant_system(2)
    for t_max, dt, record_every, message, step in (
            (1650.0, 5.5, 1000, "state eigenvalue", 100),
            (1000.0, 10.0, 1000, "trace drift", 8),
            (2000.0, 5.0, 7, "state eigenvalue -3.393e-01 below hard floor -1e-06", 7)):
        with pytest.raises(IntegrationError) as err:
            evolve(all_excited(2), h, rs, t_max=t_max, dt=dt, record_every=record_every)
        assert type(err.value) is IntegrationError
        assert err.value.message.startswith(message) and err.value.step == step
