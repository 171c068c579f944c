import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from accelatoms import AtomSpec, DomainError, FrameConfig, IntegrationError, dynamics, liouvillian
from accelatoms.dynamics import (_X_COLS, _X_ROWS, RecordMap, all_excited, all_ground,
                                 coherence_measure, concurrence, correlation_oracle, evolve,
                                 partial_trace, population, populations, product_state,
                                 total_emission_rate)
from accelatoms.kinematics import kinematic_state, unruh_beta
from accelatoms.liouvillian import (LindbladGenerator, Sector, build_hamiltonian,
                                    build_superoperator, check_density_matrix)
from accelatoms.operators import sigma_minus, sigma_plus
from accelatoms.rates import cross_wedge_rates, kossakowski_matrix, same_wedge_rates
from csr_oracle import csr

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
    for record_every in (0, -1, 2.5):
        with pytest.raises(DomainError, match="record_every must be an integer >= 1"):
            evolve(all_excited(1), h, rs, t_max=1.0, record_every=record_every)
    for t_max, dt in ((float("nan"), 1e-3), (float("inf"), 1e-3), (1.0, float("nan"))):
        with pytest.raises(DomainError, match="must be finite"):
            evolve(all_excited(1), h, rs, t_max=t_max, dt=dt)
    with pytest.raises(DomainError, match="not a finite number of steps"):
        evolve(all_excited(1), h, rs, t_max=1.0, dt=1e-320)
    frame, atoms, rs, h = resonant_system(3)
    for pair in ((0, 1, 2), (0,), (1, 1), (0, 3)):
        with pytest.raises(DomainError, match="must be two distinct atom indices < 3"):
            evolve(all_excited(3), h, rs, t_max=1.0, concurrence_pair=pair)


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
    _, L = csr(gen.restrict(pairs))
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
        assert record_map.x_shaped
        for _ in range(3):
            u = _random_block_state(sector, rng)
            rho = sector.scatter(u)
            pops, trace, corr, rho2 = record_map.linear(u[None])
            assert np.abs(pops[0] - populations(rho)).max() < 1e-13
            assert abs(trace[0] - rho.trace()) < 1e-13
            assert abs(2.0 * np.abs(corr[0]).sum() - coherence_measure(rho)) < 1e-13
            expected = [np.einsum("ij,ji->", sigma_plus(j, n) @ sigma_minus(l, n), rho)
                        for j in range(n) for l in range(j + 1, n)]
            assert np.abs(corr[0] - expected).max() < 1e-13
            # an X-shaped map gives the 8 entries on the diagonal and the
            # anti-diagonal, and the oracle's other 8 are zero
            expected = partial_trace(rho, pair)
            assert np.abs(rho2[0] - expected[_X_ROWS, _X_COLS]).max() < 1e-13
            off_x = np.ones((4, 4), dtype=bool)
            off_x[_X_ROWS, _X_COLS] = False
            assert not expected[off_x].any()
            r_tot = -(sector.emission @ u).real
            assert abs(r_tot - total_emission_rate(rho, h, rs, pairing)) < 1e-13
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


def test_min_eig_takes_the_row_quotient(monkeypatch):
    # fig2's N = 6 Dicke sector: every row block is constant, so each is one
    # 1 x 1 quotient, read without LAPACK, and exact zeros; an unlumped sector
    # (fig4 case_b, six distinct atoms) keeps the stacked eigvalsh of its row
    # blocks, bit for bit
    rng = np.random.default_rng(43)
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        seen.append(a.shape[-2:])
        return eigvalsh(a)

    dicke, unlumped = _record_map_cases()[:2]
    for (rho0, h, rs, pairing, pair), lumped in ((dicke, True), (unlumped, False)):
        sector = LindbladGenerator(h, rs, pairing).sector(rho0)
        record_map = RecordMap(sector, rs.n_atoms, pair)
        U = np.array([_random_block_state(sector, rng) for _ in range(4)])
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvalsh", spy)
            low = record_map.min_eig(U)
        if lumped:
            assert not seen
        else:
            U0 = np.concatenate([U, np.zeros((len(U), 1))], axis=1)
            expected = np.min([eigvalsh(U0[:, idx]).min(axis=(1, 2))
                               for idx in sector.row_blocks()], axis=0)
            assert np.array_equal(low, expected)


def _random_x_state(rng):
    # a positive X state: a positive 2 x 2 block on {00, 11} and one on {01, 10},
    # with a tenth of the identity, so that no eigenvalue of rho * rho_tilde
    # is near 0, where its square root would magnify LAPACK's rounding
    rho = np.zeros((4, 4), dtype=complex)
    for idx in ([0, 3], [1, 2]):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho[np.ix_(idx, idx)] = g @ g.conj().T
    return 0.9 * rho / rho.trace().real + 0.025 * np.eye(4)


def _first_check(checks):
    # (first failing state, its first failing check), or None
    bad = np.array([mask for mask, _ in checks])
    if not bad.any():
        return None
    i = int(bad.any(axis=0).argmax())
    k = int(bad[:, i].argmax())
    return i, k, checks[k][1](i)


def test_x_kernel_matches_the_generic_kernel():
    # batches of X states, each with one broken state at a random place: the
    # closed forms pick the generic kernel's first failing state and check,
    # with its message, and its concurrences, without a warning
    rng = np.random.default_rng(53)

    def non_hermitian(rho):
        rho[1, 2] += 1e-3j
        return rho

    def negative(rho):
        rho[0, 0] -= 0.5  # the trace stays 1
        rho[3, 3] += 0.5
        return rho

    def non_finite(rho):
        rho[0, 3] = np.nan
        return rho

    def huge(rho):
        rho[0, 3] = rho[3, 0] = 1e200  # rho * rho_tilde overflows in either kernel
        return rho

    breaks = [None, non_hermitian, lambda rho: 1.5 * rho, negative, non_finite, huge,
              lambda rho: rho + np.diag([0.0, 0.0, 0.0, 1e200])]
    seen = set()
    for broken in breaks:
        for _ in range(5):
            states = np.array([_random_x_state(rng) for _ in range(12)])
            if broken is not None:
                states[rng.integers(12)] = broken(states[rng.integers(12)].copy())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                x_conc, x_checks = dynamics._x_concurrence_core(states[:, _X_ROWS, _X_COLS])
                conc, checks = dynamics._concurrence_core(states)
            failure = _first_check(checks)
            assert _first_check(x_checks) == failure
            # a failing state's concurrence is never recorded
            valid = ~np.array([mask for mask, _ in checks]).any(axis=0)
            assert valid.sum() >= 11
            assert np.abs(x_conc - conc)[valid].max() < 1e-14
            seen.add(failure and failure[1])
    # every check of the density matrix fails on some batch
    assert seen == {None, 0, 1, 2, 3}
    # the closed forms agree with the generic kernel over the whole range of concurrence
    states = np.array([_random_x_state(rng) for _ in range(400)])
    conc = dynamics._concurrence_core(states)[0]
    assert conc.max() > 0.5 and (conc == 0).any()
    assert np.abs(dynamics._x_concurrence_core(states[:, _X_ROWS, _X_COLS])[0]
                  - conc).max() < 1e-14
    # pure X states a|00> + d|11> and b|01> + c|10>, of concurrence 2|ad| and
    # 2|bc|: the smaller root of each block comes without cancellation, where
    # LAPACK's rounding, magnified by the square roots, loses half the digits
    amp = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
    amp /= np.linalg.norm(amp, axis=1)[:, None]
    psi = np.zeros((200, 4), dtype=complex)
    psi[:100, 0], psi[:100, 3] = amp[:100].T
    psi[100:, 1], psi[100:, 2] = amp[100:].T
    pure = psi[:, :, None] * psi[:, None, :].conj()
    exact = 2.0 * np.abs(amp[:, 0] * amp[:, 1])
    assert np.abs(dynamics._x_concurrence_core(pure[:, _X_ROWS, _X_COLS])[0]
                  - exact).max() < 1e-14
    assert np.abs(dynamics._concurrence_core(pure)[0] - exact).max() > 1e-10


def test_x_shaped_sectors_use_the_closed_forms(monkeypatch):
    # every run path starts from a basis product state, so its reduced pair
    # states are X states: the counter wedges record every step without eigvals
    for rho0, h, rs, pairing, pair in _record_map_cases():
        sector = LindbladGenerator(h, rs, pairing).sector(rho0)
        assert RecordMap(sector, rs.n_atoms, pair).x_shaped
    rho0, h, rs, pairing, pair = _record_map_cases()[2]
    calls = []
    eigvals = np.linalg.eigvals

    def spy(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    ts = evolve(rho0, h, rs, t_max=0.2, dt=1e-3, record_every=1, retain_states=True,
                concurrence_pair=pair)
    assert not calls
    assert ts.column("C_conc").max() > 0.0
    assert np.abs(ts.column("C_conc") - [concurrence(partial_trace(s, pair))
                                          for s in ts.states]).max() < 1e-13
    # a superposition of excitation numbers has a pair state off the X shape,
    # which the generic kernel evaluates: here a maximally entangled one whose
    # X part alone has concurrence 0
    frame, atoms, rs, h = resonant_system(3)
    psi = np.zeros(8, dtype=complex)
    psi[:4] = [0.5, 0.5, -0.5, 0.5]  # atoms 0 and 1, atom 2 in its ground state
    rho0 = np.outer(psi, psi.conj())
    assert not RecordMap(LindbladGenerator(h, rs).sector(rho0), 3, (0, 1)).x_shaped
    calls.clear()
    ts = evolve(rho0, h, rs, t_max=1.0, dt=1e-3, record_every=50, retain_states=True)
    assert calls
    assert ts.column("C_conc")[0] == pytest.approx(1.0, abs=1e-13)
    assert np.abs(ts.column("C_conc") - [concurrence(partial_trace(s, (0, 1)))
                                          for s in ts.states]).max() < 1e-13


def _per_step_states(sector, u, dt, nsteps, record_every):
    # the RK4 step in Horner form, one step at a time, each state Hermitized
    # and renormalized; the states at the records
    states = []
    for step in range(nsteps + 1):
        if step % record_every == 0 or step == nsteps:
            states.append(sector.scatter(u))
        w = u
        for c in (dt / 4.0, dt / 3.0, dt / 2.0, dt):
            w = u + c * (sector.L_hat @ w)
        u = (w + w[sector.block_swap].conj()) * (0.5 / (sector.diag_count @ w).real)
    return states


def test_event_intervals_match_per_step_rk4(monkeypatch):
    # u is advanced from event to event (the records, the checks every 100
    # steps, the last step): every 7 steps gives the distances 7, 2, 5 and 1,
    # every 1000 steps the distance 100. A dense sector takes one product with
    # P^k, a CSR one (every sector, with _DENSE_BLOCKS = 0) k steps; both give
    # the per-step states and the same records
    nsteps, dense_limit = 400, liouvillian._DENSE_BLOCKS
    for rho0, h, rs, t_max, dt, _, pair in _snapshot_cases()[:2]:
        for record_every in (7, 1000):
            runs = []
            for dense_blocks in (dense_limit, 0):
                monkeypatch.setattr(liouvillian, "_DENSE_BLOCKS", dense_blocks)
                sector = LindbladGenerator(h, rs).sector(rho0)
                assert isinstance(sector.L_hat, np.ndarray) == (dense_blocks > 0)
                ts = evolve(rho0, h, rs, t_max=nsteps * dt, dt=dt, record_every=record_every,
                            retain_states=True, concurrence_pair=pair)
                expected = _per_step_states(sector, sector.gather(rho0), dt, nsteps,
                                            record_every)
                assert len(ts.states) == len(expected) == -(-nsteps // record_every) + 1
                assert max(np.abs(s - e).max() for s, e in zip(ts.states, expected)) < 1e-12
                assert ts.max_trace_drift < 1e-12
                runs.append(ts)
            dense, csr_run = runs
            assert np.array_equal(dense.times, csr_run.times)
            assert np.abs(dense.records - csr_run.records).max() < 1e-12


def _leaky(monkeypatch, eps):
    # every sector with eps subtracted from the diagonal of L_hat: the trace
    # decays by about eps * dt per step, so a snapshot's own trace differs
    # from the check's by up to 100 eps dt, where a trace-preserving L_hat
    # differs only by rounding
    build = LindbladGenerator.sector

    def sector(self, rho):
        real = build(self, rho)
        k = len(real.block_swap)
        eye = np.eye(k) if isinstance(real.L_hat, np.ndarray) else sp.eye_array(k, format="csr")
        return dataclasses.replace(real, L_hat=real.L_hat - eps * eye)

    monkeypatch.setattr(LindbladGenerator, "sector", sector)


def _oracle_records(sector, states, pair):
    # evolve's columns from the full states, by the oracle functions
    rows = []
    for rho in states:
        p = populations(rho)
        rows.append([*p, p.sum(), -(sector.emission @ sector.gather(rho)).real,
                     coherence_measure(rho), concurrence(partial_trace(rho, pair)),
                     abs(rho.trace() - 1.0), np.linalg.eigvalsh(rho).min()])
    return np.array(rows)


def test_check_intervals_match_per_step_rk4(monkeypatch):
    # the checks (every 100 steps and the last of 257) are the only events;
    # each record inside a check interval is Hermitized and renormalized by
    # its own trace. On a dense sector and a CSR one (_DENSE_BLOCKS = 0),
    # every record_every gives the times and, within 1e-12, the records of
    # one RK4 step at a time, Hermitized and renormalized after each step;
    # also where L_hat leaks trace, so that a snapshot's own trace matters
    nsteps, dense_limit = 257, liouvillian._DENSE_BLOCKS
    for rho0, h, rs, _, dt, _, pair in _snapshot_cases()[:2]:
        for eps in (0.0, 1e-11 / dt):
            with monkeypatch.context() as m:
                if eps:
                    _leaky(m, eps)
                sector = LindbladGenerator(h, rs).sector(rho0)
                states = _per_step_states(sector, sector.gather(rho0), dt, nsteps, 1)
                expected = _oracle_records(sector, states, pair)
                for dense_blocks in (dense_limit, 0):
                    m.setattr(liouvillian, "_DENSE_BLOCKS", dense_blocks)
                    assert isinstance(LindbladGenerator(h, rs).sector(rho0).L_hat,
                                      np.ndarray) == (dense_blocks > 0)
                    for record_every in (1, 3, 7, 10, 100, 150, 1000):
                        ts = evolve(rho0, h, rs, t_max=nsteps * dt, dt=dt,
                                    record_every=record_every, concurrence_pair=pair)
                        steps = [*range(0, nsteps, record_every), nsteps]
                        assert np.array_equal(ts.times, np.array(steps) * dt)
                        assert np.abs(ts.records - expected[steps]).max() < 1e-12
                        assert ts.max_trace_drift < (2e-9 if eps else 1e-12)


def test_a_record_before_a_trace_drift_in_its_check_interval_fails_first(monkeypatch):
    # a leak of 1.5e-8 per step drifts the trace beyond 1e-6 at step 67 of
    # the first check interval; with the population floor just above P_1 at
    # step 30, the record there fails first, with its message and step, on a
    # dense sector and a CSR one
    frame, atoms, rs, h = zero_temp_system(2)
    dt = 0.01
    P_1 = evolve(all_excited(2), h, rs, t_max=1.0, dt=dt).column("P_1")
    _leaky(monkeypatch, 1.5e-8 / dt)
    for dense_blocks in (liouvillian._DENSE_BLOCKS, 0):
        monkeypatch.setattr(liouvillian, "_DENSE_BLOCKS", dense_blocks)
        with monkeypatch.context() as m:
            with pytest.raises(IntegrationError) as err:
                evolve(all_excited(2), h, rs, t_max=1.0, dt=dt)
            assert err.value.message == "trace drift 1.005e-06 beyond hard tolerance 1e-06"
            assert err.value.step == 67
            m.setattr(dynamics, "_POP_FLOOR", P_1[3] + 1e-12)
            with pytest.raises(IntegrationError) as err:
                evolve(all_excited(2), h, rs, t_max=1.0, dt=dt)
            assert err.value.message.startswith("population of atom 0 is ")
            assert err.value.step == 30


def test_evolve_rejects_an_invalid_rho0_with_its_message():
    frame, atoms, rs, h = resonant_system(2)
    bad = all_excited(2)
    bad[0, 3] = 0.1
    with pytest.raises(DomainError, match=re.escape(
            "density matrix not Hermitian (max deviation 1.000e-01)")):
        evolve(bad, h, rs, t_max=1.0)
    # mixed and symmetric under the exchange of the two atoms, whose orbits
    # lump |01><10| with |10><01| and |01><01| with |10><10|: the eigenvalue
    # 0.5 - 0.7 of the one-excitation rows lies inside one lumped block
    mixed = np.zeros((4, 4), dtype=complex)
    mixed[1, 1] = mixed[2, 2] = 0.5
    mixed[1, 2] = mixed[2, 1] = 0.7
    sector = LindbladGenerator(h, rs).sector(mixed)
    labels = dict(zip(sector.pairs.tolist(), sector.labels.tolist()))
    assert labels[1 * 4 + 2] == labels[2 * 4 + 1] and labels[1 * 4 + 1] == labels[2 * 4 + 2]
    with pytest.raises(DomainError, match=re.escape(
            "density matrix has eigenvalue -2.000e-01 below -1e-09")):
        evolve(mixed, h, rs, t_max=1.0)


def test_evolve_checks_rho0_on_its_sector(monkeypatch):
    # every invalid rho0 gets check_density_matrix's message, whichever of
    # its checks fails first, though evolve checks only the shape and the
    # finiteness on the full matrix
    frame, atoms, rs, h = resonant_system(2)
    nan = all_excited(2)
    nan[1, 2] = np.nan
    off_trace = np.diag([0.6, 0.0, 0.0, 0.6])
    negative = np.diag([1.5, -0.5, 0.0, 0.0])
    non_hermitian = all_excited(2)
    non_hermitian[0, 3] = 0.1
    mixed = np.zeros((4, 4))
    mixed[1, 1] = mixed[2, 2] = 0.5
    mixed[1, 2] = mixed[2, 1] = 0.7
    for rho in (np.zeros((4, 3)), np.zeros(4), nan, np.zeros((4, 4)), off_trace, negative,
                non_hermitian, mixed):
        with pytest.raises(DomainError) as expected:
            check_density_matrix(rho)
        with pytest.raises(DomainError) as err:
            evolve(rho, h, rs, t_max=1.0)
        assert str(err.value) == str(expected.value)
    # N = 10 atoms from the all-excited state: no eigvalsh is larger than the
    # largest row quotient of the sector (1 x 1 on the Dicke ladder), where
    # the full check took one of 1024 x 1024
    frame, atoms, rs, h = resonant_system(10)
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    ts = evolve(all_excited(10), h, rs, t_max=0.05, dt=0.005)
    assert ts.column("P_tot")[0] == 10.0
    largest = max(q.shape[-1] for q, _, _ in dynamics._record_maps.value.quotients)
    assert all(shape[-1] <= largest for shape in shapes)
    assert largest == 1 and not shapes


def test_integration_error_counts_the_steps_taken(monkeypatch):
    # every failure names its state by the steps taken to reach it, the state
    # at time step * dt, whichever check finds it; a CSR sector (every sector,
    # with _DENSE_BLOCKS = 0) fails at the same step with the same message
    frame, atoms, rs, h = resonant_system(2)

    def failure(t_max, dt):
        with pytest.raises(IntegrationError) as err:
            evolve(all_excited(2), h, rs, t_max=t_max, dt=dt, record_every=1000)
        with monkeypatch.context() as m:
            m.setattr(liouvillian, "_DENSE_BLOCKS", 0)
            with pytest.raises(IntegrationError) as csr_err:
                evolve(all_excited(2), h, rs, t_max=t_max, dt=dt, record_every=1000)
        assert (csr_err.value.step, csr_err.value.message) == (err.value.step, err.value.message)
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
    # report a later record's invalid reduced state, with its message and step, instead
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


def _snapshot_cases():
    # fig2's N = 6 sector and the counter wedges, as the benchmark runs them,
    # and a 200-block sector, whose generator and functionals are CSR
    frame = FrameConfig(a=2.0)
    six = [AtomSpec(omega=1.0, alpha=2.0)] * 6
    wedge_i = [AtomSpec(omega=1.0, alpha=2.0)] * 2
    wedge_ii = [AtomSpec(omega=1.0, alpha=2.0, wedge="II")] * 2
    seven = ([AtomSpec(omega=1.0, alpha=2.0)] * 3 + [AtomSpec(omega=1.0, alpha=2.6)] * 2
             + [AtomSpec(omega=1.0, alpha=3.1)] * 2)
    return [(all_excited(6), build_hamiltonian(six, frame), same_wedge_rates(frame, six),
             2.0, 0.005, 10, (0, 1)),
            (all_ground(4), None, cross_wedge_rates(frame, wedge_i, wedge_ii),
             2.0, 0.001, 1, (0, 2)),
            (product_state("egegege"), build_hamiltonian(seven, frame),
             same_wedge_rates(frame, seven), 0.5, 0.005, 5, (0, 3))]


def _run_case(rho0, h, rs, t_max, dt, record_every, pair):
    return evolve(rho0, h, rs, t_max=t_max, dt=dt, record_every=record_every,
                  concurrence_pair=pair)


def test_each_state_is_snapshotted_once(monkeypatch):
    # a step that is both a record and a check (every 100 steps, and the
    # last) reaches RecordMap.min_eig once: 41 rows, not 45, for fig2's
    # N = 6 run, and 2001, not 2021, for the counter wedges recorded every step
    rows = []
    min_eig = RecordMap.min_eig

    def counted(self, U):
        rows.append(len(U))
        return min_eig(self, U)

    monkeypatch.setattr(RecordMap, "min_eig", counted)
    for case, expected in zip(_snapshot_cases(), (41, 2001)):
        rows.clear()
        assert len(_run_case(*case).times) == expected
        assert sum(rows) == expected


def test_snapshots_evaluated_one_at_a_time_match_one_batch(monkeypatch):
    # with _BATCH_ENTRIES = 1 every snapshot is evaluated as soon as it is
    # taken; each record is evaluated on its own, so its numbers do not
    # depend on its batch, on a dense sector or a CSR one
    cases = _snapshot_cases()
    batched = [_run_case(*case) for case in cases]
    monkeypatch.setattr(dynamics, "_BATCH_ENTRIES", 1)
    for case, whole, expected in zip(cases, batched, (41, 2001, 21)):
        alone = _run_case(*case)
        assert len(alone.times) == expected
        assert np.array_equal(alone.times, whole.times)
        assert np.array_equal(alone.records, whole.records)
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


def test_a_sweep_builds_one_record_map(monkeypatch):
    # fig2's five sweep points share one sector structure (pairs and labels),
    # so the record map is built once; R_tot comes from each run's own
    # emission row, bit for bit its per-row product with each state
    dynamics._record_maps.clear()
    built = []
    init = RecordMap.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    sweeps = []
    with monkeypatch.context() as m:
        m.setattr(RecordMap, "__init__", counted)
        for alpha in (2.0, 4.0, 6.0, 8.0, 10.0):
            frame, atoms, rs, h = resonant_system(6, a=alpha)
            ts = evolve(all_excited(6), h, rs, t_max=0.5, dt=0.005, record_every=10,
                        retain_states=True)
            sweeps.append((h, rs, ts))
    assert len(built) == 1
    emissions = []
    for h, rs, ts in sweeps:
        sector = LindbladGenerator(h, rs).sector(all_excited(6))
        emissions.append(sector.emission)
        U = np.array([sector.gather(state) for state in ts.states])
        r_tot = -np.matmul(U[:, None, :], sector.emission[:, None])[:, 0, 0].real
        assert np.array_equal(ts.column("R_tot"), r_tot)
    assert len({e.tobytes() for e in emissions}) == 5


def test_an_earlier_failure_is_raised_before_a_later_drift(monkeypatch):
    # the snapshots are evaluated per batch, so the run goes on past a failing
    # snapshot; a trace drift later on evaluates the snapshots before it
    # first, and the earlier failure is raised at its own step, dense or CSR
    frame, atoms, rs, h = resonant_system(2)

    def failure(record_every, **patched):
        with monkeypatch.context() as m:
            for name, value in patched.items():
                m.setattr(dynamics, name, value)
            with pytest.raises(IntegrationError) as err:
                evolve(all_excited(2), h, rs, t_max=5.5 * 3000, dt=5.5,
                       record_every=record_every)
        return err.value.step, err.value.message

    for dense_blocks in (liouvillian._DENSE_BLOCKS, 0):
        monkeypatch.setattr(liouvillian, "_DENSE_BLOCKS", dense_blocks)
        for record_every, patched, step, message in (
                (1000, {}, 100, "state eigenvalue -2.068e+06 below hard floor"),
                (7, {"_EIG_HARD": -np.inf}, 7, "population of atom 0 is -1.964e+00")):
            # with every evaluated check passing, the run fails by trace drift
            drift_step, drift = failure(record_every, _first_failure=lambda checks: None,
                                        **patched)
            assert drift.startswith("trace drift") and drift_step > step
            got_step, got = failure(record_every, **patched)
            assert got.startswith(message) and got_step == step


def test_step_bound_dominates_every_sector_generator():
    # check_step bounds ||L_hat||_inf by 2 max|h| + 4 sum_ab |K_ab| before any
    # sector is built; the bound must hold for L on all pairs and on the
    # lumped sectors of product states, both pairings
    rng = np.random.default_rng(11)
    for trial in range(24):
        n = 1 + trial % 4
        a = float(rng.uniform(0.3, 10.0))
        frame = FrameConfig(a=a, gamma0=float(rng.uniform(0.01, 3.0)))
        atoms = [AtomSpec(omega=float(rng.uniform(0.5, 2.0)),
                          alpha=float(rng.choice([a, rng.uniform(0.5 * a, 3.0 * a)])),
                          g=float(rng.uniform(0.2, 1.5))) for _ in range(n)]
        if n >= 2 and trial % 3 == 0:
            wedge_ii = [AtomSpec(omega=at.omega, alpha=at.alpha, wedge="II", g=at.g)
                        for at in atoms[n // 2:]]
            rates, h = cross_wedge_rates(frame, atoms[:n // 2], wedge_ii), None
        else:
            rates, h = same_wedge_rates(frame, atoms), build_hamiltonian(atoms, frame)
        for pairing in ("anomalous", "literal"):
            gen = LindbladGenerator(h, rates, pairing)
            bound = (2.0 * (0.0 if h is None else np.abs(h).max())
                     + 4.0 * np.abs(kossakowski_matrix(rates, pairing)).sum())
            _, L = csr(gen.restrict(np.arange(gen.dim**2)))
            norms = [abs(L).sum(axis=1).max()]
            for pattern in ("e" * n, "g" * n, "".join(rng.choice(["e", "g"], size=n))):
                norms.append(abs(gen.sector(product_state(pattern)).L_hat).sum(axis=1).max())
            assert max(norms) <= bound * (1 + 1e-12)
            with pytest.raises(DomainError) as err:  # the bound check_step steps with
                dynamics.check_step(h, rates, 1e300, pairing)
            reported = re.search(r"row sums up to (\S+) may", str(err.value)).group(1)
            assert float(reported) == pytest.approx(bound, rel=1e-3)


def test_evolve_refuses_an_overflowing_step_before_building_the_sector(monkeypatch):
    frame, atoms, rs, h = resonant_system(2)

    def no_sector(self, rho):
        raise AssertionError("the sector was built")

    monkeypatch.setattr(LindbladGenerator, "sector", no_sector)
    with pytest.raises(DomainError, match="it would overflow"):
        evolve(all_excited(2), h, rs, t_max=1e300, dt=1e298)
    with pytest.raises(DomainError, match="it would overflow"):
        dynamics.check_step(h, rs, 1e298)
    dynamics.check_step(h, rs, 1e-3)


def test_record_failures_name_their_step(monkeypatch):
    # a reduced pair state below concurrence's -1e-9 floor, while the full
    # state passes the -1e-6 hard floor, is an integration failure at its step
    frame = FrameConfig(a=0.5, gamma0=3.0)
    alphas = (0.5, 0.866, 1.232)
    atoms = [AtomSpec(omega=alpha / 0.5, alpha=alpha) for alpha in alphas]
    rs, h = same_wedge_rates(frame, atoms), build_hamiltonian(atoms, frame)
    with pytest.raises(IntegrationError) as err:
        evolve(all_ground(3), h, rs, t_max=20.0, dt=0.2, record_every=1)
    assert type(err.value) is IntegrationError and err.value.step == 1
    assert err.value.message == ("reduced pair state: density matrix has eigenvalue "
                                 "-2.649e-08 below -1e-09")
    # a population below the floor: the first record with one below 0.5
    frame, atoms, rs, h = zero_temp_system(2)
    ts = evolve(all_excited(2), h, rs, t_max=20.0, dt=0.01, record_every=50)
    first = int(np.argmax(ts.column("P_1") < 0.5))
    monkeypatch.setattr(dynamics, "_POP_FLOOR", 0.5)
    with pytest.raises(IntegrationError) as err:
        evolve(all_excited(2), h, rs, t_max=20.0, dt=0.01, record_every=50)
    assert err.value.message.startswith("population of atom 0 is ")
    assert err.value.step == round(ts.times[first] / 0.01)
