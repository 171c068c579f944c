import math

import numpy as np
import pytest

from accelatoms import AtomSpec, DomainError, FrameConfig
from accelatoms.kinematics import kinematic_state, thermal_occupation, unruh_beta
from accelatoms.rates import (coupling_weight, cross_wedge_rates, kossakowski_min_eig,
                              same_wedge_rates, thermal_static_rates)

TINY_A = 1e-3  # beta so large that every occupation underflows to exactly 0


def test_coupling_weight():
    frame = FrameConfig(a=1.0)
    assert coupling_weight(frame, AtomSpec(omega=1.0, alpha=1.0)) == 1.0
    assert coupling_weight(frame, AtomSpec(omega=1.0, alpha=2.0)) == pytest.approx(0.5)
    assert coupling_weight(frame, AtomSpec(omega=1.0, alpha=1.0, g=0.0)) == 0.0


def test_single_atom_zero_temperature_limit():
    frame = FrameConfig(a=TINY_A)
    rs = same_wedge_rates(frame, [AtomSpec(omega=1.0, alpha=TINY_A, g=2.0)])
    assert rs.gamma_minus_plus[0, 0] == pytest.approx(frame.gamma0 * 4.0, rel=1e-14)
    assert rs.gamma_plus_minus[0, 0] == 0.0


def test_decoupled_atom_rates_vanish():
    frame = FrameConfig(a=1.0)
    atoms = [AtomSpec(omega=1.0, alpha=1.0), AtomSpec(omega=1.0, alpha=1.0, g=0.0)]
    rs = same_wedge_rates(frame, atoms)
    assert np.all(rs.gamma_minus_plus[1, :] == 0) and np.all(rs.gamma_minus_plus[:, 1] == 0)
    assert np.all(rs.gamma_plus_minus[1, :] == 0) and np.all(rs.gamma_plus_minus[:, 1] == 0)


def test_detuned_pair_is_diagonal():
    frame = FrameConfig(a=1.0, eps_res=1e-6)
    atoms = [AtomSpec(omega=1.0, alpha=1.0), AtomSpec(omega=1.5, alpha=1.0)]
    rs = same_wedge_rates(frame, atoms)
    assert rs.gamma_minus_plus[0, 1] == 0 and rs.gamma_minus_plus[1, 0] == 0
    assert rs.gamma_plus_minus[0, 1] == 0 and rs.gamma_plus_minus[1, 0] == 0


def test_phase_factor_at_half_wavelength_separation():
    # positions overridden so xi_1 - xi_2 = pi at resonant wave number 1
    frame = FrameConfig(a=1.0)
    atoms = [AtomSpec(omega=1.0, alpha=1.0), AtomSpec(omega=1.0, alpha=1.0)]
    rs = same_wedge_rates(frame, atoms, xi=[math.pi, 0.0])
    n = thermal_occupation(unruh_beta(frame), 1.0)
    assert rs.gamma_minus_plus[0, 1] == pytest.approx(-frame.gamma0 * (n + 1), rel=1e-12)


def test_hermiticity_and_detailed_balance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.uniform(0.3, 8.0)
        frame = FrameConfig(a=a)
        n_atoms = rng.integers(2, 5)
        # one resonant cluster with random positions and couplings
        omega = rng.uniform(0.5, 2.0)
        atoms = [AtomSpec(omega=omega, alpha=a, g=rng.uniform(0.2, 2.0))
                 for _ in range(n_atoms)]
        xi = rng.uniform(-2.0, 2.0, size=n_atoms)
        rs = same_wedge_rates(frame, atoms, xi=xi)
        for mat in (rs.gamma_minus_plus, rs.gamma_plus_minus):
            assert np.abs(mat - mat.conj().T).max() < 1e-15 * max(np.abs(mat).max(), 1e-300)
            diag = np.diag(mat)
            assert np.all(diag.imag == 0) and np.all(diag.real >= 0)
        beta = unruh_beta(frame)
        ratio = rs.gamma_plus_minus / rs.gamma_minus_plus
        assert np.abs(ratio - math.exp(-beta * omega)).max() < 1e-12


def test_resonance_collapse_to_independent_atoms():
    frame = FrameConfig(a=1.0)
    atoms = [AtomSpec(omega=w, alpha=1.0) for w in (0.5, 1.0, 1.7, 2.4)]
    rs = same_wedge_rates(frame, atoms)
    off = rs.gamma_minus_plus - np.diag(rs.gamma_minus_plus.diagonal())
    assert np.all(off == 0)


def test_equal_acceleration_matches_static_thermal_atoms():
    # co-accelerating ensembles are the thermal-field ensembles in disguise
    a = 2.0
    frame = FrameConfig(a=a)
    atoms = [AtomSpec(omega=1.0, alpha=a, g=g) for g in (1.0, 0.7, 1.3)]
    xi = [kinematic_state(frame, at).xi for at in atoms]
    rs_acc = same_wedge_rates(frame, atoms)
    rs_th = thermal_static_rates(beta=2 * math.pi / a, omegas=[1.0, 1.0, 1.0],
                                 positions=xi, couplings=[1.0, 0.7, 1.3])
    assert np.abs(rs_acc.gamma_minus_plus - rs_th.gamma_minus_plus).max() < 1e-12
    assert np.abs(rs_acc.gamma_plus_minus - rs_th.gamma_plus_minus).max() < 1e-12


def test_kossakowski_single_atom_eigenvalues():
    frame = FrameConfig(a=2.0)
    atom = AtomSpec(omega=1.0, alpha=4.0, g=1.5)
    rs = same_wedge_rates(frame, [atom])
    s = coupling_weight(frame, atom)
    n = thermal_occupation(unruh_beta(frame), kinematic_state(frame, atom).Omega)
    from accelatoms.rates import kossakowski_matrix
    eigs = np.sort(np.linalg.eigvalsh(kossakowski_matrix(rs)))
    expected = np.sort([frame.gamma0 * s**2 * (n + 1), frame.gamma0 * s**2 * n])
    assert eigs == pytest.approx(expected, rel=1e-12)


def test_kossakowski_nonnegative_for_identical_ensembles():
    frame = FrameConfig(a=2.0)
    rs = same_wedge_rates(frame, [AtomSpec(omega=1.0, alpha=2.0)] * 4)
    assert kossakowski_min_eig(rs) >= -1e-12
    rs0 = same_wedge_rates(frame, [AtomSpec(omega=1.0, alpha=2.0, g=0.0)] * 2)
    assert kossakowski_min_eig(rs0) == 0.0


def test_cross_rates_zero_temperature_and_magnitude():
    # no occupation, no inter-wedge channel
    frame = FrameConfig(a=TINY_A)
    rs = cross_wedge_rates(frame, [AtomSpec(omega=1.0, alpha=TINY_A)],
                           [AtomSpec(omega=1.0, alpha=TINY_A, wedge="II")])
    assert np.all(rs.cross_pp == 0)
    # occupation tuned to exactly 1: prefactor sqrt(n(1+n)) = sqrt(2)
    a = 2 * math.pi / math.log(2.0)
    frame = FrameConfig(a=a)
    rs = cross_wedge_rates(frame, [AtomSpec(omega=1.0, alpha=a)],
                           [AtomSpec(omega=1.0, alpha=a, wedge="II")],
                           xi_I=[0.0], xi_II=[0.0])
    assert rs.cross_pp[0, 0] == pytest.approx(frame.gamma0 * math.sqrt(2.0), rel=1e-12)
    assert np.array_equal(rs.cross_mm, rs.cross_pp.conj())


def test_cross_rates_detuned_pair_vanishes():
    frame = FrameConfig(a=1.0)
    rs = cross_wedge_rates(frame, [AtomSpec(omega=1.0, alpha=1.0)],
                           [AtomSpec(omega=1.5, alpha=1.0, wedge="II")])
    assert np.all(rs.cross_pp == 0)


def test_cross_rates_keep_each_wedge_and_the_anomalous_block():
    # wedge sizes 1+2, 2+1 and 3+2, with conformal positions from the
    # accelerations and overridden; two (omega, alpha) clusters make some
    # inter-wedge pairs resonant and others not
    frame = FrameConfig(a=1.5)
    beta = unruh_beta(frame)
    rng = np.random.default_rng(17)
    clusters = [(1.0, 1.5), (1.3, 2.5)]
    for in_i, in_ii in (((0,), (0, 1)), ((0, 1), (0,)), ((0, 1, 1), (1, 0))):
        n_i, n_ii = len(in_i), len(in_ii)
        atoms = [AtomSpec(omega=clusters[c][0], alpha=clusters[c][1], wedge=wedge,
                          g=float(rng.uniform(0.2, 1.5)))
                 for cs, wedge in ((in_i, "I"), (in_ii, "II")) for c in cs]
        wedge_i, wedge_ii = atoms[:n_i], atoms[n_i:]
        for xi in (None, rng.uniform(-2.0, 2.0, size=n_i + n_ii)):
            xi_i, xi_ii = (None, None) if xi is None else (xi[:n_i], xi[n_i:])
            rs = cross_wedge_rates(frame, wedge_i, wedge_ii, xi_I=xi_i, xi_II=xi_ii)
            assert rs.wedge_partition == (tuple(range(n_i)), tuple(range(n_i, n_i + n_ii)))
            blocks = ((slice(0, n_i), same_wedge_rates(frame, wedge_i, xi=xi_i)),
                      (slice(n_i, None), same_wedge_rates(frame, wedge_ii, xi=xi_ii)))
            for name in ("gamma_minus_plus", "gamma_plus_minus"):
                mat = getattr(rs, name)
                for part, alone in blocks:
                    assert np.array_equal(mat[part, part], getattr(alone, name))
                assert np.all(mat[:n_i, n_i:] == 0) and np.all(mat[n_i:, :n_i] == 0)
            # the cross_wedge_rates docstring, atom by atom
            states = [kinematic_state(frame, at) for at in atoms]
            positions = [st.xi for st in states] if xi is None else xi
            expected = np.zeros((n_i, n_ii), dtype=complex)
            for i in range(n_i):
                k0, n = states[i].Omega, thermal_occupation(beta, states[i].Omega)
                for kap in range(n_ii):
                    other = states[n_i + kap]
                    if abs(k0 - other.Omega) < frame.eps_res:
                        expected[i, kap] = (
                            frame.gamma0 * coupling_weight(frame, atoms[i])
                            * coupling_weight(frame, atoms[n_i + kap]) * math.sqrt(n * (1 + n))
                            * np.exp(1j * k0 * (positions[i] - positions[n_i + kap])))
            assert np.any(expected) and not np.all(expected)
            assert np.all(np.abs(rs.cross_pp - expected) <= 1e-14 * np.abs(expected))


def test_wedge_label_validation():
    frame = FrameConfig(a=1.0)
    mixed = [AtomSpec(omega=1.0, alpha=1.0), AtomSpec(omega=1.0, alpha=1.0, wedge="II")]
    with pytest.raises(DomainError):
        same_wedge_rates(frame, mixed)
    with pytest.raises(DomainError):
        cross_wedge_rates(frame, mixed, [AtomSpec(omega=1.0, alpha=1.0, wedge="II")])
    with pytest.raises(DomainError):
        cross_wedge_rates(frame, [], [AtomSpec(omega=1.0, alpha=1.0, wedge="II")])
