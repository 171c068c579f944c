import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from accelatoms import ConfigError, DivergenceError, DomainError, NoRootError

from accelatoms.bec import (GRID_RESOLUTION_MAX, BogoliubovBath, TweezerSpec,
                            bogoliubov_mode, bound_state_count, bound_state_counts,
                            bound_state_grid, coupling_tensor, map_to_detector_model,
                            resonant_wavenumber, transition_energy, two_level_window,
                            variational_width, variational_widths, _BLOCK_FLOATS,
                            _negative_pivots, _width_residual)
from accelatoms.cli import _preset_text
from accelatoms.config import expand_design, parse_config
from accelatoms.kinematics import unruh_beta
from accelatoms.rates import same_wedge_rates

BATH = BogoliubovBath(m=1.0, mu=1.0, n0=50.0, L=100.0, u0=0.02, T=0.5)
MIDWINDOW = TweezerSpec(V0=math.pi / 2, w=1.05, M=2.0, g=0.0036)

# regression values frozen from the first verified build (bisection oracle)
MIDWINDOW_A0 = 1.0709601333347574
MIDWINDOW_OMEGA = 0.47646592191017745


def test_bogoliubov_mode_at_eps_equal_two_mu():
    mode = bogoliubov_mode(BATH, 2.0)  # eps_k = 2 mu
    assert mode.E == pytest.approx(2 * math.sqrt(2), rel=1e-14)
    assert mode.u**2 == pytest.approx(3 / (4 * math.sqrt(2)) + 0.5, rel=1e-12)
    assert mode.v**2 == pytest.approx(3 / (4 * math.sqrt(2)) - 0.5, rel=1e-12)


def test_bogoliubov_normalization_across_six_decades():
    for k in np.geomspace(1e-3, 1e3, 200):
        mode = bogoliubov_mode(BATH, k)
        assert mode.u**2 - mode.v**2 == pytest.approx(1.0, rel=1e-12)
        assert 0.0 < mode.S <= 1.0


def test_bogoliubov_limits():
    # long wavelengths: linear dispersion with slope sqrt(mu/m)
    slope = math.sqrt(BATH.mu / BATH.m)
    for k in np.geomspace(1e-3, math.sqrt(2 * BATH.m * BATH.mu / 50.0), 30):
        mode = bogoliubov_mode(BATH, k)
        assert abs(mode.E / k - slope) / slope < 0.01
    # free particles at short wavelengths
    mode = bogoliubov_mode(BATH, 1e3)
    assert mode.u == pytest.approx(1.0, rel=1e-5)
    assert mode.v == pytest.approx(0.0, abs=1e-3)
    assert mode.S == pytest.approx(1.0, rel=1e-3)
    es = [bogoliubov_mode(BATH, k).E for k in np.linspace(0.05, 20.0, 60)]
    assert all(b > a for a, b in zip(es, es[1:]))
    # k = 0, k^2/(2m) underflowing to a subnormal or to 0, and E overflowing
    for k in (0.0, 1e-160, 1e-170, 1e-200, 1e100):
        with pytest.raises(DivergenceError):
            bogoliubov_mode(BATH, k)


def test_bogoliubov_coefficients_far_from_the_healing_scale():
    # S is not formed as u - v: for eps << mu, S = (eps/(2 mu))^(1/4) =
    # sqrt(k/2) at m = mu = 1, while u and v agree to far below rounding
    mode = bogoliubov_mode(BATH, 1e-100)
    assert mode.S == pytest.approx(math.sqrt(1e-100 / 2.0), rel=1e-15)
    # for eps >> mu, v = mu/(2E) stays positive and u^2 - v^2 = 1
    mode = bogoliubov_mode(BATH, 1e10)
    assert mode.u**2 - mode.v**2 == pytest.approx(1.0, rel=1e-15)
    assert mode.v == pytest.approx(1.0 / (2.0 * mode.E), rel=1e-15)


def test_mu_mismatch_diagnostic():
    assert BATH.mu_mismatch() == 0.0
    assert BogoliubovBath(m=1, mu=1, n0=50, L=100, u0=0.03, T=0.5).mu_mismatch() \
        == pytest.approx(0.5)


def test_bound_state_count_closed_form():
    # V0*M/(pi*w) = 4 -> floor(2*sqrt(4) - 1/2) = 3
    n_closed, n_numeric = bound_state_count(TweezerSpec(V0=4 * math.pi, w=1.0, M=1.0))
    assert n_closed == 3
    assert n_numeric >= 1


def test_bound_state_count_shallow_well_binds():
    # a 1-D well always holds at least one bound state; the closed form may not
    n_closed, n_numeric = bound_state_count(TweezerSpec(V0=0.05, w=1.0, M=1.0),
                                           grid_points=4001)
    assert n_numeric >= 1


def test_bound_state_count_monotone_in_depth():
    counts = bound_state_counts([1.0, 2.0, 4.0, 8.0, 16.0], 1.0, 1.0)[1]
    assert np.all(np.diff(counts) >= 0)


def _reference_count(V0, w, M, grid_points=1501):
    """Reference count: LAPACK bisection for the eigenvalues of the
    finite-difference tridiagonal in (-2 V0, 0], those below 0 counted."""
    kappa = M * V0 * w * math.sqrt(math.pi)
    half_width = min(max(15.0 * w, 10.0 / kappa), 2000.0 * w)
    x, h = np.linspace(-half_width, half_width, grid_points, retstep=True)
    kin = 1.0 / (2.0 * M * h * h)
    evals = eigvalsh_tridiagonal(-V0 * np.exp(-(x / w) ** 2) + 2.0 * kin,
                                 np.full(grid_points - 1, -kin), select="v",
                                 select_range=(-2.0 * V0, 0.0))
    return int(np.sum(evals < 0.0))


def test_bound_state_counts_match_eigenvalue_oracle_on_preset_grid():
    depths, waists = np.meshgrid(np.linspace(0.5, 8.0, 20), np.linspace(0.4, 2.4, 20),
                                 indexing="ij")
    n_closed, n_numeric = bound_state_counts(depths, waists, 2.0)
    assert n_closed.shape == n_numeric.shape == (20, 20)
    cells = list(zip(depths.ravel(), waists.ravel()))
    assert n_numeric.ravel().tolist() == [_reference_count(v, w, 2.0) for v, w in cells]
    # the one-cell call counts the same; a sample, since each call runs the
    # whole recurrence
    for (v, w), n in list(zip(cells, n_numeric.ravel()))[::23]:
        assert bound_state_count(TweezerSpec(V0=v, w=w, M=2.0))[1] == n
    assert n_numeric.min() == 1 and n_numeric.max() == 11
    closed = np.floor(2.0 * np.sqrt(depths * 2.0 / (math.pi * waists)) - 0.5)
    assert np.array_equal(n_closed, closed)


def test_bound_state_counts_match_eigenvalue_oracle_on_random_cells():
    rng = np.random.default_rng(2024)
    V0 = rng.uniform(0.05, 20.0, 200)
    w = rng.uniform(0.05, 5.0, 200)
    M = rng.choice([0.5, 1.0, 2.0, 5.0], 200)
    _, n_numeric = bound_state_counts(V0, w, M)
    reference = [_reference_count(*cell) for cell in zip(V0, w, M)]
    assert n_numeric.tolist() == reference
    assert max(reference) > 20
    # a coarser grid is counted by the same recurrence
    _, coarse = bound_state_counts(V0[:20], w[:20], M[:20], grid_points=301)
    assert coarse.tolist() == [_reference_count(*cell, grid_points=301)
                               for cell in zip(V0[:20], w[:20], M[:20])]


def test_bound_state_grid_refuses_cells_it_cannot_resolve():
    # the preset's design grid resolves every well; a deeper or wider well
    # whose grid spacing exceeds GRID_RESOLUTION_MAX of its shortest half
    # wavelength pi / sqrt(2 M V0) is refused, and the count on that grid is
    # still there for the library (it differs from a finer grid's)
    depths, waists = np.meshgrid(np.linspace(0.5, 8.0, 20), np.linspace(0.4, 2.4, 20))
    V0, w, _, _, h, _ = bound_state_grid(depths, waists, 2.0)
    assert (h * np.sqrt(4.0 * V0) / math.pi).max() < 0.1 < GRID_RESOLUTION_MAX
    for V0, w in ((1e3, 1.0), (1e30, 2.4), (100.0, 2.4)):
        with pytest.raises(DomainError, match="too coarse"):
            bound_state_grid(V0, w, 2.0)
    coarse, fine = (bound_state_counts(1e4, 1.0, 2.0, points)[1] for points in (1501, 6001))
    assert coarse != fine
    bound_state_grid(1e3, 1.0, 2.0, grid_points=6001)  # 0.40 on 1501 points, 0.10 here


def test_bound_state_counts_cross_block_boundaries():
    # the diagonals come a block of about _BLOCK_FLOATS values at a time; the
    # recurrence carries its pivot from block to block
    rng = np.random.default_rng(99)
    V0 = rng.uniform(0.05, 20.0, 100)
    w = rng.uniform(0.05, 5.0, 100)
    M = rng.choice([0.5, 1.0, 2.0, 5.0], 100)
    # more cells than one block holds: one grid index per block
    repeats = _BLOCK_FLOATS // V0.size + 1
    _, n_numeric = bound_state_counts(*(np.tile(a, repeats) for a in (V0, w, M)))
    assert n_numeric.size > _BLOCK_FLOATS
    assert n_numeric.tolist() == [_reference_count(*cell) for cell in zip(V0, w, M)] * repeats
    # several indices per block, and a last block shorter than the others
    _, n_numeric = bound_state_counts(*(np.tile(a, 3) for a in (V0, w, M)), grid_points=301)
    rows = _BLOCK_FLOATS // n_numeric.size
    assert rows > 1 and 301 % rows != 0
    assert n_numeric.tolist() == [_reference_count(*cell, grid_points=301)
                                  for cell in zip(V0, w, M)] * 3
    # a block of indices counts as its rows one by one
    block = np.array([[0.0, 2.0, -1.0], [0.0, 2.0, -1.0]])
    assert _negative_pivots(iter([block]), np.ones(3)).tolist() == [1, 0, 2]


def test_grid_decided_preset_cells_are_pinned():
    # a FOUND line in CHANGES.md: these two cells of the bec_design preset's
    # 20 x 20 grid, (V0, w) = (4.8421, 2.4) and (6.4211, 2.0842) at M = 2, have
    # their top state at threshold, so the grid decides their count: 9 on
    # 1501 points, 8 on 6001. Pinned, so that a reordered recurrence cannot
    # flip them silently.
    V0 = np.linspace(0.5, 8.0, 20)[[11, 15]]
    w = np.linspace(0.4, 2.4, 20)[[19, 16]]
    assert bound_state_counts(V0, w, 2.0)[1].tolist() == [9, 9]
    assert bound_state_counts(V0, w, 2.0, grid_points=6001)[1].tolist() == [8, 8]


def test_negative_pivots_replaces_a_zero_pivot():
    # [[0, 1], [1, 0]] has eigenvalues -1 and 1; its first pivot is exactly 0
    one = np.array([1.0])
    assert _negative_pivots(iter([np.zeros(1), np.zeros(1)]), one).tolist() == [1]
    # [[0, 1], [1, 2]] has eigenvalues 1 -+ sqrt(2), one of them below 0
    assert _negative_pivots(iter([np.zeros(1), np.full(1, 2.0)]), one).tolist() == [1]
    # cells of one call are independent: [[2, 1], [1, 2]] has eigenvalues 1 and 3;
    # [[-1, 1], [1, -1]] has -2 and 0, and its zero second pivot counts the
    # eigenvalue 0 as negative, as dstebz's replacement does
    diags = [np.array([0.0, 2.0, -1.0]), np.array([0.0, 2.0, -1.0])]
    assert _negative_pivots(iter(diags), np.ones(3)).tolist() == [1, 0, 2]


def test_bound_state_counts_rejects_nonpositive_cells():
    with pytest.raises(DomainError):
        bound_state_counts([1.0, -1.0], 1.0, 1.0)
    with pytest.raises(DomainError):
        bound_state_counts(1.0, [1.0, 0.0], 1.0)


def test_two_level_window():
    lo, hi = two_level_window(math.pi / 2, 2.0)  # M*V0 = pi
    assert lo == pytest.approx(0.8, rel=1e-14)
    assert hi == pytest.approx(4.0 / 3.0, rel=1e-14)
    lo2, hi2 = two_level_window(2 * math.pi, 2.0)  # M*V0 scaled by 4
    assert lo2 == pytest.approx(2 * lo, rel=1e-14)
    assert hi2 == pytest.approx(2 * hi, rel=1e-14)
    # the mid-window configuration really is a two-level atom per the numeric
    # oracle; the dimensionally odd closed form disagrees there (its value is
    # frozen as a regression, reported rather than reconciled)
    n_closed, n_numeric = bound_state_count(MIDWINDOW)
    assert n_numeric == 2
    assert n_closed == 1


# (V0, M, fraction of the way across the two-level window) of tweezers
# inside the window, the mid-window tweezer first
WINDOW_TWEEZERS = [MIDWINDOW] + [
    TweezerSpec(V0=V0, w=lo + f * (hi - lo), M=M)
    for V0, M, f in ((math.pi / 2, 2.0, 1e-6), (math.pi / 2, 2.0, 1 - 1e-6), (1.2, 2.0, 0.3),
                     (2.0, 1.5, 0.7), (0.5, 1.0, 0.5), (50.0, 0.5, 0.2), (1e4, 3.0, 0.9))
    for lo, hi in [two_level_window(V0, M)]]


def test_variational_width_residual_and_regression():
    assert variational_width(MIDWINDOW) == pytest.approx(MIDWINDOW_A0, rel=1e-12)
    for tweezer in WINDOW_TWEEZERS:
        a0 = variational_width(tweezer)
        assert type(a0) is float
        rel_residual = abs(_width_residual(a0, tweezer)) / (tweezer.V0 * tweezer.M) ** 2
        assert rel_residual <= 1e-12
        # the root is unique: the residual changes sign exactly once in the bracket
        grid = np.geomspace(1e-3 * tweezer.w, 1e3 * tweezer.w, 2000)
        signs = np.sign([_width_residual(x, tweezer) for x in grid])
        assert np.count_nonzero(np.diff(signs)) == 1


def _roots_width(tweezer):
    """Oracle: the width from one np.roots call and three Newton steps."""
    q = 2.0 * (tweezer.V0 * tweezer.M * tweezer.w * tweezer.w) ** 2
    roots = np.roots([q, -1.0, -6.0, -12.0, -8.0])
    t = float(roots[roots.imag == 0.0].real.max())
    for _ in range(3):
        t -= (q * t**4 - (t + 2.0) ** 3) / (4.0 * q * t**3 - 3.0 * (t + 2.0) ** 2)
    return tweezer.w * math.sqrt(t)


def test_variational_widths_batch_is_bit_identical_to_one_tweezer_calls():
    # the preset's window sweep, then three seeded windows, each wider than
    # one block of companion matrices
    design = expand_design(parse_config(_preset_text("bec_design")))
    windows = [(design.tweezers[0].V0, design.tweezers[0].M, design.sweep_waists)]
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        V0, M = rng.uniform(0.05, 50.0), rng.uniform(0.5, 5.0)
        windows.append((V0, M, rng.uniform(*two_level_window(V0, M), 600)))
    for V0, M, waists in windows:
        widths = variational_widths(V0, waists, M)
        assert widths.shape == waists.shape
        tweezers = [TweezerSpec(V0=V0, w=w, M=M) for w in waists.tolist()]
        assert widths.tolist() == [variational_width(tw) for tw in tweezers]
        assert widths.tolist() == [_roots_width(tw) for tw in tweezers]
    # one tweezer without a root refuses the batch; so does a non-positive one
    with pytest.raises(NoRootError, match=r"\(1\.000e-03, 1\.000e\+03\)"):
        variational_widths(1e13, [1e-6, 1.0], 1.0)
    with pytest.raises(DomainError):
        variational_widths(1.0, [1.0, 0.0], 1.0)


def test_variational_width_scaling_covariance():
    # (V0, M, w) -> (V0/s^2, M, s*w) rescales the bound-state width by s
    a0 = variational_width(MIDWINDOW)
    for s in (0.5, 2.0, 10.0):
        scaled = TweezerSpec(V0=MIDWINDOW.V0 / s**2, w=s * MIDWINDOW.w, M=MIDWINDOW.M)
        assert variational_width(scaled) == pytest.approx(s * a0, rel=1e-10)


def test_variational_width_no_root():
    # a0 would lie above 1e3 w (a shallow well) or below 1e-3 w (a deep one,
    # a0^2/w^2 about 4.5e-7)
    for tweezer in (TweezerSpec(V0=1e-5, w=1.0, M=1.0), TweezerSpec(V0=1e13, w=1.0, M=1.0)):
        with pytest.raises(NoRootError, match="no variational-width root in"):
            variational_width(tweezer)


def test_transition_energy():
    assert transition_energy(MIDWINDOW, MIDWINDOW_A0) == \
        pytest.approx(MIDWINDOW_OMEGA, rel=1e-12)
    # kinetic term only as the well disappears
    shallow = TweezerSpec(V0=1e-30, w=1.0, M=2.0)
    assert transition_energy(shallow, 0.9) == pytest.approx(2.0 / (2.0 * 0.81), rel=1e-12)
    # continuous and finite across the two-level window
    lo, hi = two_level_window(MIDWINDOW.V0, MIDWINDOW.M)
    omegas = []
    for w in np.linspace(lo * 1.000001, hi * 0.999999, 50):
        tw = TweezerSpec(V0=MIDWINDOW.V0, w=w, M=MIDWINDOW.M)
        omegas.append(transition_energy(tw, variational_width(tw)))
    omegas = np.array(omegas)
    assert np.all(np.isfinite(omegas)) and np.all(omegas > 0)
    assert np.abs(np.diff(omegas)).max() < 0.05


def test_coupling_tensor_ratios():
    a0 = 2.2
    for k in (0.3, 1.0, 2.5):
        mode = bogoliubov_mode(BATH, k)
        g00, g11, g10 = coupling_tensor(BATH, mode, a0, g=0.1)
        assert g10 / g00 == pytest.approx(1j * a0 * k, rel=1e-13)
        assert g11 / g00 == pytest.approx(1.0 - a0**2 * k**2 / 2.0, rel=1e-13)
    # the diagonal inter-level coupling vanishes exactly at a0*k = sqrt(2)
    k_zero = math.sqrt(2.0) / a0
    mode = bogoliubov_mode(BATH, k_zero)
    g00, g11, _ = coupling_tensor(BATH, mode, a0, g=0.1)
    assert abs(g11) < 1e-12 * abs(g00)
    # long-wavelength suppression: S(k) -> 0 drags every component to zero
    mags = [abs(coupling_tensor(BATH, bogoliubov_mode(BATH, k), a0, g=0.1)[0])
            for k in (1e-2, 1e-4, 1e-6, 1e-8)]
    assert all(b < a for a, b in zip(mags, mags[1:]))
    assert mags[-1] < 1e-3


def test_map_single_tweezer():
    mapping = map_to_detector_model(BATH, [MIDWINDOW])
    assert mapping.positions == (0.0,)
    assert len(mapping.atoms) == 1
    atom = mapping.atoms[0]
    assert atom.alpha == mapping.frame.a  # red-shift exactly 1
    assert atom.g == 1.0
    assert atom.omega == pytest.approx(MIDWINDOW_OMEGA, rel=1e-12)
    assert unruh_beta(mapping.frame) == pytest.approx(1.0 / BATH.T, rel=1e-14)
    assert mapping.stark_shift == pytest.approx(MIDWINDOW.g * BATH.n0, rel=1e-14)
    assert mapping.warnings == ()


def test_map_two_tweezers_phase_factor():
    d = 2.8
    tweezers = [TweezerSpec(V0=MIDWINDOW.V0, w=1.05, M=2.0, x=0.0, g=0.0036),
                TweezerSpec(V0=MIDWINDOW.V0, w=1.05, M=2.0, x=d, g=0.0036)]
    mapping = map_to_detector_model(BATH, tweezers)
    rs = same_wedge_rates(mapping.frame, list(mapping.atoms), xi=mapping.positions)
    k0 = mapping.atoms[0].omega  # resonant wave number of the detector model
    phase = rs.gamma_minus_plus[0, 1] / abs(rs.gamma_minus_plus[0, 1])
    assert phase == pytest.approx(np.exp(1j * k0 * (0.0 - d)), rel=1e-12)
    # detailed balance at the bath temperature
    ratio = rs.gamma_plus_minus[0, 0] / rs.gamma_minus_plus[0, 0]
    assert ratio.real == pytest.approx(math.exp(-mapping.atoms[0].omega / BATH.T), rel=1e-12)


def test_map_cold_bath_has_no_absorption():
    cold = BogoliubovBath(m=1.0, mu=1.0, n0=50.0, L=100.0, u0=0.02, T=1e-8)
    mapping = map_to_detector_model(cold, [MIDWINDOW])
    rs = same_wedge_rates(mapping.frame, list(mapping.atoms), xi=mapping.positions)
    assert rs.gamma_plus_minus[0, 0] == 0.0
    assert rs.gamma_minus_plus[0, 0].real > 0.0


def test_map_rejects_tweezer_outside_window():
    bad = TweezerSpec(V0=math.pi / 2, w=2.0, M=2.0, g=0.0036)
    with pytest.raises(ConfigError) as err:
        map_to_detector_model(BATH, [bad])
    assert "two-level window" in str(err.value)


def test_map_warns_outside_linear_dispersion():
    # raise the transition energy above sqrt(3)*mu via a shallow bath
    thin = BogoliubovBath(m=1.0, mu=0.05, n0=50.0, L=100.0, u0=0.001, T=0.5)
    mapping = map_to_detector_model(thin, [MIDWINDOW])
    assert any("near-linear" in w for w in mapping.warnings)


def test_resonant_wavenumber_inverts_dispersion():
    for omega in (0.2, 0.5, 1.5, 4.0):
        k = resonant_wavenumber(BATH, omega)
        assert bogoliubov_mode(BATH, k).E == pytest.approx(omega, rel=1e-12)
    with pytest.raises(DomainError):
        resonant_wavenumber(BATH, 0.0)
