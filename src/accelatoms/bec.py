"""Condensate analogue: Bogoliubov bath, tweezer-built two-level atoms, the
impurity-phonon coupling tensor, and the mapping onto the detector model.

Units: hbar = k_B = 1 throughout; a sensible normalization is boson mass
m = 1 and chemical potential mu = 1, which makes the healing-length and
mu-energy scales order one.

Bound states are counted by Sylvester's law of inertia: the number of negative
eigenvalues of the finite-difference tridiagonal equals the number of negative
pivots of its LDL^T factorization, the Sturm-sequence count of Barth, Martin
and Wilkinson (Numer. Math. 9, 386, 1967). One pass of the pivot recurrence
serves a whole (V0, w, M) design grid at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DivergenceError, DomainError, NoRootError
from .kinematics import AtomSpec, FrameConfig


@dataclass(frozen=True)
class BogoliubovBath:
    """Quasi-1D condensate parameters.

    mu is not forced to equal u0*n0; the mismatch is a reportable diagnostic.
    """

    m: float
    mu: float
    n0: float
    L: float
    u0: float
    T: float

    def __post_init__(self):
        for name in ("m", "mu", "n0", "L", "u0", "T"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be > 0, got {getattr(self, name)}")

    def mu_mismatch(self) -> float:
        """Relative deviation of mu from the interaction estimate u0*n0."""
        return abs(self.mu - self.u0 * self.n0) / self.mu


@dataclass(frozen=True)
class BogoliubovMode:
    k: float
    E: float
    u: float
    v: float
    S: float


@dataclass(frozen=True)
class TweezerSpec:
    """One optical tweezer holding an impurity: depth, waist, impurity mass,
    laboratory position, impurity-boson coupling."""

    V0: float
    w: float
    M: float
    x: float = 0.0
    g: float = 0.0

    def __post_init__(self):
        if self.V0 <= 0 or self.w <= 0 or self.M <= 0:
            raise DomainError("V0, w and M must all be > 0")
        if self.g < 0:
            raise DomainError(f"coupling g must be >= 0, got {self.g}")


def dispersion(m: float, mu: float, k: float) -> tuple[float, float]:
    """(eps, E) = (k^2/(2m), sqrt(eps(eps + 2 mu))). Raises DivergenceError
    unless eps and E^2 are normal floats: eps is 0 at k = 0, an underflow to a
    subnormal would cost the mode its precision and an overflow its value."""
    eps = k * k / (2.0 * m)
    E2 = eps * (eps + 2.0 * mu)
    tiny = np.finfo(float).tiny
    if not (eps >= tiny and tiny <= E2 < math.inf):
        raise DivergenceError(f"Bogoliubov mode at k = {k:g} is outside the floating-point "
                              f"range (k^2/(2m) = {eps:g}, E^2 = {E2:g})")
    return eps, math.sqrt(E2)


def bogoliubov_mode(bath: BogoliubovBath, k: float) -> BogoliubovMode:
    """Energy, coefficients and structure factor of one Bogoliubov mode.

    E = sqrt(eps(eps + 2 mu)) with eps = k^2/(2m); u^2 = (eps + mu + E)/(2E),
    v = mu/(2 E u) and S = u - v = sqrt(eps/E), identities of
    u,v = ((eps+mu)/(2E) +- 1/2)^(1/2) that subtract nothing.
    """
    eps, E = dispersion(bath.m, bath.mu, k)
    u = math.sqrt((eps + bath.mu + E) / (2.0 * E))
    return BogoliubovMode(k=k, E=E, u=u, v=bath.mu / (2.0 * E * u), S=math.sqrt(eps / E))


def _negative_pivots(diagonals, off_sq: np.ndarray) -> np.ndarray:
    """Negative eigenvalues of symmetric tridiagonals, counted as the negative
    pivots of the LDL^T recurrence d_i = T_ii - T_{i,i-1}^2 / d_{i-1}.

    `diagonals` yields T_ii for every matrix at once, index by index; `off_sq`
    is the squared off-diagonal of each matrix, the same at every index. Only
    one pivot per matrix is held, so memory stays O(matrices).
    """
    # a pivot of magnitude below pivmin, an exact 0 included, is replaced by
    # -pivmin, as LAPACK's dstebz does: the next pivot stays finite, and an
    # eigenvalue at 0 to rounding counts as negative
    pivmin = np.finfo(float).tiny * np.maximum(1.0, off_sq)
    count = np.zeros(off_sq.shape, dtype=int)
    d = None
    for diag in diagonals:
        d = diag if d is None else diag - off_sq / d
        d = np.where(np.abs(d) < pivmin, -pivmin, d)
        count += d < 0.0
    return count


def bound_state_counts(V0, w, M, grid_points: int = 1501) -> tuple[np.ndarray, np.ndarray]:
    """Number of tweezer bound states for arrays of (V0, w, M) cells:
    (closed-form estimate, numeric count), two int arrays of the broadcast shape.

    The WKB-style closed form floor(2*sqrt(V0*M/(pi*w)) - 1/2), taken as given
    in natural units despite its odd dimensional structure, ships next to an
    independent numeric count which is the authoritative one. Disagreements
    are for the caller to report, not to reconcile silently.

    The numeric count is the number of negative eigenvalues of each cell's
    finite-difference Hamiltonian -1/(2M) d^2/dx^2 - V0 exp(-(x/w)^2) on
    `grid_points` points of its own box, found as the negative pivots of one
    LDL^T recurrence run over the grid indices for all cells together.
    Counting every eigenvalue below 0 is counting those in (-2 V0, 0): the
    kinetic term is positive semidefinite, so no eigenvalue lies below the
    potential minimum -V0. Working memory is a few arrays of one value per
    cell.

    Raises DivergenceError unless every closed form fits an int64 and
    1/(2 M h^2) on the grid spacing h, squared too, is a positive finite float.
    """
    V0, w, M = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (V0, w, M)))
    if not (np.all(V0 > 0) and np.all(w > 0) and np.all(M > 0)):
        raise DomainError("V0, w and M must all be > 0")
    with np.errstate(over="ignore", divide="ignore"):  # an inf here is refused below
        estimate = np.floor(2.0 * np.sqrt(V0 * M / (math.pi * w)) - 0.5)
        # box wide enough for weakly bound states: decay length 1/kappa with the
        # shallow-well estimate kappa ~ M * integral(V) = M V0 w sqrt(pi)
        kappa = M * V0 * w * math.sqrt(math.pi)
        half_width = np.minimum(np.maximum(15.0 * w, 10.0 / kappa), 2000.0 * w)
        # the points of np.linspace(-half_width, half_width, grid_points)
        h = (half_width + half_width) / (grid_points - 1)
        kin = 1.0 / (2.0 * M * h * h)
        off_sq = kin * kin
    if not (np.all(estimate < 2.0**63) and np.all((0.0 < off_sq) & (off_sq < math.inf))):
        raise DivergenceError("bound-state grid outside the float range: a closed-form "
                              "count beyond int64, or 1/(2 M h^2) over- or underflows")

    def diagonals():
        for i in range(grid_points - 1):
            x = i * h - half_width
            yield -V0 * np.exp(-(x / w) ** 2) + 2.0 * kin
        yield -V0 * np.exp(-(half_width / w) ** 2) + 2.0 * kin

    return estimate.astype(int), _negative_pivots(diagonals(), off_sq)


def bound_state_count(tweezer: TweezerSpec, grid_points: int = 1501) -> tuple[int, int]:
    """Number of bound states of one tweezer: (closed-form estimate, numeric
    count), a one-cell call of `bound_state_counts`."""
    n_closed, n_numeric = bound_state_counts(tweezer.V0, tweezer.w, tweezer.M, grid_points)
    return int(n_closed), int(n_numeric)


def two_level_window(V0: float, M: float) -> tuple[float, float]:
    """Waist interval (w_min, w_max) in which the tweezer holds exactly two
    bound states: ((4/5) sqrt(M V0 / pi), (4/3) sqrt(M V0 / pi))."""
    if V0 <= 0 or M <= 0:
        raise DomainError("V0 and M must be > 0")
    root = math.sqrt(M * V0 / math.pi)
    return 0.8 * root, (4.0 / 3.0) * root


def _width_residual(a0: float, tweezer: TweezerSpec) -> float:
    w2 = tweezer.w * tweezer.w
    lhs = w2 * w2 / (2.0 * a0 * a0) * (2.0 / (a0 * a0) + 1.0 / w2) ** 3
    return lhs - (tweezer.V0 * tweezer.M) ** 2


def variational_width(tweezer: TweezerSpec) -> float:
    """Bound-state width a0 from the Gaussian variational condition

        w^4/(2 a0^2) * (2/a0^2 + 1/w^2)^3 = (V0 M)^2,

    in t = a0^2/w^2 the quartic q t^4 = (t + 2)^3 with q = 2 (V0 M w^2)^2. Its
    coefficients change sign once, so by Descartes' rule it has one positive
    root, the largest real one; it is simple, f'(t) = (t+2)^2 (t+8)/t > 0, so
    Newton steps polish it. It must give a0 in [1e-3 w, 1e3 w]."""
    q = 2.0 * (tweezer.V0 * tweezer.M * tweezer.w * tweezer.w) ** 2

    def f(t):
        return q * t**4 - (t + 2.0) ** 3

    # f < 0 below the root and f > 0 above it
    if not f(1e-6) <= 0.0 <= f(1e6):
        raise NoRootError(
            f"no variational-width root in ({1e-3 * tweezer.w:.3e}, {1e3 * tweezer.w:.3e}); "
            "the configuration is outside the validity range of the Gaussian ansatz")
    roots = np.roots([q, -1.0, -6.0, -12.0, -8.0])
    t = float(roots[roots.imag == 0.0].real.max())
    for _ in range(3):
        t -= f(t) / (4.0 * q * t**3 - 3.0 * (t + 2.0) ** 2)
    return tweezer.w * math.sqrt(t)


def transition_energy(tweezer: TweezerSpec, a0: float) -> float:
    """Two-level transition energy for bound-state width a0:

        Omega = 2/(M a0^2) - sqrt(2) V0 sqrt(2 a0^4 + a0^6/w^2) / (a0^2 + 2 w^2)^2.
    """
    if a0 <= 0:
        raise DomainError(f"a0 must be > 0, got {a0}")
    w2 = tweezer.w * tweezer.w
    a2 = a0 * a0
    kinetic = 2.0 / (tweezer.M * a2)
    potential = math.sqrt(2.0) * tweezer.V0 * math.sqrt(2.0 * a2 * a2 + a2 * a2 * a2 / w2) \
        / (a2 + 2.0 * w2) ** 2
    return kinetic - potential


def coupling_tensor(bath: BogoliubovBath, mode: BogoliubovMode, a0: float,
                    g: float) -> tuple[complex, complex, complex]:
    """Impurity-phonon coupling components (G00, G11, G10) for one mode:

        G00 = g sqrt(n0 S(k)/L) exp(-k^2 a0^2/2), G11 = (1 - a0^2 k^2/2) G00,
        G10 = i a0 k G00  (and G01 = conj(G10)).
    """
    if a0 <= 0:
        raise DomainError(f"a0 must be > 0, got {a0}")
    g00 = g * math.sqrt(bath.n0 * mode.S / bath.L) * math.exp(-mode.k**2 * a0**2 / 2.0)
    g11 = (1.0 - a0**2 * mode.k**2 / 2.0) * g00
    g10 = 1j * a0 * mode.k * g00
    return complex(g00), complex(g11), g10


def resonant_wavenumber(bath: BogoliubovBath, omega: float) -> float:
    """Invert the Bogoliubov dispersion: the k > 0 with E_k = omega."""
    if omega <= 0:
        raise DomainError(f"omega must be > 0, got {omega}")
    eps = -bath.mu + math.sqrt(bath.mu**2 + omega**2)
    return math.sqrt(2.0 * bath.m * eps)


@dataclass(frozen=True)
class DetectorModelMap:
    """Detector-model inputs produced from a laboratory configuration.

    positions override the conformal coordinates (the analogue places atoms
    freely while the detector model ties position to acceleration);
    stark_shift = g*n0 is the uniform level renormalization (it cancels in
    every transition energy).
    """

    frame: FrameConfig
    atoms: tuple[AtomSpec, ...]
    positions: tuple[float, ...]
    resonant_k: tuple[float, ...]
    couplings: tuple[complex, ...]
    stark_shift: float
    warnings: tuple[str, ...]


def map_to_detector_model(bath: BogoliubovBath, tweezers: Sequence[TweezerSpec],
                          eps_res: float = 1e-6) -> DetectorModelMap:
    """Map tweezers in a condensate onto detector-model inputs.

    Identifications: laboratory position x_i -> conformal position xi_i; the
    bath temperature sets the frame via beta = 1/T (a = 2*pi*T); transition
    energies become the proper frequencies (red-shift 1 for every atom); the
    inter-band coupling G10 at the resonant wave number sets the per-atom
    weight s_i = |C_i|/|C_1| with the overall scale gamma0 = |C_1|^2.
    """
    if not tweezers:
        raise ConfigError(["at least one tweezer is required"])
    warnings: list[str] = []
    omegas, ks, cs = [], [], []
    for idx, tw in enumerate(tweezers):
        w_min, w_max = two_level_window(tw.V0, tw.M)
        if not w_min < tw.w < w_max:
            raise ConfigError([
                f"tweezer {idx}: waist w={tw.w:g} outside the two-level window "
                f"({w_min:g}, {w_max:g}) for V0={tw.V0:g}, M={tw.M:g}"])
        a0 = variational_width(tw)
        omega = transition_energy(tw, a0)
        if omega <= 0:
            raise ConfigError([f"tweezer {idx}: non-positive transition energy {omega:g}"])
        k_res = resonant_wavenumber(bath, omega)
        eps_k = k_res**2 / (2.0 * bath.m)
        if eps_k >= bath.mu:
            warnings.append(
                f"tweezer {idx}: resonant mode eps_k={eps_k:g} >= mu={bath.mu:g}; "
                "outside the near-linear region of the dispersion")
        mode = bogoliubov_mode(bath, k_res)
        c10 = coupling_tensor(bath, mode, a0, tw.g)[2]
        omegas.append(omega)
        ks.append(k_res)
        cs.append(c10)

    a = 2.0 * math.pi * bath.T  # beta = 2*pi/a = 1/T
    c_ref = abs(cs[0])
    gamma0 = c_ref * c_ref  # a float product gives inf where ** would raise
    if not math.isfinite(gamma0):
        raise DivergenceError(f"detector rate scale gamma0 = |C_1|^2 = {c_ref:g}^2 overflows")
    weights = [abs(c) / c_ref if c_ref > 0 else 0.0 for c in cs]
    frame = FrameConfig(a=a, eps_res=eps_res, gamma0=gamma0)
    atoms = tuple(AtomSpec(omega=w, alpha=a, wedge="I", g=s)
                  for w, s in zip(omegas, weights))
    return DetectorModelMap(frame=frame, atoms=atoms,
                            positions=tuple(tw.x for tw in tweezers),
                            resonant_k=tuple(ks), couplings=tuple(cs),
                            stark_shift=tweezers[0].g * bath.n0,
                            warnings=tuple(warnings))
