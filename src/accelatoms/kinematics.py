"""Rindler-frame kinematics of uniformly accelerated two-level atoms.

Conventions used everywhere in this package: natural units hbar = k_B = c = 1,
frequencies in units of the reference atom frequency (omega_s = 1), time in
units of 1/omega_s. The reference acceleration parameter `a` equals the proper
acceleration of atom 1, so atom 1 sits at conformal position xi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergenceError, DomainError

# exp() overflows past ~709; occupations under such exponents are exactly 0.0
# in double precision anyway.
_EXP_OVERFLOW = 700.0


@dataclass(frozen=True)
class FrameConfig:
    """Reference-frame and rate-scale parameters shared by a configuration.

    a: acceleration parameter; equal to the proper acceleration of atom 1.
    eps_res: resonance tolerance replacing the secular frequency delta.
    gamma0: overall dissipative rate scale (weak coupling).
    """

    a: float
    eps_res: float = 1e-6
    gamma0: float = 0.1

    def __post_init__(self):
        if self.a <= 0:
            raise DomainError(f"acceleration parameter a must be > 0, got {self.a}")
        if self.eps_res <= 0:
            raise DomainError(f"eps_res must be > 0, got {self.eps_res}")
        if self.gamma0 < 0:
            raise DomainError(f"gamma0 must be >= 0, got {self.gamma0}")


@dataclass(frozen=True)
class AtomSpec:
    """One two-level atom: proper frequency, proper acceleration, wedge, coupling.

    `g` is the dimensionless coupling weight (the constant switching function
    absorbed into a single scalar per atom).
    """

    omega: float
    alpha: float
    wedge: str = "I"
    g: float = 1.0

    def __post_init__(self):
        if self.omega <= 0:
            raise DomainError(f"omega must be > 0, got {self.omega}")
        if self.alpha <= 0:
            raise DomainError(f"alpha must be > 0, got {self.alpha}")
        if self.wedge not in ("I", "II"):
            raise DomainError(f"wedge must be 'I' or 'II', got {self.wedge!r}")
        if self.g < 0:
            raise DomainError(f"coupling weight g must be >= 0, got {self.g}")


@dataclass(frozen=True)
class KinematicState:
    """Derived per-atom frame data: conformal position, red-shift, frequency.

    redshift = dtau_i/dtau = exp(a*xi) = a/alpha, and Omega = redshift * omega.
    """

    xi: float
    redshift: float
    Omega: float


def xi_from_alpha(frame: FrameConfig, alpha: float) -> float:
    """Conformal position fixed by the proper acceleration: alpha = a*exp(-a*xi)."""
    if alpha <= 0:
        raise DomainError(f"alpha must be > 0, got {alpha}")
    return -math.log(alpha / frame.a) / frame.a


def alpha_from_xi(frame: FrameConfig, xi: float) -> float:
    """Inverse of xi_from_alpha: proper acceleration at conformal position xi."""
    return frame.a * math.exp(-frame.a * xi)


def kinematic_state(frame: FrameConfig, atom: AtomSpec) -> KinematicState:
    xi = xi_from_alpha(frame, atom.alpha)
    redshift = frame.a / atom.alpha
    return KinematicState(xi=xi, redshift=redshift, Omega=redshift * atom.omega)


def unruh_beta(frame: FrameConfig) -> float:
    """Inverse temperature seen in the accelerated frame: beta = 2*pi/a."""
    return 2.0 * math.pi / frame.a


def thermal_occupation(beta: float, k: float) -> float:
    """Bose-Einstein occupation n = 1/(exp(beta*|k|) - 1).

    k = 0 is the massless-field infrared divergence and is rejected; every
    implemented rate evaluates at a resonant k0 = Omega > 0. So is a
    beta*|k| so small (subnormal) that n overflows to inf.
    """
    if beta <= 0:
        raise DomainError(f"beta must be > 0, got {beta}")
    if k == 0:
        raise DivergenceError("occupation diverges at k = 0")
    x = beta * abs(k)
    if x > _EXP_OVERFLOW:
        return 0.0
    n = 1.0 / math.expm1(x)
    if not math.isfinite(n):
        raise DivergenceError(f"occupation 1/(exp(x) - 1) overflows at x = beta*|k| = {x:g}")
    return n


def squeeze_parameter(frame: FrameConfig, k: float) -> float:
    """Two-mode squeezing parameter r_k with tanh(r_k) = exp(-pi*|k|/a).

    Satisfies sinh(r_k)^2 = thermal_occupation(2*pi/a, k).
    """
    if k == 0:
        raise DivergenceError("squeeze parameter diverges at k = 0")
    return math.atanh(math.exp(-math.pi * abs(k) / frame.a))
