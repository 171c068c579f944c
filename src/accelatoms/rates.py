"""Long-time (Markovian, secular) dissipative rate matrices.

For co-accelerating atoms j, n the two normal channels are

    gamma_minus_plus[j, n] = gamma0 * s_j * s_n * (n(k0_j)+1) * Ind * exp(i k0_j (xi_j - xi_n))
    gamma_plus_minus[j, n] = gamma0 * s_j * s_n *  n(k0_j)    * Ind * exp(i k0_j (xi_j - xi_n))

with s_i = (a/alpha_i)*g_i the red-shift-weighted coupling, k0_j = Omega_j the
resonant wave number, n() the occupation at beta = 2*pi/a and Ind the secular
indicator |Omega_j - Omega_n| < eps_res that replaces the frequency delta (its
dimensional normalization, like every overall rate factor, is a pure time-unit
choice absorbed into gamma0). Counter-accelerating ensembles additionally
carry anomalous inter-wedge channels with prefactor sqrt(n(1+n)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .kinematics import AtomSpec, FrameConfig, kinematic_state, thermal_occupation, unruh_beta


@dataclass(frozen=True)
class RateSet:
    """Assembled rate matrices for one atom configuration.

    gamma_minus_plus: emission channel (prefactor n+1), full N x N.
    gamma_plus_minus: absorption channel (prefactor n), full N x N.
    cross_pp: anomalous inter-wedge channel, N_I x N_II (cross_mm = conj(cross_pp)).
    wedge_partition: (indices in wedge I, indices in wedge II).
    """

    gamma_minus_plus: np.ndarray
    gamma_plus_minus: np.ndarray
    cross_pp: np.ndarray
    wedge_partition: tuple[tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        for name in ("gamma_minus_plus", "gamma_plus_minus", "cross_pp"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} has a non-finite entry")
            arr.setflags(write=False)

    @property
    def cross_mm(self) -> np.ndarray:
        return self.cross_pp.conj()

    @property
    def n_atoms(self) -> int:
        return self.gamma_minus_plus.shape[0]

    @property
    def has_cross(self) -> bool:
        return self.cross_pp.size > 0


def coupling_weight(frame: FrameConfig, atom: AtomSpec) -> float:
    """Red-shift-weighted coupling s = (dtau_i/dtau) * g = (a/alpha) * g."""
    return kinematic_state(frame, atom).redshift * atom.g


def _kinematics_arrays(frame, atoms, xi_override):
    states = [kinematic_state(frame, atom) for atom in atoms]
    omega = np.array([st.Omega for st in states])
    if np.any(omega <= 0):
        raise DomainError("all red-shifted frequencies must be > 0")
    if xi_override is None:
        xi = np.array([st.xi for st in states])
    else:
        xi = np.asarray(xi_override, dtype=float)
        if xi.shape != (len(atoms),):
            raise DomainError(f"xi override must have length {len(atoms)}, got shape {xi.shape}")
    s = np.array([st.redshift * at.g for st, at in zip(states, atoms)])
    return omega, xi, s


def _rate_set(frame, omega, xi, s, n_i):
    """The RateSet of atoms 0..n_i-1 in wedge I and the rest in wedge II: the
    normal channels within each wedge, the anomalous ones between them."""
    n, beta = len(s), unruh_beta(frame)
    nbar = np.array([thermal_occupation(beta, w) for w in omega])
    resonant = np.abs(omega[:, None] - omega[None, :]) < frame.eps_res
    phase = np.exp(1j * omega[:, None] * (xi[:, None] - xi[None, :]))
    weight = frame.gamma0 * np.outer(s, s)
    base = weight * resonant * phase
    in_i = np.arange(n) < n_i
    same_wedge = in_i[:, None] == in_i[None, :]
    gmp = np.where(same_wedge, base * (nbar + 1.0)[:, None], 0)
    gpm = np.where(same_wedge, base * nbar[:, None], 0)
    cross = np.zeros((n_i, n - n_i), dtype=complex)
    if cross.size:  # n(n+1) can overflow where it is not needed
        i, k, n1 = slice(0, n_i), slice(n_i, n), nbar[:n_i]
        cross = weight[i, k] * np.sqrt(n1 * (n1 + 1.0))[:, None] * resonant[i, k] * phase[i, k]
    return RateSet(gmp, gpm, cross, (tuple(range(n_i)), tuple(range(n_i, n))))


def same_wedge_rates(frame: FrameConfig, atoms: Sequence[AtomSpec],
                     xi: Sequence[float] | None = None) -> RateSet:
    """Rates for atoms sharing one wedge.

    `xi` optionally overrides the conformal positions (used by the thermal
    static construction and the condensate analogue, where positions are free
    parameters instead of being slaved to the acceleration).
    """
    if not atoms:
        raise DomainError("need at least one atom")
    wedges = {atom.wedge for atom in atoms}
    if len(wedges) != 1:
        raise DomainError("same_wedge_rates requires all atoms in one wedge")
    omega, xis, s = _kinematics_arrays(frame, atoms, xi)
    return _rate_set(frame, omega, xis, s, len(atoms) if "I" in wedges else 0)


def cross_wedge_rates(frame: FrameConfig, atoms_I: Sequence[AtomSpec],
                      atoms_II: Sequence[AtomSpec],
                      xi_I: Sequence[float] | None = None,
                      xi_II: Sequence[float] | None = None) -> RateSet:
    """Full rate set for a counter-accelerating ensemble (wedge I atoms first).

    The normal channels act within each wedge only; the anomalous channels
    couple wedge-I atom i to wedge-II atom kappa with magnitude
    gamma0 * s_i * s_kappa * sqrt(n(k0_i)(1+n(k0_i))) and phase
    exp(i k0_i (xi_i - xi_kappa)).
    """
    if not atoms_I or not atoms_II:
        raise DomainError("cross_wedge_rates requires atoms in both wedges")
    if any(a.wedge != "I" for a in atoms_I) or any(a.wedge != "II" for a in atoms_II):
        raise DomainError("wedge labels must match the atom lists")
    wedges = (_kinematics_arrays(frame, atoms_I, xi_I),
              _kinematics_arrays(frame, atoms_II, xi_II))
    omega, xi, s = (np.concatenate(arrays) for arrays in zip(*wedges))
    return _rate_set(frame, omega, xi, s, len(atoms_I))


def thermal_static_rates(beta: float, omegas: Sequence[float], positions: Sequence[float],
                         couplings: Sequence[float] | None = None,
                         gamma0: float = 0.1, eps_res: float = 1e-6) -> RateSet:
    """Rates for static atoms at given positions in a thermal field.

    Equivalent, by the thermal-purification argument, to co-accelerating atoms
    at beta = 2*pi/a; exposed separately so the equivalence is testable and so
    the condensate analogue can feed laboratory positions straight in.
    """
    if beta <= 0:
        raise DomainError(f"beta must be > 0, got {beta}")
    frame = FrameConfig(a=2.0 * np.pi / beta, eps_res=eps_res, gamma0=gamma0)
    if couplings is None:
        couplings = [1.0] * len(omegas)
    atoms = [AtomSpec(omega=w, alpha=frame.a, wedge="I", g=c)
             for w, c in zip(omegas, couplings)]
    return same_wedge_rates(frame, atoms, xi=positions)


def kossakowski_matrix(rates: RateSet, cross_pairing: str = "anomalous") -> np.ndarray:
    """The generator's coefficient matrix K over the jump basis
    A = (sigma_1^-, ..., sigma_N^-, sigma_1^+, ..., sigma_N^+): the dissipator
    is sum_ab K[a, b] [A_a rho, A_b^+] + h.c. (liouvillian.py says where each
    entry sits), and K >= 0 certifies complete positivity. The inter-wedge
    channels enter with a minus sign; the literal pairing's K is not positive.
    """
    if cross_pairing not in ("anomalous", "literal"):
        raise DomainError(f"unknown cross_pairing {cross_pairing!r}")
    n = rates.n_atoms
    k = np.zeros((2 * n, 2 * n), dtype=complex)
    k[:n, :n] = rates.gamma_minus_plus.T
    k[n:, n:] = rates.gamma_plus_minus.T
    idx_i, idx_k = rates.wedge_partition
    i = np.array(idx_i, dtype=int)[:, None]
    kap = np.array(idx_k, dtype=int)[None, :]
    x = -rates.cross_pp
    if cross_pairing == "anomalous":
        # K[N+i, kappa] = x is x [sigma_i^+ rho, sigma_kappa^+], and so on
        entries = ((n + i, kap, x), (kap, n + i, x.conj()),
                   (n + kap, i, x), (i, n + kap, x.conj()))
    else:
        # K[N+i, N+kappa] = x is x [sigma_i^+ rho, sigma_kappa^-], and so on
        entries = ((n + i, n + kap, x), (i, kap, x), (n + kap, n + i, x), (kap, i, x))
    for rows, cols, values in entries:
        k[rows, cols] += values
    return k


def kossakowski_min_eig(rates: RateSet) -> float:
    """Minimum eigenvalue of the full coefficient matrix; >= 0 (to roundoff)
    certifies that the generator is completely positive."""
    return float(np.linalg.eigvalsh(kossakowski_matrix(rates)).min())
