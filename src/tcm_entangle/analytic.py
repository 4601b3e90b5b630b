"""Closed-form time-dependent amplitudes for both initial-state families.

This is the second, independent computation path; it never touches the
numerical propagator.  All formulas are exact on resonance
(omega_0 = omega_a + omega_b) with dimensionless time T = g*t and
lam = omega_0/g entering phases only.

Each family's amplitudes sit on its kets in ``model.SUPPORT_KETS``, in order.

PSI family (two-excitation sector):

    x1 = (Lam/4) [theta+ (L+ - L- e^{i kappa T}) + 2 Xi theta-]
    x2 = (Lam/4) [theta+ (L+ - L- e^{i kappa T}) - 2 Xi theta-]
    x3 = (Lam theta+ / kappa) (1 - e^{i kappa T})

with kappa = sqrt(8 + eps^2), L+- = eps/kappa +- 1,
theta+- = cos(a) +- sin(a), Lam = e^{-i kappa L+ T / 2} and
Xi = e^{i (3 L+ - 2) kappa T / 2}.

PHI family (zero- and four-excitation sectors):

    x1 = (Gam/4) (M+ - (eps/eta) M- + 2 e^{i (eps+eta) T / 2})
    x2 = e^{i lam T} sin(a)
    x3 = x4 = Gam M- / eta
    x5 = (Gam/4) (M+ - (eps/eta) M- - 2 e^{i (eps+eta) T / 2})

with eta = sqrt(16 + eps^2), M+- = 1 +- e^{i eta T} and
Gam = cos(a) e^{-i (2 lam + eps + eta) T / 2}.

Both sets agree with exact propagation to machine precision for every
(alpha, eps, T); see the oracle-equivalence tests.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Basis, Family, InitialStateSpec, ModelParams, derive_constants


def _check_domain(alpha: float, epsilon: float):
    if not 0.0 <= alpha <= math.pi / 2:
        raise ValueError(f"alpha must lie in [0, pi/2], got {alpha}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")


def psi_amplitudes(alpha: float, epsilon: float, T):
    """(x1, x2, x3) for the PSI family; T may be a scalar or array."""
    _check_domain(alpha, epsilon)
    T = np.asarray(T, dtype=float)
    d = derive_constants(epsilon, alpha)
    k = d.kappa
    lam_phase = np.exp(-0.5j * k * d.L_plus * T)
    xi = np.exp(0.5j * (3.0 * d.L_plus - 2.0) * k * T)
    eikt = np.exp(1j * k * T)
    core = d.theta_plus * (d.L_plus - d.L_minus * eikt)
    x1 = lam_phase / 4.0 * (core + 2.0 * xi * d.theta_minus)
    x2 = lam_phase / 4.0 * (core - 2.0 * xi * d.theta_minus)
    x3 = lam_phase * d.theta_plus / k * (1.0 - eikt)
    return x1, x2, x3


def phi_amplitudes(alpha: float, epsilon: float, lam: float, T):
    """(x1, x2, x3, x4, x5) for the PHI family; T may be scalar or array."""
    _check_domain(alpha, epsilon)
    T = np.asarray(T, dtype=float)
    eta = derive_constants(epsilon, alpha).eta
    gam = math.cos(alpha) * np.exp(-0.5j * (2.0 * lam + epsilon + eta) * T)
    eieta = np.exp(1j * eta * T)
    m_plus, m_minus = 1.0 + eieta, 1.0 - eieta
    half_split = np.exp(0.5j * (epsilon + eta) * T)
    sym = m_plus - (epsilon / eta) * m_minus
    x1 = gam / 4.0 * (sym + 2.0 * half_split)
    x2 = np.exp(1j * lam * T) * math.sin(alpha)
    x3 = gam * m_minus / eta
    x5 = gam / 4.0 * (sym - 2.0 * half_split)
    return x1, x2, x3, x3, x5


def amplitudes(family: Family, alpha: float, epsilon: float, lam: float, T):
    """Closed-form amplitudes of either family, in ``SUPPORT_KETS`` order.

    ``lam`` enters PHI phases only; T may be a scalar or array.
    """
    if family is Family.PSI:
        return psi_amplitudes(alpha, epsilon, T)
    return phi_amplitudes(alpha, epsilon, lam, T)


def closed_form_states(spec: InitialStateSpec, params: ModelParams, basis: Basis,
                       T_grid) -> np.ndarray:
    """Closed-form state vectors on a time grid, shape (len(T_grid), basis.size).

    Each amplitude is placed on its ket in ``model.SUPPORT_KETS``; the basis
    must hold every such ket (n_max >= 1 for PSI, >= 2 for PHI).
    """
    T_grid = np.atleast_1d(np.asarray(T_grid, dtype=float))
    idx = basis.support_indices(spec.family)
    states = np.zeros((T_grid.size, basis.size), dtype=complex)
    states[:, idx] = np.stack(amplitudes(spec.family, spec.alpha, params.epsilon,
                                         params.lam, T_grid), axis=-1)
    return states
