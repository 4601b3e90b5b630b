"""Closed-form time-dependent amplitudes for both initial-state families.

This is the second, independent computation path; it never touches the
numerical propagator.  The formulas solve H/g of :mod:`.hamiltonian`
exactly, in eps = Omega/g and lam = omega_0/g over dimensionless time
T = g*t.  lam enters the PHI phases only, never the concurrence.

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

kappa and eta, and the rates of the |x_i|^2 built from them, are written
once, in ``_rates``; ``analysis.estimate_period`` reads them there too.

Only cos(a) and sin(a) depend on alpha.  Whole-grid evaluations
(``analysis.concurrence_trace`` on the ANALYTIC path and
``closed_form_states``) take the alpha-free terms (``_psi_terms``,
``_phi_terms``) from a lock-guarded store (``_terms``) keyed by the
function, the bits of eps and lam and the grid's shape and exact bytes: at
most 8 MiB of read-only arrays, the least recently used evicted first, and
an entry larger than that neither stored nor evicting any.  Refinement
calls on a few points share one set of terms among the alpha of every point
instead (the private ``_at``).  No stored array is copied: numpy computes
an operation in place only in an unnamed temporary, never in a term, so a
cached and a plain call round every product alike.
"""

from __future__ import annotations

import math
import struct
import threading

import numpy as np

from .model import (Family, InitialStateSpec, ModelParams, require_alpha, require_epsilon,
                    require_finite, require_grid, require_instance, require_numbers)


#: the alpha-free terms of whole-grid evaluations, the least recently used first
_STORE: dict = {}
_STORE_LOCK = threading.Lock()
#: most bytes of arrays the store holds: five PHI entries of 20,001 points
_STORE_BOUND = 8 * 2**20


def _terms(compute, args: tuple, T: np.ndarray, cached: bool) -> tuple:
    """``compute(*args, T)``; with ``cached``, from the store or put in it."""
    if not cached:
        return compute(*args, T)
    key = (compute, struct.pack(f"{len(args)}d", *args), T.shape, T.tobytes())
    with _STORE_LOCK:
        found = _STORE.pop(key, None)
        if found is not None:
            _STORE[key] = found   # now the most recently used
            return found
    found = compute(*args, T)
    for a in found:
        a.flags.writeable = False
    if sum(a.nbytes for a in found) <= _STORE_BOUND:
        with _STORE_LOCK:
            _STORE.setdefault(key, found)
            while sum(a.nbytes for entry in _STORE.values() for a in entry) > _STORE_BOUND:
                del _STORE[next(iter(_STORE))]
    return found


#: the members as module constants: reading ``Family.PSI`` costs about 0.1 us
#: on CPython 3.11, and every amplitude call reads one or two
_PSI, _PHI = Family.PSI, Family.PHI


def _rates(family: Family, epsilon: float) -> tuple:
    """Angular frequencies of the |x_i|^2 of ``family`` at dipole strength
    ``epsilon``, its Rabi splitting first: kappa, (3 eps + kappa)/2 and
    |3 eps - kappa|/2 for PSI; eta, (eps + eta)/2 and (eta - eps)/2 for PHI.
    Every caller has checked ``epsilon`` already."""
    if family is _PSI:
        k = math.sqrt(8.0 + epsilon * epsilon)
        return k, (3.0 * epsilon + k) / 2.0, abs(3.0 * epsilon - k) / 2.0
    eta = math.sqrt(16.0 + epsilon * epsilon)
    return eta, (epsilon + eta) / 2.0, (eta - epsilon) / 2.0


def _psi_terms(epsilon: float, k: float, T: np.ndarray) -> tuple:
    L_plus = epsilon / k + 1.0
    L_minus = epsilon / k - 1.0
    lam_phase = np.exp(-0.5j * k * L_plus * T)
    xi = np.exp(0.5j * (3.0 * L_plus - 2.0) * k * T)
    eikt = np.exp(1j * k * T)
    return lam_phase, L_plus - L_minus * eikt, 2.0 * xi, 1.0 - eikt


def _alpha_factors(alpha, epsilon: float, at):
    """cos(alpha) and sin(alpha), epsilon and each alpha checked.  With ``at``,
    alpha is a sequence and point i of T takes the factors of alpha[at[i]]."""
    require_epsilon("epsilon", epsilon)
    if at is None:
        require_alpha("alpha", alpha)
        return math.cos(alpha), math.sin(alpha)
    alpha = [require_alpha("alpha", a) for a in alpha]
    return np.array([[math.cos(a) for a in alpha], [math.sin(a) for a in alpha]]).take(at, axis=1)


def psi_amplitudes(alpha: float, epsilon: float, T, *, _cached: bool = False, _at=None):
    """(x1, x2, x3) for the PSI family; T may be a scalar or array."""
    cos_a, sin_a = _alpha_factors(alpha, epsilon, _at)
    T = require_numbers("T", T)
    k = _rates(_PSI, epsilon)[0]
    theta_plus = cos_a + sin_a
    theta_minus = cos_a - sin_a
    lam_phase, split, xi2, one_minus = _terms(_psi_terms, (epsilon, k), T, _cached)
    core = theta_plus * split
    x1 = lam_phase / 4.0 * (core + xi2 * theta_minus)
    x2 = lam_phase / 4.0 * (core - xi2 * theta_minus)
    x3 = lam_phase * theta_plus / k * one_minus
    return x1, x2, x3


def _phi_terms(epsilon: float, lam: float, eta: float, T: np.ndarray) -> tuple:
    gam_phase = np.exp(-0.5j * (2.0 * lam + epsilon + eta) * T)
    eieta = np.exp(1j * eta * T)
    m_plus, m_minus = 1.0 + eieta, 1.0 - eieta
    half_split = np.exp(0.5j * (epsilon + eta) * T)
    sym = m_plus - (epsilon / eta) * m_minus
    return (gam_phase, np.exp(1j * lam * T), m_minus,
            sym + 2.0 * half_split, sym - 2.0 * half_split)


def phi_amplitudes(alpha: float, epsilon: float, lam: float, T, *, _cached: bool = False,
                   _at=None):
    """(x1, x2, x3, x4, x5) for the PHI family; T may be scalar or array."""
    cos_a, sin_a = _alpha_factors(alpha, epsilon, _at)
    require_finite("lam", lam)
    T = require_numbers("T", T)
    eta = _rates(_PHI, epsilon)[0]
    gam_phase, lam_phase, m_minus, sym_plus, sym_minus = _terms(
        _phi_terms, (epsilon, lam, eta), T, _cached)
    gam = cos_a * gam_phase
    x1 = gam / 4.0 * sym_plus
    x2 = lam_phase * sin_a
    x3 = gam * m_minus / eta
    x5 = gam / 4.0 * sym_minus
    return x1, x2, x3, x3, x5


def amplitudes(family: Family, alpha: float, epsilon: float, lam: float, T, *,
               _cached: bool = False, _at=None):
    """Closed-form amplitudes of either family, in ``SUPPORT_KETS`` order.

    ``lam`` enters PHI phases only, but must be finite for PSI too; T may be
    a scalar or array."""
    require_instance("family", family, Family)
    if family is _PSI:   # phi_amplitudes checks lam itself
        require_finite("lam", lam)
        return psi_amplitudes(alpha, epsilon, T, _cached=_cached, _at=_at)
    return phi_amplitudes(alpha, epsilon, lam, T, _cached=_cached, _at=_at)


def closed_form_states(spec: InitialStateSpec, params: ModelParams, T_grid) -> np.ndarray:
    """Closed-form state vectors on a time grid, one row per point on
    ``params.basis``; each amplitude is placed on its ket in
    ``model.SUPPORT_KETS``.  ``T_grid`` must pass ``model.require_grid``."""
    require_instance("spec", spec, InitialStateSpec)
    require_instance("params", params, ModelParams)
    T_grid = require_grid(T_grid)
    basis = params.basis
    idx = basis.support_indices(spec.family)
    states = np.zeros((T_grid.size, basis.size), dtype=complex)
    states[:, idx] = np.stack(amplitudes(spec.family, spec.alpha, params.epsilon,
                                         params.lam, T_grid, _cached=True), axis=-1)
    return states
