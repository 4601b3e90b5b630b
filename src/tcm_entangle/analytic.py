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

Only cos(a) and sin(a) depend on alpha.  Whole-grid evaluations
(``analysis.concurrence_trace`` on the ANALYTIC path and
``closed_form_states``) take the alpha-free terms (``_psi_terms``,
``_phi_terms``) from a cache of at most 8 MiB keyed by eps, lam and the
grid's exact bytes; refinement calls on a few points share one set of terms
among the alpha of every point instead (the private ``_at``).  The
amplitudes keep their bytes because a cached array that stood as the only
temporary operand of a product is copied first (derived in
``tests/test_analytic.py::TestGridCache``).
"""

from __future__ import annotations

import math
import struct
import threading
from collections import OrderedDict

import numpy as np

from .model import (Family, InitialStateSpec, ModelParams, require_alpha, require_epsilon,
                    require_finite, require_grid, require_instance, require_numbers)


class _GridCache:
    """Alpha-free terms of whole-grid evaluations, the least recently used
    evicted first, never more than ``limit`` bytes in all.

    An entry is keyed by the function that computes it, the bits of its
    scalar arguments and the grid's shape and exact bytes.  Its arrays are
    read-only; an entry larger than ``limit`` is computed and not stored."""

    def __init__(self, limit: int):
        self.limit = limit
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def terms(self, compute, args: tuple, T: np.ndarray) -> tuple:
        """``compute(*args, T)``, stored or reused."""
        key = (compute, struct.pack(f"{len(args)}d", *args), T.shape, T.tobytes())
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                self._entries.move_to_end(key)
                return found
        found = compute(*args, T)
        size = sum(a.nbytes for a in found)
        for a in found:
            a.flags.writeable = False
        if size <= self.limit:
            with self._lock:
                if key not in self._entries:
                    self._entries[key] = found
                    self.nbytes += size
                while self.nbytes > self.limit:
                    _, evicted = self._entries.popitem(last=False)
                    self.nbytes -= sum(a.nbytes for a in evicted)
        return found


#: 8 MiB holds six PHI entries of 20,001 points
_GRID_CACHE = _GridCache(8 * 2**20)


def _psi_terms(epsilon: float, T: np.ndarray) -> tuple:
    k = math.sqrt(8.0 + epsilon * epsilon)
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
    k = math.sqrt(8.0 + epsilon * epsilon)
    theta_plus = cos_a + sin_a
    theta_minus = cos_a - sin_a
    lam_phase, split, xi2, one_minus = (_GRID_CACHE.terms(_psi_terms, (epsilon,), T)
                                        if _cached else _psi_terms(epsilon, T))
    core = theta_plus * split.copy()   # a temporary rounds as the uncached product
    x1 = lam_phase / 4.0 * (core + xi2 * theta_minus)
    x2 = lam_phase / 4.0 * (core - xi2 * theta_minus)
    x3 = lam_phase * theta_plus / k * one_minus
    return x1, x2, x3


def _phi_terms(epsilon: float, lam: float, T: np.ndarray) -> tuple:
    eta = math.sqrt(16.0 + epsilon * epsilon)
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
    eta = math.sqrt(16.0 + epsilon * epsilon)
    gam_phase, lam_phase, m_minus, sym_plus, sym_minus = (
        _GRID_CACHE.terms(_phi_terms, (epsilon, lam), T) if _cached
        else _phi_terms(epsilon, lam, T))
    gam = cos_a * gam_phase.copy()   # temporaries round as the uncached products
    x1 = gam / 4.0 * sym_plus
    x2 = lam_phase.copy() * sin_a
    x3 = gam * m_minus / eta
    x5 = gam / 4.0 * sym_minus
    return x1, x2, x3, x3, x5


def amplitudes(family: Family, alpha: float, epsilon: float, lam: float, T, *,
               _cached: bool = False, _at=None):
    """Closed-form amplitudes of either family, in ``SUPPORT_KETS`` order.

    ``lam`` enters PHI phases only, but must be finite for PSI too; T may be
    a scalar or array."""
    require_instance("family", family, Family)
    if family is Family.PSI:   # phi_amplitudes checks lam itself
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
