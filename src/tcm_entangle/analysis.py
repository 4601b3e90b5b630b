"""Concurrence traces, sudden-death windows, period and maximum estimation.

A trace samples C(T) on an ascending grid by one of two paths:

* ``ANALYTIC`` — closed-form amplitudes plus the X-state concurrence;
* ``ORACLE`` — numerical propagation, partial trace and the general
  eigenvalue concurrence.

The two paths agree to ~1e-12 and are compared wholesale in the tests.
Window endpoints, maxima and periods are always refined on the analytic
expressions, which are smooth between grid points.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import analytic, entanglement, propagator
from .model import Basis, Family, InitialStateSpec, ModelParams, derive_constants, initial_state

DEFAULT_ZERO_THRESHOLD = 1e-9
#: a sub-threshold run must span at least this many grid points to count
#: as a death window; shorter runs are isolated zero touches
MIN_RUN_POINTS = 3
_BISECT_TOL = 1e-10
#: largest relative step deviation for which a grid counts as uniform
_UNIFORM_RTOL = 1e-6


class TracePath(enum.Enum):
    ANALYTIC = "ANALYTIC"
    ORACLE = "ORACLE"


@dataclass(frozen=True)
class ConcurrenceTrace:
    family: Family
    alpha: float
    epsilon: float
    lam: float
    T_grid: np.ndarray
    C: np.ndarray
    signed_C: np.ndarray | None   # PSI only: the signed cross term 2 Re(x1 x2*)
    abs_amplitudes: np.ndarray    # |x_i| per grid point, shape (npts, 3 or 5)


def _branch(family: Family, xs):
    """Signed X-state branch of the closed-form state with amplitudes ``xs``.

    The reduced atomic state of either family is X-shaped; its entries
    follow from which ``SUPPORT_KETS`` share a field state.  PSI:
    rho = diag(0, |x1|^2, |x2|^2, |x3|^2) with rho_23 = x1 x2*.  PHI:
    rho = diag(|x1|^2, |x4|^2, |x3|^2, |x2|^2 + |x5|^2) with
    rho_23 = x4 x3* and rho_14 = x1 x2*.
    """
    if family is Family.PSI:
        x1, x2, x3 = xs
        diag = (0.0, np.abs(x1) ** 2, np.abs(x2) ** 2, np.abs(x3) ** 2)
        return entanglement.xstate_branch(diag, x1 * np.conj(x2), 0.0)
    x1, x2, x3, x4, x5 = xs
    diag = (np.abs(x1) ** 2, np.abs(x4) ** 2, np.abs(x3) ** 2,
            np.abs(x2) ** 2 + np.abs(x5) ** 2)
    return entanglement.xstate_branch(diag, x4 * np.conj(x3), x1 * np.conj(x2))


def _branch_fn(trace: ConcurrenceTrace):
    return lambda T: _branch(trace.family, analytic.amplitudes(
        trace.family, trace.alpha, trace.epsilon, trace.lam, T))


def analytic_concurrence(trace_like, T):
    """Closed-form C at arbitrary T for the parameters of a trace."""
    return 2.0 * np.maximum(0.0, _branch_fn(trace_like)(T))


def concurrence_trace(spec: InitialStateSpec, params: ModelParams,
                      T_grid, path: TracePath = TracePath.ANALYTIC) -> ConcurrenceTrace:
    """Sample the atom-atom concurrence over an ascending time grid."""
    T_grid = np.asarray(T_grid, dtype=float)
    if T_grid.ndim != 1 or T_grid.size == 0:
        raise ValueError("T_grid must be a non-empty 1-d array")
    if T_grid.size > 1 and np.any(np.diff(T_grid) <= 0):
        raise ValueError("T_grid must be strictly ascending")

    alpha, eps, lam = spec.alpha, params.epsilon, params.lam
    psi_family = spec.family is Family.PSI
    if path is TracePath.ANALYTIC:
        xs = analytic.amplitudes(spec.family, alpha, eps, lam, T_grid)
        C = 2.0 * np.maximum(0.0, _branch(spec.family, xs))
        signed = 2.0 * np.real(xs[0] * np.conj(xs[1])) if psi_family else None
        abs_amps = np.abs(np.stack(xs, axis=-1))
    else:
        basis = Basis(params.n_max)
        decomp = propagator.decompose_model(params, basis)
        psis = propagator.evolve_grid(initial_state(spec, basis), decomp, T_grid)
        C = np.array([entanglement.pure_concurrence(psi, basis) for psi in psis])
        signed = np.array([
            entanglement.signed_cross_term(entanglement.reduce_to_atoms(psi, basis))
            for psi in psis]) if psi_family else None
        abs_amps = np.abs(psis[:, basis.support_indices(spec.family)])

    return ConcurrenceTrace(family=spec.family, alpha=alpha, epsilon=eps, lam=lam,
                            T_grid=T_grid, C=np.atleast_1d(C),
                            signed_C=None if signed is None else np.atleast_1d(signed),
                            abs_amplitudes=np.atleast_2d(abs_amps))


@dataclass(frozen=True)
class DeathInterval:
    """A maximal window of zero entanglement, endpoints in dimensionless time."""

    T_start: float
    T_end: float
    refined: bool

    @property
    def length(self) -> float:
        return self.T_end - self.T_start


def _bisect_root(fn, lo: float, hi: float, tol: float = _BISECT_TOL) -> float:
    """Root of a sign change of fn on [lo, hi] to absolute tolerance in T."""
    flo = float(fn(lo))
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fmid = float(fn(mid))
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def detect_death_intervals(trace: ConcurrenceTrace,
                           zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> list[DeathInterval]:
    """Maximal runs with C below threshold, endpoints refined by bisection.

    A genuine window has the signed X-state branch strictly negative in its
    interior; an isolated tangential zero (the concurrence touching zero at
    a point) keeps the branch >= 0 and is excluded no matter how many grid
    points fall inside the dip.  Runs shorter than ``MIN_RUN_POINTS`` grid
    points are likewise excluded.  Endpoints interior to the grid are
    refined on the closed-form branch expression to 1e-10 in T; a run
    touching the grid boundary keeps the boundary point and is marked
    unrefined.
    """
    T, C = trace.T_grid, trace.C
    below = C < zero_threshold
    intervals: list[DeathInterval] = []
    branch = _branch_fn(trace)
    n = len(T)
    i = 0
    while i < n:
        if not below[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and below[j + 1]:
            j += 1
        interior_negative = float(np.min(branch(T[i:j + 1]))) < -0.5 * zero_threshold
        if j - i + 1 >= MIN_RUN_POINTS and interior_negative:
            refined = True
            if i > 0:
                t_start = _bisect_root(branch, T[i - 1], T[i + (j - i) // 2])
            else:
                t_start, refined = T[0], False
            if j < n - 1:
                # bisect with reversed orientation: branch < 0 inside the run
                t_mid = T[i + (j - i) // 2]
                t_end = _bisect_root(lambda t: -branch(t), t_mid, T[j + 1])
            else:
                t_end, refined = T[-1], False
            intervals.append(DeathInterval(float(t_start), float(t_end), refined))
        i = j + 1
    return intervals


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, lo: float, hi: float, tol: float = 1e-12):
    """Golden-section maximization on [lo, hi]."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = float(fn(c)), float(fn(d))
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = float(fn(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = float(fn(d))
    t = 0.5 * (a + b)
    return float(fn(t)), t


def max_concurrence(trace: ConcurrenceTrace) -> tuple[float, float]:
    """(C_max, T_at_max): grid argmax refined by golden section.

    Refinement runs on the closed-form concurrence within the grid cell
    bracketing the argmax.
    """
    if trace.T_grid.size == 0:
        raise ValueError("empty trace")
    k = int(np.argmax(trace.C))
    lo = trace.T_grid[max(k - 1, 0)]
    hi = trace.T_grid[min(k + 1, len(trace.T_grid) - 1)]
    if hi <= lo:
        return float(trace.C[k]), float(trace.T_grid[k])
    fn = lambda t: analytic_concurrence(trace, t)
    c_ref, t_ref = _golden_max(fn, float(lo), float(hi))
    if c_ref >= trace.C[k]:
        return c_ref, t_ref
    return float(trace.C[k]), float(trace.T_grid[k])


def estimate_period(trace: ConcurrenceTrace) -> float:
    """Dominant period of C(T) from the spectral peak of the trace.

    The demeaned trace is Hann-windowed and the strongest non-zero frequency
    bin is refined by log-parabolic interpolation; for a dipole-coupled
    trace the components are incommensurate, so this reports the dominant
    component rather than an exact repeat time.  Requires a uniform grid
    spanning at least three nominal periods 2*pi/kappa.
    """
    T, C = trace.T_grid, trace.C
    kappa = derive_constants(trace.epsilon, trace.alpha).kappa
    nominal = 2.0 * math.pi / kappa
    if T[-1] - T[0] < 3.0 * nominal:
        raise ValueError("trace too short: need at least three nominal periods")
    steps = np.diff(T)
    dt = float(np.mean(steps))
    if np.max(np.abs(steps - dt)) > _UNIFORM_RTOL * dt:
        raise ValueError("T_grid must be uniformly spaced to estimate a period")
    x = C - np.mean(C)
    n = len(x)
    F = np.abs(np.fft.rfft(x * np.hanning(n)))
    if F.size < 3 or not np.any(F[1:] > 0):
        raise ValueError("no oscillation found in trace")
    k = 1 + int(np.argmax(F[1:]))
    if 0 < k < F.size - 1 and F[k - 1] > 0 and F[k + 1] > 0:
        lm, l0, lp = np.log(F[k - 1]), np.log(F[k]), np.log(F[k + 1])
        denom = lm - 2.0 * l0 + lp
        delta = 0.5 * (lm - lp) / denom if denom != 0 else 0.0
    else:
        delta = 0.0
    return n * dt / (k + float(delta))
