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
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        if path is TracePath.ANALYTIC:
            xs = analytic.amplitudes(spec.family, alpha, eps, lam, T_grid)
            C = 2.0 * np.maximum(0.0, _branch(spec.family, xs))
            signed = 2.0 * np.real(xs[0] * np.conj(xs[1])) if psi_family else None
            abs_amps = np.abs(np.stack(xs, axis=-1))
            finite = np.isfinite(C) & np.all(np.isfinite(abs_amps), axis=-1)
        else:
            basis = Basis(params.n_max)
            decomp = propagator.decompose_model(params, basis)
            psis = propagator.evolve_grid(initial_state(spec, basis), decomp, T_grid)
            finite = np.all(np.isfinite(psis), axis=-1)
    if not np.all(finite):
        raise ValueError(f"concurrence trace is not finite at alpha = {alpha:.15g}, "
                         f"epsilon = {eps:.15g}, T = {T_grid[np.argmin(finite)]:.15g}: "
                         "epsilon or T is too large for double precision")
    if path is TracePath.ORACLE:   # one batched pass per trace, finite states only
        C = entanglement.pure_concurrence(psis, basis)
        signed = (2.0 * entanglement.reduce_to_atoms(psis, basis)[:, 1, 2].real
                  if psi_family else None)
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


def _bisect_roots(fn, lo: np.ndarray, hi: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Roots of the sign changes of ``sign * fn`` on the brackets [lo, hi],
    bisected together; each stops once its bracket is at most ``_BISECT_TOL``."""
    lo_positive = sign * fn(lo) > 0
    for _ in range(200):
        k = np.flatnonzero(hi - lo > _BISECT_TOL)
        if k.size == 0:
            break
        mid = 0.5 * (lo[k] + hi[k])
        same = (sign[k] * fn(mid) > 0) == lo_positive[k]
        lo[k[same]], hi[k[~same]] = mid[same], mid[~same]
    return 0.5 * (lo + hi)


def detect_death_intervals(trace: ConcurrenceTrace,
                           zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> list[DeathInterval]:
    """Maximal runs with C below threshold, endpoints refined by bisection.

    A genuine window has the signed X-state branch strictly negative in its
    interior; an isolated tangential zero (the concurrence touching zero at
    a point) keeps the branch >= 0 and is excluded no matter how many grid
    points fall inside the dip.  Runs shorter than ``MIN_RUN_POINTS`` grid
    points are likewise excluded.  Endpoints interior to the grid are
    refined on the closed-form branch expression to 1e-10 in T, between the
    outside neighbour and the run's middle point; a run touching the grid
    boundary keeps the boundary point and is marked unrefined.
    """
    T = trace.T_grid
    below = trace.C < zero_threshold
    edges = np.diff(below.astype(np.int8), prepend=0, append=0)
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1
    if starts.size == 0:
        return []
    branch = _branch_fn(trace)
    lengths = ends - starts + 1
    run_min = np.minimum.reduceat(branch(T[below]), np.cumsum(lengths) - lengths)
    keep = (lengths >= MIN_RUN_POINTS) & (run_min < -0.5 * zero_threshold)
    starts, ends = starts[keep], ends[keep]

    # the branch is positive before a window opens and negative inside it,
    # so a closing edge is bisected on -branch
    left, right = starts > 0, ends < T.size - 1
    n_left = np.count_nonzero(left)
    t_mid = T[(starts + ends) // 2]
    roots = _bisect_roots(branch, np.concatenate([T[starts[left] - 1], t_mid[right]]),
                          np.concatenate([t_mid[left], T[ends[right] + 1]]),
                          np.repeat([1.0, -1.0], [n_left, np.count_nonzero(right)]))
    t_start, t_end = T[starts], T[ends]
    t_start[left], t_end[right] = roots[:n_left], roots[n_left:]
    return [DeathInterval(a, b, r) for a, b, r in
            zip(t_start.tolist(), t_end.tolist(), (left & right).tolist())]


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
