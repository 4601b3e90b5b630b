"""Concurrence traces, sudden-death windows, period and maximum estimation.

A trace samples C(T) on an ascending grid by one of three paths:

* ``ANALYTIC`` — closed-form amplitudes plus the X-state concurrence;
* ``ORACLE`` — numerical propagation, partial trace and the general
  eigenvalue concurrence;
* ``BOTH`` — the ANALYTIC trace, certified point by point to agree with
  propagation within ``TRACE_AGREEMENT_TOL``.

ANALYTIC and ORACLE agree to within 2e-14 at the CLI's lambda = 2 on its
default grids.  The ``trace_agreement`` verify suite compares them at every
point against 1e-9.  Propagation drifts from the closed forms as
lambda (which enters only its eigenproblem) or T grows.
Window endpoints, maxima and periods are always refined on the analytic
expressions, which are smooth between grid points.  The death windows of
traces that share family, epsilon, lambda and grid (the alpha of one
figure's epsilon) are refined together by :func:`death_windows`, each
closed-form call covering every trace.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import analytic, entanglement, propagator
from .model import (Family, InitialStateSpec, ModelParams, _shown, initial_state, require_grid,
                    require_instance, require_positive)

DEFAULT_ZERO_THRESHOLD = 1e-9
_BISECT_TOL = 1e-10
_BISECT_STEPS = 200
#: bisection steps a bracket speculates per closed-form call (:func:`_bisect_roots`)
_SPECULATE = 12
#: most points a round of speculated steps evaluates in one call, so its
#: temporaries stay small however many brackets are open (one step each
#: once the open brackets alone are as many)
_SPECULATE_POINTS = 16384
#: largest relative step deviation for which a grid counts as uniform
_UNIFORM_RTOL = 1e-6
#: largest |C(analytic) - C(oracle)| a BOTH trace accepts at any point
TRACE_AGREEMENT_TOL = 1e-9


class TracePath(enum.Enum):
    ANALYTIC = "ANALYTIC"
    ORACLE = "ORACLE"
    BOTH = "BOTH"


class TraceDisagreement(ValueError):
    """The analytic and oracle traces of a BOTH trace differ beyond tolerance."""


@dataclass(frozen=True)
class ConcurrenceTrace:
    spec: InitialStateSpec
    params: ModelParams
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
    rho_23 = x4 x3* and rho_14 = x1 x2*.  ``analytic.phi_amplitudes``
    returns x4 as the same array as x3 (x3 = x4 = Gam M- / eta), so
    rho_22 = rho_33 is computed once.  The products are ufunc calls, which
    numpy never computes in place of a temporary operand, so a point's
    value does not depend on how many points a call holds.
    """
    if family is Family.PSI:
        x1, x2, x3 = xs
        diag = (0.0, np.abs(x1) ** 2, np.abs(x2) ** 2, np.abs(x3) ** 2)
        return entanglement.xstate_branch(diag, np.multiply(x1, np.conj(x2)), 0.0)
    x1, x2, x3, x4, x5 = xs
    r33 = np.abs(x3) ** 2
    diag = (np.abs(x1) ** 2, r33, r33, np.abs(x2) ** 2 + np.abs(x5) ** 2)
    return entanglement.xstate_branch(diag, np.multiply(x4, np.conj(x3)),
                                      np.multiply(x1, np.conj(x2)))


def _branch_fn(traces):
    """The closed-form branch of ``traces`` (sharing family, epsilon and lam)
    as ``fn(t, at)``, point i of ``t`` at the alpha of ``traces[at[i]]``; a
    lone trace's alpha goes in as a scalar, and ``at`` is ignored."""
    family, params = traces[0].spec.family, traces[0].params
    if len(traces) == 1:
        alpha = traces[0].spec.alpha
        return lambda t, at=None: _branch(family, analytic.amplitudes(
            family, alpha, params.epsilon, params.lam, t))
    alphas = [trace.spec.alpha for trace in traces]
    return lambda t, at: _branch(family, analytic.amplitudes(
        family, alphas, params.epsilon, params.lam, t, _at=at))


def _require_finite(finite: np.ndarray, spec: InitialStateSpec, params: ModelParams,
                    T_grid: np.ndarray):
    if not np.all(finite):
        raise ValueError(f"concurrence trace is not finite at alpha = {spec.alpha:.15g}, "
                         f"epsilon = {params.epsilon:.15g}, "
                         f"T = {T_grid[np.argmin(finite)]:.15g}: "
                         "epsilon or T is too large for double precision")


def _used_block(states: np.ndarray, kets: np.ndarray, spec: InitialStateSpec,
                params: ModelParams, T_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The used columns of propagated ``states``, whose columns are the
    ascending basis kets ``kets``, and the states on them, each checked
    finite and of unit norm.

    The used columns are those nonzero in some state, joined with the
    family's ``SUPPORT_KETS``, which ``kets`` must hold.  They are read from
    the states, not from the decomposition, so amplitude that leaks outside
    the occupied eigenspace is seen.  Both checks read the row norms over
    these columns: every other entry is an exact zero, so each norm is the
    whole row's up to summation order.  An entry of a propagated state is
    bounded by the basis size, so a norm is non-finite exactly when some
    entry of its row is (a NaN entry counts as nonzero, so its column is
    used)."""
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        used = np.any(states, axis=0) | np.isin(kets, params.basis.support_indices(spec.family))
        block = states if used.all() else states[:, used]
        norm = np.linalg.norm(block, axis=-1)
    _require_finite(np.isfinite(norm), spec, params, T_grid)
    entanglement.require_unit_norms(norm)
    return kets[used], block


def occupied_states(spec: InitialStateSpec, params: ModelParams,
                    T_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States propagated from the initial state of ``spec`` over ``T_grid``
    under H/g of ``params``, whole rows of ``basis.size`` entries, and the
    ascending indices of their used columns, on which :func:`_used_block`
    checks each state."""
    require_instance("spec", spec, InitialStateSpec)
    require_instance("params", params, ModelParams)
    basis = params.basis
    with np.errstate(over="ignore", invalid="ignore"):   # reported by _used_block
        psis = propagator.evolve_grid(initial_state(spec, basis), params.decomposition,
                                      T_grid)
    return psis, _used_block(psis, np.arange(basis.size), spec, params, T_grid)[0]


def _certify(spec: InitialStateSpec, params: ModelParams, T_grid: np.ndarray,
             C: np.ndarray, xs):
    """Raise ``TraceDisagreement`` unless the closed-form C, from amplitudes
    ``xs`` (one array per support ket), agrees with propagation, which runs
    on the rows a state can occupy and the support kets only.  Points the
    bound leaves uncertified take the oracle C of their certified states,
    placed on whole rows."""
    basis = params.basis
    support = basis.support_indices(spec.family)
    psi0 = initial_state(spec, basis)
    w, V = params.decomposition
    rows = np.union1d(propagator.occupied(psi0, V)[2], support)
    with np.errstate(over="ignore", invalid="ignore"):   # reported by _used_block
        narrow = propagator.evolve_grid(psi0[rows], propagator.SpectralDecomposition(w, V[rows]),
                                        T_grid)
    columns, psis = _used_block(narrow, rows, spec, params, T_grid)
    closed = np.zeros((T_grid.size, columns.size), dtype=complex)
    for column, x in zip(np.searchsorted(columns, support).tolist(), xs):
        closed[:, column] = x
    bound = entanglement.concurrence_gap_bound(closed, psis, basis)
    check = np.flatnonzero(bound > TRACE_AGREEMENT_TOL / 10)
    if check.size == 0:
        return
    whole = np.zeros((check.size, basis.size), dtype=complex)
    whole[:, columns] = psis[check]
    oracle = entanglement._block_concurrence(entanglement._atom_blocks(whole))
    gaps = np.abs(C[check] - oracle)
    if np.any(gaps > TRACE_AGREEMENT_TOL):
        worst = np.argmax(gaps)
        raise TraceDisagreement(
            f"analytic/oracle traces disagree by {gaps[worst]:.3e} "
            f"(tolerance {TRACE_AGREEMENT_TOL:.0e}) at alpha = {spec.alpha:.15g}, "
            f"epsilon = {params.epsilon:.15g}, T = {T_grid[check[worst]]:.15g}")


def concurrence_trace(spec: InitialStateSpec, params: ModelParams,
                      T_grid, path: TracePath = TracePath.ANALYTIC) -> ConcurrenceTrace:
    """Sample the atom-atom concurrence over an ascending time grid.

    The ORACLE and BOTH paths propagate under H/g of ``params``, decomposed
    once per params object (``ModelParams.decomposition``).

    BOTH returns the ANALYTIC trace once it is certified against
    propagation, and raises ``TraceDisagreement`` otherwise.  Each point's
    gap is bounded by ``entanglement.concurrence_gap_bound``,
    |C(a) - C(o)| <= (n_max+1)^2 e (||a|| + ||o||) for the closed-form state
    a and the propagated state o at distance e once their global phases are
    aligned.  Only the rows the initial state can occupy are propagated
    (:func:`_certify`), O(points x occupied kets) in memory, and both states
    are read on the used columns (those nonzero somewhere in the evolution,
    and the family's support kets): every other entry of both is an exact
    zero, so the closed-form block is built there straight from the
    trace's amplitudes.  A point whose bound is at most
    TRACE_AGREEMENT_TOL / 10 is certified (the margin covers the rounding
    of both computed C); only the other points, if any, get the oracle C
    of ``pure_concurrence`` (W. K. Wootters, PRL 80, 2245, 1998) from the
    same propagated states and are compared with the tolerance.  A point
    whose gap exceeds the tolerance cannot be certified, so a failing trace
    fails at the same alpha, epsilon and T with the same gap, to rounding,
    as a comparison at every point.  Every propagated state is checked
    finite and of unit norm (:func:`_used_block`), once: the oracle C is
    taken from ``pure_concurrence``'s unchecked core."""
    require_instance("spec", spec, InitialStateSpec)
    require_instance("params", params, ModelParams)
    require_instance("path", path, TracePath)
    T_grid = require_grid(T_grid)

    psi_family = spec.family is Family.PSI
    if path is not TracePath.ORACLE:
        with np.errstate(over="ignore", invalid="ignore"):   # reported below
            xs = analytic.amplitudes(spec.family, spec.alpha, params.epsilon,
                                     params.lam, T_grid, _cached=True)
            C = 2.0 * np.maximum(0.0, _branch(spec.family, xs))
            signed = 2.0 * np.real(np.multiply(xs[0], np.conj(xs[1]))) if psi_family else None
            abs_amps = np.stack([np.abs(x) for x in xs], axis=-1)
        if not (np.isfinite(C).all() and np.isfinite(abs_amps).all()):   # find the first T
            _require_finite(np.isfinite(C) & np.all(np.isfinite(abs_amps), axis=-1),
                            spec, params, T_grid)
        if path is TracePath.BOTH:
            _certify(spec, params, T_grid, C, xs)
    else:   # one batched pass per trace
        psis = occupied_states(spec, params, T_grid)[0]
        C = entanglement._block_concurrence(entanglement._atom_blocks(psis))
        signed = 2.0 * entanglement.reduce_to_atoms(psis)[:, 1, 2].real if psi_family else None
        abs_amps = np.abs(psis[:, params.basis.support_indices(spec.family)])

    return ConcurrenceTrace(spec, params, T_grid, C, signed, abs_amps)


@dataclass(frozen=True)
class DeathInterval:
    """A maximal window of zero entanglement, endpoints in dimensionless time."""

    T_start: float
    T_end: float
    refined: bool

    @property
    def length(self) -> float:
        return self.T_end - self.T_start


def _secant(a, fa, b, fb):
    """Zero of the line through (a, fa) and (b, fb), a prediction: it may be NaN."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return a - fa * (b - a) / (fb - fa)


def _bisect_roots(fn, lo: np.ndarray, hi: np.ndarray, sign: np.ndarray,
                  hint: np.ndarray) -> np.ndarray:
    """Roots of the sign changes of ``sign * fn`` on the brackets [lo, hi],
    bisected together; ``fn(t, k)`` evaluates brackets ``k`` at ``t``.  A step
    halves a bracket at ``0.5 * (lo + hi)``.  A bracket stops once it is at
    most ``_BISECT_TOL`` wide, after ``_BISECT_STEPS`` steps, or after a step
    whose midpoint rounded to one of its ends (above T of about 1e6 adjacent
    doubles are wider than the tolerance, and every later step would repeat
    that one).

    One call evaluates many speculated steps.  In each round a bracket
    predicts its root by a secant, first through the grid cell that holds its
    sign change, [lo, hint] or [hint, hi] (the first call evaluates lo, hint
    and hi, or lo alone if the three pass ``_SPECULATE_POINTS`` points), then
    through the last two midpoints it kept, and walks towards it for as many
    steps as it needs, at most ``_SPECULATE``, and fewer where the round
    would pass ``_SPECULATE_POINTS`` points.  It keeps the steps up to and
    including the first whose sign differs from the prediction, so each step
    is decided by the sign at the very midpoint that one-step bisection
    evaluates: the roots keep their bits, and a bracket evaluates the same
    points whatever brackets it is bisected with."""
    n = lo.size
    if n == 0:   # no bracket, no call
        return lo
    copies = 3 if 3 * n <= _SPECULATE_POINTS else 1   # lo, then hint and hi where they fit
    f_lo, f_hint, f_hi = values = np.full((3, n), np.nan)
    values[:copies] = sign * fn(np.concatenate((lo, hint, hi)[:copies]),
                                np.arange(copies * n) % n).reshape(copies, n)
    lo_positive = f_lo > 0
    right = (f_hint > 0) == lo_positive   # the sign changes in [hint, hi]
    root = _secant(np.where(right, hi, lo), np.where(right, f_hi, f_lo), hint, f_hint)
    # the open brackets, compacted as they stop, with the last point each kept
    k = (hi - lo > _BISECT_TOL).nonzero()[0]
    state = (k, lo[k], hi[k], root[k], sign[k], lo_positive[k],
             np.zeros(k.size, dtype=int), hint[k], f_hint[k])
    while k.size:
        k, a0, b0, root, sgn, positive, steps, last_t, last_f = state
        m = k.size
        # each walk as deep as its bracket needs, at most _SPECULATE steps; a
        # bracket too wide for the quotient gets exponent 0 of frexp(inf), so 1
        with np.errstate(over="ignore"):
            own = np.minimum(np.clip(np.frexp((b0 - a0) / _BISECT_TOL)[1], 1, _SPECULATE),
                             _BISECT_STEPS - steps)
        depth = int(own.max())
        if depth * m > _SPECULATE_POINTS:
            depth = max(1, _SPECULATE_POINTS // m)
            own = np.minimum(own, depth)
        # the walks, a row per bracket: the bracket before each step, its midpoint
        los, his, mids = np.empty((3, m, depth))
        a, b = a0.copy(), b0.copy()
        for j in range(depth):
            los[:, j], his[:, j] = a, b
            mids[:, j] = mid = 0.5 * (a + b)
            toward = mid < root
            np.copyto(a, mid, where=toward)
            np.copyto(b, mid, where=~toward)
        walked = np.arange(depth) < own[:, None]
        f = np.full((m, depth), np.nan)
        f[walked] = fn(mids[walked], np.repeat(k, own))
        f *= sgn[:, None]
        same = (f > 0) == positive[:, None]
        # a walk ends at its last step, at a wrong prediction, or where it leaves
        # the bracket at most _BISECT_TOL wide (after a midpoint equal to an end
        # it repeats that step, changing nothing; go_on stops the bracket)
        rows = np.arange(m)
        last = same != (mids < root[:, None])
        last[:, :-1] |= his[:, 1:] - los[:, 1:] <= _BISECT_TOL
        last[rows, own - 1] = True
        i = last.argmax(axis=1)
        mid, same_i, lo_i, hi_i = mids[rows, i], same[rows, i], los[rows, i], his[rows, i]
        a0, b0 = np.where(same_i, mid, lo_i), np.where(same_i, hi_i, mid)
        lo[k], hi[k] = a0, b0
        steps = steps + i + 1
        before = i > 0
        root = _secant(np.where(before, mids[rows, i - 1], last_t),
                       np.where(before, f[rows, i - 1], last_f), mid, f[rows, i])
        state = (k, a0, b0, root, sgn, positive, steps, mid, f[rows, i])
        go_on = ((mid != lo_i) & (mid != hi_i) & (steps < _BISECT_STEPS)
                 & (b0 - a0 > _BISECT_TOL))
        if not go_on.all():
            state = tuple(x[go_on] for x in state)
            k = state[0]
    return 0.5 * (lo + hi)


def _require_shared(traces):
    first = traces[0]
    for trace in traces[1:]:
        for owner, field in (("spec", "family"), ("params", "epsilon"), ("params", "lam")):
            a, b = (getattr(getattr(t, owner), field) for t in (first, trace))
            if a != b:
                raise ValueError(f"traces refined together must share {field}: {a!r} != {b!r}")
        if not np.array_equal(trace.T_grid, first.T_grid):
            raise ValueError("traces refined together must share T_grid")


def death_windows(traces, zero_threshold: float = DEFAULT_ZERO_THRESHOLD
                  ) -> list[list[DeathInterval]]:
    """:func:`detect_death_intervals` of every trace, refined together.

    ``traces`` must be iterable and each element a ``ConcurrenceTrace``
    (a ``TypeError`` names ``traces`` or ``trace``), and the traces must
    share family, epsilon, lam and T_grid (a ``ValueError`` names the field
    that differs); their alpha may differ.  Each closed-form call takes the
    points of every trace, each at its own trace's alpha, and each bracket
    stops on its own test, so every trace gets the windows it gets alone.
    Traces with no sample below ``zero_threshold`` make no call at all.

    :func:`_bisect_roots` bisects the edges in speculated rounds, starting
    from the secant through each edge's grid cell.  Every step it keeps is
    decided by the sign at the midpoint one step per call would evaluate, so
    the endpoints keep their bits.
    """
    require_positive("zero_threshold", zero_threshold)
    if not isinstance(traces, Iterable) or isinstance(traces, (str, bytes)):
        raise TypeError(f"traces must be an iterable of ConcurrenceTrace, got {_shown(traces)}")
    traces = list(traces)
    for trace in traces:
        require_instance("trace", trace, ConcurrenceTrace)
    if not traces:
        return []
    _require_shared(traces)
    belows = [trace.C < zero_threshold for trace in traces]
    if not any(below.any() for below in belows):
        return [[] for _ in traces]
    T, branch = traces[0].T_grid, _branch_fn(traces)
    starts, ends, points = [], [], []
    for below in belows:
        edges = np.diff(below.astype(np.int8), prepend=0, append=0)
        starts.append((edges == 1).nonzero()[0])
        ends.append((edges == -1).nonzero()[0] - 1)
        points.append(below.nonzero()[0])
    rows = np.repeat(np.arange(len(traces)), [s.size for s in starts])
    starts, ends = np.concatenate(starts), np.concatenate(ends)
    windows = [[] for _ in traces]
    lengths = ends - starts + 1
    run_min = np.minimum.reduceat(
        branch(T[np.concatenate(points)], np.repeat(rows, lengths)),
        np.cumsum(lengths) - lengths)
    keep = run_min < -0.5 * zero_threshold
    rows, starts, ends = rows[keep], starts[keep], ends[keep]

    # the branch is positive before a window opens and negative inside it,
    # so a closing edge is bisected on -branch
    left, right = starts > 0, ends < T.size - 1
    n_left = np.count_nonzero(left)
    t_mid = T[(starts + ends) // 2]
    at = np.concatenate([rows[left], rows[right]])
    roots = _bisect_roots(lambda t, k: branch(t, at[k]),
                          np.concatenate([T[starts[left] - 1], t_mid[right]]),
                          np.concatenate([t_mid[left], T[ends[right] + 1]]),
                          np.repeat([1.0, -1.0], [n_left, np.count_nonzero(right)]),
                          np.concatenate([T[starts[left]], T[ends[right]]]))
    t_start, t_end = T[starts], T[ends]
    t_start[left], t_end[right] = roots[:n_left], roots[n_left:]
    for row, a, b, r in zip(rows.tolist(), t_start.tolist(), t_end.tolist(),
                            (left & right).tolist()):
        windows[row].append(DeathInterval(a, b, r))
    return windows


def detect_death_intervals(trace: ConcurrenceTrace,
                           zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> list[DeathInterval]:
    """Maximal runs with C below threshold, endpoints refined by bisection.

    A genuine window has the signed X-state branch strictly negative in its
    interior: a run of any length is kept when its branch falls below
    -zero_threshold / 2, and an isolated tangential zero (the concurrence
    touching zero at a point) keeps the branch >= 0 and is excluded no
    matter how many grid points fall inside the dip.  Endpoints interior to
    the grid are refined on the closed-form branch expression to 1e-10 in T,
    between the outside neighbour and the run's middle point; a run touching
    the grid boundary keeps the boundary point and is marked unrefined."""
    return death_windows([trace], zero_threshold)[0]


#: points per refinement pass of :func:`max_concurrence`; a pass narrows its
#: bracket to two of its 32 steps, 16x
_ZOOM_POINTS = 33
_MAX_TOL = 1e-12
_STEPS = np.arange(float(_ZOOM_POINTS))


def _samples(lo: float, hi: float) -> np.ndarray:
    """``np.linspace(lo, hi, _ZOOM_POINTS)`` to the bit, by the arithmetic
    numpy runs for a scalar bracket, without its per-call overhead.  (Its
    branch for a zero step is not needed: callers have hi - lo > _MAX_TOL.)"""
    t = _STEPS * ((hi - lo) / (_ZOOM_POINTS - 1))
    t += lo
    t[-1] = hi
    return t


def _zoom(branch, lo: float, hi: float, c_best: float, t_best: float) -> tuple[float, float]:
    """Follow the argmax of ``_ZOOM_POINTS`` samples of C = 2 max(0, branch)
    on [lo, hi] down to a bracket at most ``_MAX_TOL`` wide, or until a pass
    no longer narrows it; the best of (c_best, t_best) and every point
    evaluated."""
    while hi - lo > _MAX_TOL:
        t = _samples(lo, hi)
        c = 2.0 * np.maximum(0.0, branch(t))
        j = int(c.argmax())
        if c[j] >= c_best:
            c_best, t_best = float(c[j]), float(t[j])
        lo_next, hi_next = float(t[max(j - 1, 0)]), float(t[min(j + 1, _ZOOM_POINTS - 1)])
        if hi_next - lo_next >= hi - lo:
            break
        lo, hi = lo_next, hi_next
    return c_best, t_best


def max_concurrence(trace: ConcurrenceTrace) -> tuple[float, float]:
    """(C_max, T_at_max): grid argmax refined on the closed-form concurrence.

    The bracket is the two grid cells around the argmax.  A first pass
    evaluates C at ``_ZOOM_POINTS`` evenly spaced points of it in one array
    call; every local maximum of these samples, ends included, then gets
    its own two-step bracket (a run of equal samples counts once, at its
    first), so a peak that lies between two samples is still climbed when
    an end of the bracket samples higher.  Each bracket is narrowed by
    :func:`_zoom` (adjacent doubles above T = 8192 are wider than its 1e-12
    tolerance, so it also stops once a pass no longer narrows).  Returns the
    best point evaluated, or the grid argmax if none beats it.

    Only the argmax's bracket is searched, so on a grid coarser than C(T)'s
    oscillation a lower local peak may be returned, with no warning: PSI,
    alpha = 0, eps = 2 on ``linspace(0, 100, 6)`` gives 0.98526, not 0.999996.
    """
    require_instance("trace", trace, ConcurrenceTrace)
    T = trace.T_grid
    k = int(np.argmax(trace.C))
    lo, hi = float(T[max(k - 1, 0)]), float(T[min(k + 1, T.size - 1)])
    c_best, t_best = float(trace.C[k]), float(T[k])
    if hi - lo <= _MAX_TOL:
        return c_best, t_best
    branch = _branch_fn([trace])
    t = _samples(lo, hi)
    c = 2.0 * np.maximum(0.0, branch(t))
    edged = np.concatenate(([-np.inf], c, [-np.inf]))
    for j in np.flatnonzero((c > edged[:-2]) & (c >= edged[2:])).tolist():
        if c[j] >= c_best:
            c_best, t_best = float(c[j]), float(t[j])
        c_best, t_best = _zoom(branch, float(t[max(j - 1, 0)]),
                               float(t[min(j + 1, _ZOOM_POINTS - 1)]), c_best, t_best)
    return c_best, t_best


@functools.lru_cache(maxsize=1)
def _hann(n: int) -> np.ndarray:
    """``np.hanning(n)``, kept for the last length asked (a scan's traces
    share one grid), so at most one window stays alive; read-only, since
    every caller shares it."""
    window = np.hanning(n)
    window.flags.writeable = False
    return window


def estimate_period(trace: ConcurrenceTrace) -> float:
    """Dominant period of C(T) from the spectral peak of the trace.

    The demeaned trace is Hann-windowed and the strongest non-zero frequency
    bin is refined by log-parabolic interpolation; for a dipole-coupled
    trace the components are incommensurate, so this reports the dominant
    component rather than an exact repeat time.  Requires a uniform grid
    spanning at least three periods 2*pi/kappa (PSI's Rabi period, for
    either family), with a step below pi/sigma, where sigma is twice the
    fastest rate of the |x_i|^2 (``analytic._rates``) and so bounds every
    frequency of C.  On a coarser grid the spectrum aliases: PHI at
    alpha = 0.3, eps = 2 reads 1.500 for 2*pi/eta = 1.405 at a step of
    0.8*pi/kappa, more than pi/sigma.
    """
    require_instance("trace", trace, ConcurrenceTrace)
    T, C = trace.T_grid, trace.C
    epsilon = trace.params.epsilon
    span = 3.0 * (2.0 * math.pi / analytic._rates(Family.PSI, epsilon)[0])
    if T[-1] - T[0] < span:
        raise ValueError(f"trace too short: need a span of three periods 2*pi/kappa = "
                         f"{span:.6g}, got {T[-1] - T[0]:.6g}")
    steps = np.diff(T)
    dt = float(steps.mean())
    if np.abs(steps - dt).max() > _UNIFORM_RTOL * dt:
        raise ValueError("estimate_period needs a uniformly spaced T_grid")
    limit = math.pi / (2.0 * max(analytic._rates(trace.spec.family, epsilon)))
    if dt >= limit:
        raise ValueError(f"T_grid step {dt:.6g} is not below pi/sigma = {limit:.6g}, sigma "
                         "twice the fastest |x_i|^2 rate: the spectrum would alias")
    x = C - C.mean()
    n = len(x)
    F = np.abs(np.fft.rfft(x * _hann(n)))
    if F.size < 3 or not np.any(F[1:] > 0):
        raise ValueError("no oscillation found in trace")
    k = 1 + int(F[1:].argmax())
    if 0 < k < F.size - 1 and F[k - 1] > 0 and F[k + 1] > 0:
        lm, l0, lp = np.log(F[k - 1]), np.log(F[k]), np.log(F[k + 1])
        denom = lm - 2.0 * l0 + lp
        delta = 0.5 * (lm - lp) / denom if denom != 0 else 0.0
    else:
        delta = 0.0
    return n * dt / (k + float(delta))
