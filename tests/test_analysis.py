import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tcm_entangle import analysis, analytic, entanglement, hamiltonian, propagator
from tcm_entangle.analysis import (TRACE_AGREEMENT_TOL, DeathInterval,
                                   TraceDisagreement, TracePath, _branch_fn, concurrence_trace,
                                   death_windows, detect_death_intervals, estimate_period,
                                   max_concurrence)
from tcm_entangle.model import Family, InitialStateSpec, ModelParams


def _trace(family, alpha, eps, T_max=20.0, n=2000, path=TracePath.ANALYTIC):
    spec = InitialStateSpec(family, alpha)
    params = ModelParams(epsilon=eps)
    return concurrence_trace(spec, params, np.linspace(0, T_max, n), path)


class TestConcurrenceTrace:
    @pytest.mark.parametrize("path", list(TracePath), ids=lambda p: p.value)
    def test_holds_its_spec_and_params(self, path):
        # the trace keeps the objects it was given, and copies none of their fields
        spec, params = InitialStateSpec(Family.PSI, 0.3), ModelParams(epsilon=1.5)
        t = concurrence_trace(spec, params, np.linspace(0.0, 5.0, 50), path)
        assert t.spec is spec and t.params is params
        assert [f.name for f in dataclasses.fields(t)] == [
            "spec", "params", "T_grid", "C", "signed_C", "abs_amplitudes"]

    def test_paths_agree_psi(self):
        a = _trace(Family.PSI, math.pi / 8, 2.0, n=400)
        b = _trace(Family.PSI, math.pi / 8, 2.0, n=400, path=TracePath.ORACLE)
        np.testing.assert_allclose(a.C, b.C, atol=1e-9)
        np.testing.assert_allclose(a.signed_C, b.signed_C, atol=1e-9)
        np.testing.assert_allclose(a.abs_amplitudes, b.abs_amplitudes, atol=1e-9)

    def test_paths_agree_phi(self):
        a = _trace(Family.PHI, math.pi / 6, 1.0, n=400)
        b = _trace(Family.PHI, math.pi / 6, 1.0, n=400, path=TracePath.ORACLE)
        np.testing.assert_allclose(a.C, b.C, atol=1e-9)
        np.testing.assert_allclose(a.abs_amplitudes, b.abs_amplitudes, atol=1e-9)

    def test_initial_point_is_sin_2alpha(self):
        for fam in Family:
            for alpha in (0.0, math.pi / 8, math.pi / 4):
                t = _trace(fam, alpha, 0.7, n=10, T_max=1.0)
                assert t.C[0] == pytest.approx(math.sin(2 * alpha), abs=1e-12)

    def test_phi_bell_point_never_dies_over_a_window(self):
        # alpha = pi/4, eps = 0: C touches zero at isolated points only
        t = _trace(Family.PHI, math.pi / 4, 0.0, T_max=math.pi, n=500)
        assert detect_death_intervals(t) == []
        assert float(np.max(t.C)) == pytest.approx(1.0, abs=1e-9)

    def test_psi_signed_trace_matches_formula(self):
        # eps = 0: 2 x1 x2* = (-1 + 3 s + (1 + s) cos(kappa T)) / 4, s = sin 2a
        alpha = math.pi / 8
        t = _trace(Family.PSI, alpha, 0.0, n=600)
        s = math.sin(2 * alpha)
        expected = (-1 + 3 * s + (1 + s) * np.cos(math.sqrt(8) * t.T_grid)) / 4
        np.testing.assert_allclose(t.signed_C, expected, atol=1e-10)

    @pytest.mark.parametrize("n", [1000, 40_000])
    @pytest.mark.parametrize("family", list(Family))
    def test_same_bytes_as_taking_each_abs_twice(self, family, n):
        # the trace's C, signed_C and |x_i|, to the byte, at both call sizes
        grid = np.linspace(0.0, 40.0, n)
        t = _trace_at(family, 0.3, 2.0, grid)
        C, signed, abs_amps = _reference_trace(
            family, analytic.amplitudes(family, 0.3, 2.0, 2.0, grid))
        assert t.C.tobytes() == C.tobytes()
        assert t.abs_amplitudes.tobytes() == abs_amps.tobytes()
        assert (t.signed_C is None if signed is None
                else t.signed_C.tobytes() == signed.tobytes())

    def test_rejects_bad_grid(self):
        spec = InitialStateSpec(Family.PSI, 0.3)
        params = ModelParams()
        with pytest.raises(ValueError):
            concurrence_trace(spec, params, np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            concurrence_trace(spec, params, np.array([]))

    @pytest.mark.parametrize("path", [TracePath.ANALYTIC, TracePath.ORACLE])
    @pytest.mark.parametrize("grid", [[0.0, math.nan, 2.0], [math.nan], [0.0, math.inf],
                                      [-math.inf, 0.0]],
                             ids=["nan-inside", "nan", "inf", "minus-inf"])
    def test_rejects_non_finite_grid(self, grid, path):
        # NaN passes the ascending check and inf overflows the phases; both
        # used to be reported as an epsilon too large for double precision
        spec = InitialStateSpec(Family.PHI, 0.3)
        params = ModelParams()
        with pytest.raises(ValueError, match="^T_grid must be finite$"):
            concurrence_trace(spec, params, np.array(grid), path)


def _reference_trace(family, xs):
    """(C, signed_C, abs_amplitudes) of the closed-form amplitudes ``xs``,
    each |x_i| taken once for the branch and once more for the stack."""
    square = [np.abs(x) ** 2 for x in xs]
    if family is Family.PSI:
        diag = (0.0, square[0], square[1], square[2])
        branch = entanglement.xstate_branch(diag, np.multiply(xs[0], np.conj(xs[1])), 0.0)
        signed = 2.0 * np.real(np.multiply(xs[0], np.conj(xs[1])))
    else:
        diag = (square[0], square[2], square[2], square[1] + square[4])
        branch = entanglement.xstate_branch(diag, np.multiply(xs[3], np.conj(xs[2])),
                                            np.multiply(xs[0], np.conj(xs[1])))
        signed = None
    return 2.0 * np.maximum(0.0, branch), signed, np.stack([np.abs(x) for x in xs], axis=-1)


def _closed_form_C(trace, T):
    """Closed-form C at ``T`` for the spec and params of ``trace``, from
    ``analytic.amplitudes`` and ``entanglement.xstate_branch`` alone: a
    reference independent of the refinement's ``analysis._branch_fn``."""
    spec, params = trace.spec, trace.params
    xs = analytic.amplitudes(spec.family, spec.alpha, params.epsilon, params.lam, T)
    return _reference_trace(spec.family, xs)[0]


class TestBitsDoNotDependOnCallSize:
    """Above 16,384 complex points numpy may compute ``a * (temporary)`` in
    place of the temporary, rounding differently; the closed-form products
    are ufunc calls, so no value depends on how many points a call holds."""

    @pytest.mark.parametrize("family", list(Family))
    def test_one_call_equals_1000_point_calls(self, family):
        grid = np.linspace(0.0, 40.0, 40_000)
        blocks = np.split(grid, 40)
        xs = analytic.amplitudes(family, 0.3, 2.0, 2.0, grid)
        parts = [analytic.amplitudes(family, 0.3, 2.0, 2.0, block) for block in blocks]
        for i, x in enumerate(xs):
            assert x.tobytes() == np.concatenate([p[i] for p in parts]).tobytes()
        branch = np.concatenate([analysis._branch(family, p) for p in parts])
        assert analysis._branch(family, xs).tobytes() == branch.tobytes()
        whole = _trace_at(family, 0.3, 2.0, grid)
        traces = [_trace_at(family, 0.3, 2.0, block) for block in blocks]
        assert whole.C.tobytes() == np.concatenate([t.C for t in traces]).tobytes()
        if family is Family.PSI:
            signed = np.concatenate([t.signed_C for t in traces])
            assert whole.signed_C.tobytes() == signed.tobytes()


class TestBothPath:
    @pytest.mark.parametrize("family", list(Family))
    def test_returns_the_analytic_trace(self, family, monkeypatch):
        # the certificate reuses the trace's own amplitudes: one whole-grid
        # closed-form call per BOTH trace
        spec, params = InitialStateSpec(family, math.pi / 8), ModelParams(epsilon=2.0)
        grid = np.linspace(0.0, 20.0, 500)
        analytic_trace = concurrence_trace(spec, params, grid, TracePath.ANALYTIC)
        calls = []
        amplitudes = analytic.amplitudes
        monkeypatch.setattr(analytic, "amplitudes",
                            lambda *a, **k: calls.append(a) or amplitudes(*a, **k))
        both = concurrence_trace(spec, params, grid, TracePath.BOTH)
        assert len(calls) == 1
        assert both.C.tobytes() == analytic_trace.C.tobytes()
        assert both.abs_amplitudes.tobytes() == analytic_trace.abs_amplitudes.tobytes()
        if family is Family.PSI:
            assert both.signed_C.tobytes() == analytic_trace.signed_C.tobytes()
        else:
            assert both.signed_C is None and analytic_trace.signed_C is None

    def test_uncertified_points_read_the_certified_states(self, monkeypatch):
        # at T up to 1e4 the bound leaves 368 of 2,000 points uncertified;
        # their oracle C comes from the 5-row evolution the certificate
        # made, with no second evolution at full width
        spec, params = InitialStateSpec(Family.PHI, math.pi / 8), ModelParams(epsilon=2.0)
        evolved, concurrence_states = [], []
        evolve_grid, block_concurrence = propagator.evolve_grid, entanglement._block_concurrence
        monkeypatch.setattr(propagator, "evolve_grid",
                            lambda psi0, *a: evolved.append(len(psi0)) or evolve_grid(psi0, *a))
        monkeypatch.setattr(entanglement, "_block_concurrence", lambda B: (
            concurrence_states.append(len(B)) or block_concurrence(B)))
        concurrence_trace(spec, params, np.linspace(0.0, 1e4, 2000), TracePath.BOTH)
        assert evolved == [5] and concurrence_states == [368]

    @pytest.mark.parametrize("family", list(Family))
    def test_disagreement_names_the_point(self, family, monkeypatch):
        # propagating under the H/g of another epsilon must fail the certificate
        spec, params = InitialStateSpec(family, math.pi / 8), ModelParams(epsilon=2.0)
        build_hamiltonian = hamiltonian.build_hamiltonian
        monkeypatch.setattr(hamiltonian, "build_hamiltonian",
                            lambda p: build_hamiltonian(ModelParams(epsilon=0.0)))
        with pytest.raises(TraceDisagreement, match=(
                r"^analytic/oracle traces disagree by \S+ \(tolerance 1e-09\) at "
                r"alpha = 0\.392699081698724, epsilon = 2, T = \S+$")):
            concurrence_trace(spec, params, np.linspace(0.0, 20.0, 200), TracePath.BOTH)


    def test_certificate_memory_grows_with_the_occupied_kets(self, monkeypatch):
        # the certificate evolves only the rows the state occupies (5 of 36
        # for PHI): at 100,000 points a BOTH trace's traced peak exceeds the
        # ANALYTIC trace's by about 350 bytes a point (about 1,000 when it
        # evolved every ket); the store of alpha-free terms is empty on both sides
        n = 100_000
        spec, grid = InitialStateSpec(Family.PHI, 0.3), np.linspace(0.0, 20.0, n)
        peaks = {}
        for path in (TracePath.ANALYTIC, TracePath.BOTH):
            monkeypatch.setattr(analytic, "_STORE", {})
            params = ModelParams(epsilon=2.0)
            params.decomposition
            tracemalloc.start()
            try:
                concurrence_trace(spec, params, grid, path)
                peaks[path] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[TracePath.BOTH] - peaks[TracePath.ANALYTIC] <= 640 * n


class TestOracleConcurrence:
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_norms_checked_once_for_the_bytes_of_pure_concurrence(self, family, monkeypatch):
        # occupied_states checks every state's norm, so the ORACLE C comes
        # from pure_concurrence's core without a second check, to the same bytes
        spec, params = InitialStateSpec(family, 0.4), ModelParams(epsilon=1.5)
        grid = np.linspace(0.0, 15.0, 300)
        checks = []
        require_unit_norms = entanglement.require_unit_norms
        monkeypatch.setattr(entanglement, "require_unit_norms",
                            lambda norm: checks.append(norm.size) or require_unit_norms(norm))
        C = concurrence_trace(spec, params, grid, TracePath.ORACLE).C
        assert checks == [grid.size]
        psis = analysis.occupied_states(spec, params, grid)[0]
        assert C.tobytes() == entanglement.pure_concurrence(psis).tobytes()


class TestDecompositionMemo:
    """The ORACLE and BOTH paths decompose H/g once per params object, as
    ``ModelParams.decomposition``, and nothing else holds it."""

    def test_one_jacobi_call_per_params_object(self, monkeypatch):
        calls = []
        jacobi_eigh = propagator.jacobi_eigh
        monkeypatch.setattr(propagator, "jacobi_eigh",
                            lambda H: calls.append(H.shape) or jacobi_eigh(H))
        params, grid = ModelParams(epsilon=2.0), np.linspace(0.0, 10.0, 50)
        for alpha in (0.1, 0.5, 0.9):
            concurrence_trace(InitialStateSpec(Family.PHI, alpha), params, grid,
                              TracePath.ORACLE)
        assert len(calls) == 1
        # an equal-valued new object is another model: no value matching
        concurrence_trace(InitialStateSpec(Family.PHI, 0.5), ModelParams(epsilon=2.0), grid,
                          TracePath.ORACLE)
        assert len(calls) == 2

    def test_interleaved_objects_propagate_their_own_model(self):
        spec, grid = InitialStateSpec(Family.PHI, 0.3), np.linspace(0.0, 20.0, 200)
        first = ModelParams(epsilon=2.0)
        for params in (first, ModelParams(epsilon=0.0), first):
            oracle = concurrence_trace(spec, params, grid, TracePath.ORACLE)
            closed = concurrence_trace(spec, params, grid, TracePath.ANALYTIC)
            assert np.max(np.abs(oracle.C - closed.C)) <= TRACE_AGREEMENT_TOL, params

    def test_basis_is_one_object_per_params_and_not_a_field(self):
        a, b = ModelParams(epsilon=2.0), ModelParams(epsilon=2.0)
        assert a.basis is a.basis and a.basis is not b.basis
        assert a.basis.n_max == a.n_max and a.basis.size == 36
        fresh = ModelParams(epsilon=2.0)   # its basis not built yet
        assert a == b == fresh and hash(a) == hash(b) == hash(fresh)
        assert repr(a) == repr(fresh) == "ModelParams(epsilon=2.0, lam=2.0, n_max=2)"

    def test_hamiltonian_and_decomposition_are_built_once_per_params(self):
        a, b = ModelParams(epsilon=2.0, lam=1.5), ModelParams(epsilon=2.0, lam=1.5)
        for name in ("hamiltonian", "decomposition"):
            assert getattr(a, name) is getattr(a, name)
            assert getattr(b, name) is not getattr(a, name)
        assert a.hamiltonian.tobytes() == hamiltonian.build_hamiltonian(a).tobytes()
        for x, y in zip(a.decomposition, b.decomposition):
            assert x.tobytes() == y.tobytes()
        assert not a.hamiltonian.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.hamiltonian[0, 1] = 0.01

    def test_a_model_is_freed_after_its_run(self):
        # no module keeps the last model (at n_max 16, a 21 MB matrix of
        # eigenvectors) alive once its caller drops it
        params = ModelParams(epsilon=2.0, n_max=4)
        trace = concurrence_trace(InitialStateSpec(Family.PHI, 0.3), params,
                                  np.linspace(0.0, 10.0, 50), TracePath.ORACLE)
        model = weakref.ref(params)
        del params, trace
        gc.collect()
        assert model() is None


class TestDeathIntervals:
    def test_phi_eps_zero_window(self):
        # alpha = pi/6: window [arcsin sqrt(tan a), pi - arcsin sqrt(tan a)]
        t = _trace(Family.PHI, math.pi / 6, 0.0, T_max=2 * math.pi, n=4000)
        intervals = detect_death_intervals(t)
        lo = math.asin(math.sqrt(math.tan(math.pi / 6)))
        expected = [(lo, math.pi - lo), (math.pi + lo, 2 * math.pi - lo)]
        assert len(intervals) == len(expected)
        for iv, (a, b) in zip(intervals, expected):
            assert iv.refined
            assert iv.T_start == pytest.approx(a, abs=1e-6)
            assert iv.T_end == pytest.approx(b, abs=1e-6)
            assert iv.length == pytest.approx(b - a, abs=2e-6)

    @pytest.mark.parametrize("n", [1300, 6000, 20000])
    @pytest.mark.parametrize("alpha", [math.pi / 4, math.pi / 3, 1.5])
    def test_no_windows_for_strong_entanglement(self, alpha, n):
        # the tangential zero touch at alpha = pi/4 keeps the signed branch
        # non-negative, so it is rejected at any grid density
        t = _trace(Family.PHI, alpha, 0.0, T_max=4 * math.pi, n=n)
        assert detect_death_intervals(t) == []

    @pytest.mark.parametrize("eps", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("alpha", [math.pi / 8, math.pi / 4, math.pi / 3])
    def test_psi_never_dies(self, alpha, eps):
        t = _trace(Family.PSI, alpha, eps, T_max=25.0, n=4000)
        assert detect_death_intervals(t) == []

    def test_window_shrinks_with_alpha(self):
        lengths = []
        for alpha in (math.pi / 16, math.pi / 12, math.pi / 8, math.pi / 6):
            t = _trace(Family.PHI, alpha, 0.0, T_max=math.pi, n=3000)
            ivs = detect_death_intervals(t)
            assert len(ivs) == 1
            lengths.append(ivs[0].length)
        assert all(a > b for a, b in zip(lengths, lengths[1:]))

    def test_dipole_coupling_shortens_window(self):
        t0 = _trace(Family.PHI, math.pi / 8, 0.0, T_max=math.pi, n=3000)
        t2 = _trace(Family.PHI, math.pi / 8, 2.0, T_max=math.pi, n=3000)
        l0 = detect_death_intervals(t0)[0].length
        l2 = detect_death_intervals(t2)[0].length
        assert l2 < l0

    def test_boundary_run_unrefined(self):
        # start the grid inside a window: the left endpoint stays on the grid
        spec = InitialStateSpec(Family.PHI, math.pi / 6)
        params = ModelParams()
        t = concurrence_trace(spec, params, np.linspace(1.0, 4.0, 2000))
        ivs = detect_death_intervals(t)
        assert len(ivs) == 1
        assert not ivs[0].refined
        assert ivs[0].T_start == 1.0

    def test_right_boundary_run_unrefined(self):
        # end the grid inside the first window: the right endpoint stays on it
        t = _trace(Family.PHI, math.pi / 6, 0.0, T_max=2.0, n=1000)
        ivs = detect_death_intervals(t)
        assert len(ivs) == 1
        assert not ivs[0].refined
        assert ivs[0].T_end == t.T_grid[-1]
        lo = math.asin(math.sqrt(math.tan(math.pi / 6)))
        assert ivs[0].T_start == pytest.approx(lo, abs=1e-9)

    def test_grid_inside_one_window(self):
        # window (0.863, 2.278): both edges of the grid lie inside it
        spec = InitialStateSpec(Family.PHI, math.pi / 6)
        params = ModelParams()
        t = concurrence_trace(spec, params, np.linspace(1.0, 2.0, 500))
        assert detect_death_intervals(t) == [DeathInterval(1.0, 2.0, False)]

    def test_short_run_kept(self):
        # window (0.863, 2.278): two grid points inside it find it as three do
        spec = InitialStateSpec(Family.PHI, math.pi / 6)
        params = ModelParams()
        lo = math.asin(math.sqrt(math.tan(math.pi / 6)))
        for grid in ([0.5, 1.2, 2.0, 2.6], [0.5, 1.2, 1.6, 2.0, 2.6]):
            trace = concurrence_trace(spec, params, np.array(grid))
            assert np.count_nonzero(trace.C < 1e-9) == len(grid) - 2
            ivs = detect_death_intervals(trace)
            assert len(ivs) == 1 and ivs[0].refined
            assert ivs[0].T_start == pytest.approx(lo, abs=1e-9)
            assert ivs[0].T_end == pytest.approx(math.pi - lo, abs=1e-9)


def _reference_bisect(fn, lo, hi):
    flo = float(fn(lo))
    for _ in range(200):
        if hi - lo <= 1e-10:
            break
        mid = 0.5 * (lo + hi)
        fmid = float(fn(mid))
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _reference_death_intervals(trace, zero_threshold):
    """Scalar run scanner with one bisection per endpoint: the loop form the
    array version replaced, kept as its bit-for-bit reference."""
    T, below, branch = trace.T_grid, trace.C < zero_threshold, _branch_fn([trace])
    intervals, i, n = [], 0, len(T)
    while i < n:
        if not below[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and below[j + 1]:
            j += 1
        if float(np.min(branch(T[i:j + 1]))) < -0.5 * zero_threshold:
            t_mid = T[i + (j - i) // 2]
            t_start = _reference_bisect(branch, T[i - 1], t_mid) if i > 0 else T[0]
            t_end = (_reference_bisect(lambda t: -branch(t), t_mid, T[j + 1])
                     if j < n - 1 else T[-1])
            intervals.append(DeathInterval(float(t_start), float(t_end), 0 < i and j < n - 1))
        i = j + 1
    return intervals


class TestDeathIntervalsMatchScalarReference:
    @settings(max_examples=40, deadline=None)
    # alpha above pi/4 gives PHI no windows; the range keeps both cases
    @given(family=st.sampled_from(Family), alpha=st.floats(0, math.pi / 3),
           eps=st.floats(0, 3), t0=st.floats(0, 5), span=st.floats(2, 60),
           n=st.integers(200, 1500), threshold=st.sampled_from([1e-9, 1e-3]))
    def test_bit_identical(self, family, alpha, eps, t0, span, n, threshold):
        spec = InitialStateSpec(family, alpha)
        params = ModelParams(epsilon=eps)
        t = concurrence_trace(spec, params, np.linspace(t0, t0 + span, n))
        assert (detect_death_intervals(t, threshold)
                == _reference_death_intervals(t, threshold))


def _trace_at(family, alpha, eps, grid, lam=2.0):
    return concurrence_trace(InitialStateSpec(family, alpha), ModelParams(epsilon=eps, lam=lam),
                             grid)


def _count_closed_form_calls(monkeypatch):
    calls = []
    for name in ("psi_amplitudes", "phi_amplitudes"):
        original = getattr(analytic, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)
        monkeypatch.setattr(analytic, name, counted)
    return calls


class TestBisectionStopsOnAdjacentDoubles:
    @pytest.mark.parametrize("t0", [1e6, 1e8])
    def test_few_calls_far_from_zero(self, monkeypatch, t0):
        # from T of about 1e6 a bracket one double wide is still wider than
        # the tolerance; its midpoint rounds to an end, and bisection used to
        # repeat that pass up to its cap of 200
        t = _trace_at(Family.PHI, 0.3, 2.0, np.linspace(t0, t0 + 20.0, 2000))
        calls = _count_closed_form_calls(monkeypatch)
        windows = detect_death_intervals(t)
        assert len(calls) <= 40
        monkeypatch.undo()
        assert windows and windows == _reference_death_intervals(t, 1e-9)


_ALPHAS = st.one_of(st.sampled_from([0.0, math.pi / 12, math.pi / 2]),
                    st.floats(0, math.pi / 2))


class TestDeathWindows:
    """``death_windows`` refines several traces in shared calls and gives
    each the windows it gets alone."""

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(Family), alphas=st.lists(_ALPHAS, min_size=1, max_size=5),
           eps=st.floats(0, 3), t0=st.floats(0, 5), span=st.floats(2, 60),
           n=st.integers(200, 1500), threshold=st.sampled_from([1e-9, 1e-3]))
    # a one-trace batch; 0, pi/2 and a repeat, with and without windows;
    # windows that touch the grid's end, its start, or both; brackets one
    # double wide at T = 1e6
    @example(family=Family.PHI, alphas=[math.pi / 6], eps=0.0, t0=0.0, span=2.0,
             n=800, threshold=1e-9)
    @example(family=Family.PHI, alphas=[0.0, math.pi / 8, math.pi / 2, math.pi / 8, 1.2],
             eps=2.0, t0=0.0, span=20.0, n=1000, threshold=1e-9)
    @example(family=Family.PSI, alphas=[0.0, 0.3, math.pi / 2, 0.3], eps=0.5, t0=0.0,
             span=25.0, n=1000, threshold=1e-9)
    @example(family=Family.PHI, alphas=[math.pi / 6, 0.3, math.pi / 4], eps=0.0, t0=1.0,
             span=3.0, n=600, threshold=1e-9)
    @example(family=Family.PHI, alphas=[math.pi / 6, 0.2], eps=0.0, t0=1.0, span=1.0,
             n=300, threshold=1e-9)
    @example(family=Family.PHI, alphas=[0.3, math.pi / 8, 0.5], eps=2.0, t0=1e6, span=20.0,
             n=2000, threshold=1e-9)
    def test_equals_one_trace_calls(self, family, alphas, eps, t0, span, n, threshold):
        grid = np.linspace(t0, t0 + span, n)
        traces = [_trace_at(family, alpha, eps, grid) for alpha in alphas]
        assert (death_windows(traces, threshold)
                == [detect_death_intervals(t, threshold) for t in traces])

    def test_shares_calls_across_traces(self, monkeypatch):
        grid = np.linspace(0.0, 20.0, 2000)
        traces = [_trace_at(Family.PHI, alpha, 2.0, grid)
                  for alpha in (math.pi / 12, math.pi / 8, 0.3)]
        calls = _count_closed_form_calls(monkeypatch)
        for t in traces:
            detect_death_intervals(t)
        alone = len(calls)
        calls.clear()
        death_windows(traces)
        assert len(calls) < alone / 2

    def test_empty_batch(self):
        assert death_windows([]) == []

    def test_windowless_traces(self, monkeypatch):
        # no sample below the threshold: empty lists, and no closed-form call
        grid = np.linspace(0.0, 25.0, 4000)
        traces = [_trace_at(Family.PSI, alpha, 2.0, grid)
                  for alpha in (math.pi / 8, math.pi / 4, math.pi / 3)]
        calls = _count_closed_form_calls(monkeypatch)
        assert death_windows(traces) == [[], [], []]
        assert detect_death_intervals(traces[0]) == [] and calls == []

    def test_windowless_traces_still_checked(self):
        grid = np.linspace(0.0, 25.0, 400)
        quiet = _trace_at(Family.PSI, math.pi / 4, 2.0, grid)
        with pytest.raises(TypeError, match="traces"):
            death_windows(quiet)
        with pytest.raises(TypeError, match="trace must be"):
            death_windows([quiet, "trace"])
        with pytest.raises(ValueError, match="zero_threshold"):
            death_windows([quiet], -1.0)
        for field, other in (("epsilon", _trace_at(Family.PSI, math.pi / 4, 1.0, grid)),
                             ("lam", _trace_at(Family.PSI, math.pi / 4, 2.0, grid, lam=3.0)),
                             ("T_grid", _trace_at(Family.PSI, math.pi / 4, 2.0, grid[:-1]))):
            with pytest.raises(ValueError, match=f"must share {field}"):
                death_windows([quiet, other])

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, 0.0, math.inf])
    def test_threshold_checked(self, threshold):
        with pytest.raises(ValueError, match="zero_threshold"):
            death_windows([_trace(Family.PHI, 0.3, 0.0, n=200)], threshold)

    #: the whole message after "must share": the field, then the first
    #: trace's value and the other's
    _MIXED = {"family": "family: <Family.PHI: 'PHI'> != <Family.PSI: 'PSI'>",
              "epsilon": "epsilon: 2.0 != 1.0", "lam": "lam: 2.0 != 3.0", "T_grid": "T_grid"}

    @pytest.mark.parametrize("field,other", [
        ("family", lambda grid: _trace_at(Family.PSI, 0.3, 2.0, grid)),
        ("epsilon", lambda grid: _trace_at(Family.PHI, 0.3, 1.0, grid)),
        ("lam", lambda grid: _trace_at(Family.PHI, 0.3, 2.0, grid, lam=3.0)),
        ("T_grid", lambda grid: _trace_at(Family.PHI, 0.3, 2.0, grid + 0.5)),
        ("T_grid", lambda grid: _trace_at(Family.PHI, 0.3, 2.0, grid[:-1])),
    ])
    def test_mixed_traces_name_the_field(self, field, other):
        grid = np.linspace(0.0, 20.0, 400)
        first = _trace_at(Family.PHI, 0.3, 2.0, grid)
        with pytest.raises(ValueError, match=f"share {field}") as caught:
            death_windows([first, _trace_at(Family.PHI, 0.5, 2.0, grid), other(grid)])
        assert str(caught.value) == "traces refined together must share " + self._MIXED[field]

    def test_traces_of_another_n_max_refine_together(self):
        # the closed forms do not read n_max, so it is not compared
        grid = np.linspace(0.0, 20.0, 400)
        traces = [concurrence_trace(InitialStateSpec(Family.PHI, alpha),
                                    ModelParams(epsilon=2.0, n_max=n_max), grid)
                  for alpha, n_max in ((0.3, 2), (0.5, 3))]
        assert death_windows(traces) == [detect_death_intervals(t) for t in traces]


def _one_step_bisect(fn, lo, hi, sign):
    """Bisection with one midpoint per bracket per call: the loop that
    speculative bisection replaced, kept as its bit-for-bit reference."""
    lo_positive = sign * fn(lo, np.arange(lo.size)) > 0
    active = np.ones(lo.size, dtype=bool)
    for _ in range(200):
        k = (active & (hi - lo > 1e-10)).nonzero()[0]
        if k.size == 0:
            break
        lo_k, hi_k = lo[k], hi[k]
        mid = 0.5 * (lo_k + hi_k)
        same = (sign[k] * fn(mid, k) > 0) == lo_positive[k]
        lo[k[same]], hi[k[~same]] = mid[same], mid[~same]
        active[k] = (mid != lo_k) & (mid != hi_k)
    return 0.5 * (lo + hi)


def _cubics(roots, gaps, fill):
    """``fn(t, k)``: bracket k's cubic with roots ``roots[k]``, equal to
    ``fill[k]`` on [gaps[k, 0], gaps[k, 1]].  Only +, - and * act on each
    point, so a value never depends on the call it is evaluated in."""
    def fn(t, k):
        r, g = roots[k], gaps[k]
        value = (t - r[:, 0]) * (t - r[:, 1]) * (t - r[:, 2])
        return np.where((g[:, 0] <= t) & (t <= g[:, 1]), fill[k], value)
    return fn


@st.composite
def _bracket_sets(draw):
    """(fn, lo, hi, sign, hint): up to 400 brackets at one magnitude of T (from
    1e6 on, many are a few doubles wide, so midpoints round to an end), each
    with zero to three sign changes, a stretch of NaN, +inf or -inf, and a
    hint inside, outside or NaN."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.sampled_from([0.0, 1.0, 1e6, 1e8])) * rng.uniform(1.0, 2.0, n)
    # a bracket 1e60 wide needs more than the 200 steps bisection takes
    width = np.exp(rng.uniform(np.log(1e-11),
                               np.log(draw(st.sampled_from([1e-6, 1.0, 50.0, 1e60]))), n))
    hi = np.maximum(lo + width, np.nextafter(lo, np.inf))
    def inside(low, high, size):
        # half of them near lo, down to 1e-70 of the width: deep bisections
        fraction = np.where(rng.uniform(size=(n, size)) < 0.5, rng.uniform(low, high, (n, size)),
                            10.0 ** rng.uniform(-70.0, 0.0, (n, size)))
        return lo[:, None] + fraction * (hi - lo)[:, None]
    fill = rng.choice([np.nan, np.inf, -np.inf, 1.0], n)
    gaps = np.sort(inside(-0.5, 1.5, 2), axis=1)
    hint = np.where(rng.uniform(size=n) < 0.1, np.nan, inside(-0.5, 1.5, 1)[:, 0])
    return (_cubics(inside(-0.2, 1.2, 3), gaps, fill), lo, hi,
            rng.choice([-1.0, 1.0], n), hint)


class TestSpeculativeBisection:
    """``_bisect_roots`` evaluates predicted paths of midpoints, one call per
    round, and keeps the roots of one-step bisection to the bit."""

    @settings(max_examples=200, deadline=None)
    @given(case=_bracket_sets())
    def test_same_roots_as_one_step_bisection(self, case):
        fn, lo, hi, sign, hint = case
        expected = _one_step_bisect(fn, lo.copy(), hi.copy(), sign)
        assert analysis._bisect_roots(fn, lo, hi, sign, hint).tobytes() == expected.tobytes()

    def test_closed_form_calls_of_one_trace(self, monkeypatch):
        # one call for the run minima, one for each bracket's end and hint
        # and three rounds of speculated steps (one-step bisection: 34 calls)
        t = _trace_at(Family.PHI, 0.3, 2.0, np.linspace(0.0, 20.0, 2000))
        calls = _count_closed_form_calls(monkeypatch)
        windows = detect_death_intervals(t)
        assert len(calls) == 5
        monkeypatch.undo()
        assert len(windows) == 10 and windows == _reference_death_intervals(t, 1e-9)

    def test_no_call_without_a_bracket(self, monkeypatch):
        # every sub-threshold run is dropped (its branch never reaches
        # -zero_threshold / 2): one call for the run minima, and no call on
        # the empty set of brackets
        t = _trace_at(Family.PHI, math.pi / 4, 0.0, np.linspace(0.0, math.pi, 500))
        calls = _count_closed_form_calls(monkeypatch)
        assert detect_death_intervals(t) == []
        assert [np.size(args[-1]) for args in calls] == [2]

    @staticmethod
    def _calls(bisect, lo, hi, *args):
        """(roots, the points of each call of ``bisect``)."""
        calls = []
        fn = _cubics(np.stack([lo + 0.3 * (hi - lo), hi + 1.0, hi + 2.0], axis=1),
                     np.full((lo.size, 2), -1.0), np.zeros(lo.size))
        def recorded(t, k):
            calls.append(t.copy())
            return fn(t, k)
        return bisect(recorded, lo.copy(), hi.copy(), *args), calls

    @pytest.mark.parametrize("n_narrow,n_wide", [(0, 6000), (9000, 8000)])
    def test_no_call_passes_the_point_budget_unless_one_step_does(self, n_narrow, n_wide):
        # a call's temporaries grow with its points: past _SPECULATE_POINTS a
        # call holds the very points of a call of one-step bisection
        width = np.repeat([1e-9, 1.0], [n_narrow, n_wide])
        lo = np.linspace(0.0, 1.0, width.size)
        hi, sign = lo + width, np.ones(width.size)
        roots, calls = self._calls(analysis._bisect_roots, lo, hi, sign, lo + 0.1 * width)
        expected, reference = self._calls(_one_step_bisect, lo, hi, sign)
        assert roots.tobytes() == expected.tobytes()
        big = [c.tobytes() for c in calls if c.size > analysis._SPECULATE_POINTS]
        assert big == [c.tobytes() for c in reference if c.size > analysis._SPECULATE_POINTS]
        # with the narrow brackets: the ends, then a step of each until those stop
        assert len(big) == (5 if n_narrow else 0) and len(calls) < len(reference)


class TestMaxConcurrence:
    def test_bell_start_is_global_max(self):
        t = _trace(Family.PSI, math.pi / 4, 0.0)
        c, T_at = max_concurrence(t)
        assert c == pytest.approx(1.0, abs=1e-9)
        assert T_at == pytest.approx(0.0, abs=1e-6)

    def test_psi_max_returns_to_initial(self):
        # for sin 2a >= 1/3 at eps = 0 the maximum equals C(0)
        for alpha in (math.pi / 8, math.pi / 4, math.pi / 3):
            t = _trace(Family.PSI, alpha, 0.0)
            c, _ = max_concurrence(t)
            assert c == pytest.approx(math.sin(2 * alpha), abs=1e-9)

    def test_weakly_entangled_psi_exceeds_initial(self):
        # below sin 2a = 1/3 the anti-phase extreme (1 - s)/2 wins
        alpha = 0.05
        s = math.sin(2 * alpha)
        t = _trace(Family.PSI, alpha, 0.0)
        c, _ = max_concurrence(t)
        assert c == pytest.approx((1 - s) / 2, abs=1e-9)
        assert c > s

    def test_refinement_beats_grid(self):
        t = _trace(Family.PSI, math.pi / 8, 0.0, n=199)
        c, T_at = max_concurrence(t)
        assert c >= float(np.max(t.C))
        assert c == pytest.approx(_closed_form_C(t, T_at), abs=1e-12)

    def test_interior_peak_beside_a_higher_end_sample(self):
        # the grid argmax is T = 0 (C = sin 1.5); the 33 samples of its
        # bracket [0, 3.51] are highest there, but the peak 0.99890 at
        # T = 1.81 lies between two samples and must still be climbed
        t = _trace(Family.PSI, 0.75, 2.0, T_max=10.0 ** 1.5, n=10)
        assert int(np.argmax(t.C)) == 0
        c, T_at = max_concurrence(t)
        assert c == pytest.approx(0.9989015981872499, abs=1e-12)
        assert T_at == pytest.approx(1.8113136, abs=1e-6)

    def test_all_zero_trace(self):
        # PHI at alpha = pi/2 is the stationary |g, g, 0, 0>: C is 0 up to
        # cos(pi/2) = 6e-17 rounding at every point, so no pass finds a peak
        t = _trace(Family.PHI, math.pi / 2, 1.0, T_max=40.0, n=4000)
        assert float(np.max(t.C)) < 1e-15
        c, T_at = max_concurrence(t)
        assert c == pytest.approx(0.0, abs=1e-15)
        assert t.T_grid[0] <= T_at <= t.T_grid[1]

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("grid", [np.linspace(8200, 8220, 2000),
                                      np.linspace(0, 10000, 20000),
                                      np.linspace(1e9, 1e9 + 20, 2000),
                                      np.array([0.0, 1e15])],
                             ids=["8200", "10000", "1e9", "two-points-1e15"])
    def test_ends_where_doubles_are_wider_than_tolerance(self, monkeypatch, family, grid):
        # above T = 8192 adjacent doubles are 1.8e-12 apart, more than the
        # 1e-12 tolerance, so a loop that waits for the bracket to shrink
        # below it never ends; the counter turns such a hang into a failure
        calls, amplitudes = [], analytic.amplitudes

        def counted(*args, **kwargs):
            calls.append(args)
            if len(calls) > 300:
                raise RuntimeError("max_concurrence does not converge")
            return amplitudes(*args, **kwargs)

        spec = InitialStateSpec(family, 0.3)
        t = concurrence_trace(spec, ModelParams(epsilon=1.0), grid)
        monkeypatch.setattr(analytic, "amplitudes", counted)
        c, T_at = max_concurrence(t)
        k = int(np.argmax(t.C))
        assert c >= float(np.max(t.C))
        assert t.T_grid[max(k - 1, 0)] <= T_at <= t.T_grid[min(k + 1, grid.size - 1)]
        assert c == pytest.approx(float(_closed_form_C(t, T_at)), abs=1e-15)


class TestZoomSamples:
    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(0, 1e9), log_width=st.floats(-12, 9.5))
    def test_same_bytes_as_linspace(self, lo, log_width):
        hi = lo + 10.0 ** log_width
        assume(hi - lo > analysis._MAX_TOL)   # the only brackets sampled
        assert (analysis._samples(lo, hi).tobytes()
                == np.linspace(lo, hi, analysis._ZOOM_POINTS).tobytes())


def _linspace_max_concurrence(trace):
    """``max_concurrence`` as it was written with ``np.linspace`` samples,
    a ``_branch_fn`` closure per evaluation and ``np.argmax``: the
    bit-for-bit reference of the array-method form."""
    def conc(t):
        return 2.0 * np.maximum(0.0, _branch_fn([trace])(t))

    def zoom(lo, hi, c_best, t_best):
        while hi - lo > 1e-12:
            t = np.linspace(lo, hi, 33)
            c = conc(t)
            j = int(np.argmax(c))
            if c[j] >= c_best:
                c_best, t_best = float(c[j]), float(t[j])
            lo_next, hi_next = float(t[max(j - 1, 0)]), float(t[min(j + 1, 32)])
            if hi_next - lo_next >= hi - lo:
                break
            lo, hi = lo_next, hi_next
        return c_best, t_best

    T = trace.T_grid
    k = int(np.argmax(trace.C))
    lo, hi = float(T[max(k - 1, 0)]), float(T[min(k + 1, T.size - 1)])
    c_best, t_best = float(trace.C[k]), float(T[k])
    if hi - lo <= 1e-12:
        return c_best, t_best
    t = np.linspace(lo, hi, 33)
    c = conc(t)
    edged = np.concatenate(([-np.inf], c, [-np.inf]))
    for j in np.flatnonzero((c > edged[:-2]) & (c >= edged[2:])).tolist():
        if c[j] >= c_best:
            c_best, t_best = float(c[j]), float(t[j])
        c_best, t_best = zoom(float(t[max(j - 1, 0)]), float(t[min(j + 1, 32)]),
                              c_best, t_best)
    return c_best, t_best


class TestMaxConcurrenceMatchesLinspaceReference:
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("eps", [0.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.05, math.pi / 8, 0.75, 1.3])
    @pytest.mark.parametrize("grid", [np.linspace(0, 20, 2000), np.linspace(0, 100, 6)],
                             ids=["fine", "coarse"])
    def test_same_result(self, family, eps, alpha, grid):
        t = _trace_at(family, alpha, eps, grid)
        assert max_concurrence(t) == _linspace_max_concurrence(t)


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, lo, hi, tol=1e-12):
    """Golden-section maximization on [lo, hi]: the scalar refinement the
    array passes of ``max_concurrence`` replaced (it can loop forever once
    the bracket lies above T = 8192, where doubles are wider than ``tol``)."""
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


def _reference_max_concurrence(trace):
    T, k = trace.T_grid, int(np.argmax(trace.C))
    lo, hi = T[max(k - 1, 0)], T[min(k + 1, T.size - 1)]
    if hi <= lo:
        return float(trace.C[k]), float(T[k])
    c, t = _golden_max(lambda x: _closed_form_C(trace, x), float(lo), float(hi))
    return (c, t) if c >= trace.C[k] else (float(trace.C[k]), float(T[k]))


def _peak_count(trace, lo, hi, n=20001):
    """Rises followed by falls of C on a dense sampling of [lo, hi]; steps
    below 1e-12 (rounding on a flat top) count as level."""
    d = np.diff(_closed_form_C(trace, np.linspace(lo, hi, n)))
    signs = np.sign(d[np.abs(d) > 1e-12])
    return int(np.count_nonzero((signs[:-1] > 0) & (signs[1:] < 0)))


class TestMaxConcurrenceMatchesGoldenSection:
    @settings(max_examples=100, deadline=None)
    @given(family=st.sampled_from(Family), alpha=st.floats(0, math.pi / 2),
           eps=st.floats(0, 5), log_t_max=st.floats(-1, 2.5), n=st.integers(2, 3000))
    def test_never_below_golden_section(self, family, alpha, eps, log_t_max, n):
        t = _trace(family, alpha, eps, T_max=10.0 ** log_t_max, n=n)
        c, T_at = max_concurrence(t)
        c_golden, _ = _reference_max_concurrence(t)
        k = int(np.argmax(t.C))
        lo, hi = t.T_grid[max(k - 1, 0)], t.T_grid[min(k + 1, n - 1)]
        assert c >= float(np.max(t.C))
        # both refinements climb one peak; on a grid too coarse for C, the
        # bracket holds several and each may climb a different one
        if _peak_count(t, lo, hi) <= 1:
            assert c >= c_golden - 1e-15
        assert lo <= T_at <= hi
        # a scalar evaluation differs from the same T inside an array by up
        # to 5.6e-16 (numpy's array and scalar complex multiplies)
        assert c == pytest.approx(float(_closed_form_C(t, T_at)), abs=1e-15)


class TestEstimatePeriod:
    @pytest.mark.parametrize("eps", [0.0, 2.0])
    def test_psi_period(self, eps):
        t = _trace(Family.PSI, math.pi / 8, eps, T_max=20.0, n=4000)
        expected = 2 * math.pi / math.sqrt(8 + eps**2)
        assert estimate_period(t) == pytest.approx(expected, rel=1e-3)

    def test_period_shorter_with_dipole_coupling(self):
        t0 = _trace(Family.PSI, math.pi / 8, 0.0, T_max=20.0, n=4000)
        t2 = _trace(Family.PSI, math.pi / 8, 2.0, T_max=20.0, n=4000)
        assert estimate_period(t2) < estimate_period(t0)

    def test_non_uniform_grid_rejected(self):
        # the spectral estimate assumes one step; a mixed grid read with its
        # mean step reported 6.63 here instead of 2.22
        grid = np.concatenate([np.linspace(0, 10, 3000, endpoint=False),
                               np.linspace(10, 40, 1000)])
        t = concurrence_trace(InitialStateSpec(Family.PSI, math.pi / 8),
                              ModelParams(epsilon=0.0), grid)
        with pytest.raises(ValueError, match="T_grid"):
            estimate_period(t)

    @pytest.mark.parametrize("n", [5, 8])
    def test_under_sampled_grid_rejected(self, n):
        # a step of at least pi/kappa aliases the spectrum: this PSI trace
        # of period 2.22 read 12.80 on 5 points and 3.47 on 8
        t = _trace_at(Family.PSI, 0.3, 0.0, np.linspace(0, 10, n))
        with pytest.raises(ValueError, match="T_grid"):
            estimate_period(t)

    def test_short_trace_rejected(self):
        t = _trace(Family.PSI, math.pi / 8, 0.0, T_max=2.0, n=200)
        with pytest.raises(ValueError, match="short"):
            estimate_period(t)

    @pytest.mark.parametrize("n", [300, 4000, 4001])
    @pytest.mark.parametrize("family", list(Family))
    def test_same_bits_as_a_fresh_window(self, family, n):
        t = _trace_at(family, 0.3, 2.0, np.linspace(0.0, 40.0, n))
        for _ in range(2):   # the window built, then read from the cache
            assert estimate_period(t) == _reference_period(t)

    def test_window_is_shared_and_read_only(self):
        window = analysis._hann(300)
        assert analysis._hann(300) is window
        assert window.tobytes() == np.hanning(300).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            window[0] = 1.0


def _reference_period(trace):
    """``estimate_period``'s spectral peak, with a fresh ``np.hanning``."""
    x = trace.C - trace.C.mean()
    n = len(x)
    F = np.abs(np.fft.rfft(x * np.hanning(n)))
    k = 1 + int(F[1:].argmax())
    lm, l0, lp = np.log(F[k - 1]), np.log(F[k]), np.log(F[k + 1])
    delta = 0.5 * (lm - lp) / (lm - 2.0 * l0 + lp)
    return n * float(np.diff(trace.T_grid).mean()) / (k + float(delta))


class TestEstimatePeriodAliasing:
    """C(T) holds frequencies up to sigma = 2 x the fastest |x_i|^2 rate
    (``analytic._rates``), so a step must lie below pi/sigma, not pi/kappa."""

    @pytest.mark.parametrize("family,alpha,eps,fraction", [
        (Family.PHI, 0.3, 2.0, 0.8), (Family.PHI, 0.3, 2.0, 0.95),
        (Family.PSI, 0.1, 1.0, 0.9), (Family.PSI, 0.1, 2.0, 0.9)])
    def test_step_below_pi_over_kappa_rejected(self, family, alpha, eps, fraction):
        # under a guard at pi/kappa these read 1.500 and 2.228 for 1.405 (PHI),
        # 9.418 for 1.047 and 3.564 for 0.664 (PSI), with no error
        grid = np.arange(0.0, 200.0, fraction * math.pi / math.sqrt(8.0 + eps * eps))
        with pytest.raises(ValueError, match="T_grid"):
            estimate_period(_trace_at(family, alpha, eps, grid))

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, 2.0, 3.0])
    def test_step_just_below_pi_over_sigma_reads_the_fine_grid(self, family, eps):
        step = 0.9 * math.pi / (2.0 * max(analytic._rates(family, eps)))
        coarse = np.arange(int(200.0 / step) + 1) * step
        fine = np.linspace(0.0, 200.0, 200_001)
        for alpha in (0.1, 0.3, 0.6, 0.9, 1.2):
            want = estimate_period(_trace_at(family, alpha, eps, fine))
            assert estimate_period(_trace_at(family, alpha, eps, coarse)) == pytest.approx(
                want, abs=1e-3), alpha
