import math

import numpy as np
import pytest

from tcm_entangle.analysis import (ConcurrenceTrace, TracePath,
                                   analytic_concurrence, concurrence_trace,
                                   detect_death_intervals, estimate_period,
                                   max_concurrence)
from tcm_entangle.model import Family, InitialStateSpec, ModelParams


def _trace(family, alpha, eps, T_max=20.0, n=2000, path=TracePath.ANALYTIC):
    spec = InitialStateSpec(family, alpha)
    params = ModelParams.from_dimensionless(epsilon=eps)
    return concurrence_trace(spec, params, np.linspace(0, T_max, n), path)


class TestConcurrenceTrace:
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

    def test_rejects_bad_grid(self):
        spec = InitialStateSpec(Family.PSI, 0.3)
        params = ModelParams.from_dimensionless()
        with pytest.raises(ValueError):
            concurrence_trace(spec, params, np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            concurrence_trace(spec, params, np.array([]))


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
        params = ModelParams.from_dimensionless()
        t = concurrence_trace(spec, params, np.linspace(1.0, 4.0, 2000))
        ivs = detect_death_intervals(t)
        assert len(ivs) == 1
        assert not ivs[0].refined
        assert ivs[0].T_start == 1.0


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
        assert c == pytest.approx(analytic_concurrence(t, T_at), abs=1e-12)


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
                              ModelParams.from_dimensionless(epsilon=0.0), grid)
        with pytest.raises(ValueError, match="T_grid"):
            estimate_period(t)

    def test_short_trace_rejected(self):
        t = _trace(Family.PSI, math.pi / 8, 0.0, T_max=2.0, n=200)
        with pytest.raises(ValueError, match="short"):
            estimate_period(t)
