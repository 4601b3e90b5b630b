import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcm_entangle.analytic import (closed_form_states, phi_amplitudes,
                                   psi_amplitudes)
from tcm_entangle.model import (Basis, Family, InitialStateSpec, ModelParams,
                                initial_state)
from tcm_entangle.propagator import decompose_model, evolve

ALPHAS = [0.0, math.pi / 12, math.pi / 8, math.pi / 4, math.pi / 3, math.pi / 2]
EPSILONS = [0.0, 0.5, 2.0, 5.0]


class TestPsiAmplitudes:
    def test_time_zero(self):
        for a in ALPHAS:
            x1, x2, x3 = psi_amplitudes(a, 1.3, 0.0)
            assert complex(x1) == pytest.approx(math.cos(a), abs=1e-14)
            assert complex(x2) == pytest.approx(math.sin(a), abs=1e-14)
            assert complex(x3) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_normalized(self, alpha, eps):
        T = np.linspace(0, 25, 400)
        x1, x2, x3 = psi_amplitudes(alpha, eps, T)
        norm = np.abs(x1) ** 2 + np.abs(x2) ** 2 + np.abs(x3) ** 2
        np.testing.assert_allclose(norm, 1.0, atol=1e-12)

    def test_half_period_point(self):
        # eps = 0, alpha = pi/4, kappa*T = pi: everything sits on |gg11>
        T = math.pi / math.sqrt(8)
        x1, x2, x3 = psi_amplitudes(math.pi / 4, 0.0, T)
        assert abs(complex(x1)) == pytest.approx(0.0, abs=1e-12)
        assert abs(complex(x2)) == pytest.approx(0.0, abs=1e-12)
        assert abs(complex(x3)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_x3_periodic_in_kappa(self, eps):
        # |x3| is exactly periodic with period 2*pi/kappa for every eps
        alpha = math.pi / 8
        kappa = math.sqrt(8 + eps**2)
        T = np.linspace(0, 5, 50)
        _, _, a3 = psi_amplitudes(alpha, eps, T)
        _, _, b3 = psi_amplitudes(alpha, eps, T + 2 * math.pi / kappa)
        np.testing.assert_allclose(np.abs(a3), np.abs(b3), atol=1e-12)

    def test_amplitudes_swap_after_one_kappa_period(self):
        # at eps = 0 a shift by 2*pi/kappa exchanges |x1| and |x2|, so the
        # concurrence 2|x1 x2*| is periodic while |x1| alone is not
        alpha = math.pi / 8
        kappa = math.sqrt(8)
        T = np.linspace(0, 5, 50)
        a1, a2, _ = psi_amplitudes(alpha, 0.0, T)
        b1, b2, _ = psi_amplitudes(alpha, 0.0, T + 2 * math.pi / kappa)
        np.testing.assert_allclose(np.abs(b1), np.abs(a2), atol=1e-12)
        np.testing.assert_allclose(np.abs(b2), np.abs(a1), atol=1e-12)
        np.testing.assert_allclose(np.abs(b1 * np.conj(b2)),
                                   np.abs(a1 * np.conj(a2)), atol=1e-12)

    def test_cross_term_real_at_eps_zero(self):
        T = np.linspace(0, 20, 500)
        for alpha in ALPHAS:
            x1, x2, _ = psi_amplitudes(alpha, 0.0, T)
            np.testing.assert_allclose(np.imag(x1 * np.conj(x2)), 0.0, atol=1e-12)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            psi_amplitudes(-0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            psi_amplitudes(0.3, -1.0, 1.0)


class TestPhiAmplitudes:
    def test_time_zero(self):
        for a in ALPHAS:
            x1, x2, x3, x4, x5 = phi_amplitudes(a, 1.3, 2.0, 0.0)
            assert complex(x1) == pytest.approx(math.cos(a), abs=1e-14)
            assert complex(x2) == pytest.approx(math.sin(a), abs=1e-14)
            for x in (x3, x4, x5):
                assert abs(complex(x)) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_normalized(self, alpha, eps):
        T = np.linspace(0, 25, 400)
        xs = phi_amplitudes(alpha, eps, 2.0, T)
        norm = sum(np.abs(x) ** 2 for x in xs[:2]) + sum(np.abs(x) ** 2 for x in xs[2:])
        np.testing.assert_allclose(norm, 1.0, atol=1e-12)

    def test_x3_equals_x4(self):
        T = np.linspace(0, 20, 100)
        xs = phi_amplitudes(0.4, 1.7, 2.0, T)
        np.testing.assert_allclose(xs[2], xs[3], atol=0.0)

    def test_eps_zero_magnitudes(self):
        # |x1| = cos(a) cos^2 T, |x5| = cos(a) sin^2 T, |x3| = cos(a)|sin 2T|/2
        alpha = math.pi / 3
        T = np.linspace(0, 10, 200)
        x1, _, x3, _, x5 = phi_amplitudes(alpha, 0.0, 2.0, T)
        c = math.cos(alpha)
        np.testing.assert_allclose(np.abs(x1), c * np.cos(T) ** 2, atol=1e-12)
        np.testing.assert_allclose(np.abs(x5), c * np.sin(T) ** 2, atol=1e-12)
        np.testing.assert_allclose(np.abs(x3), c * np.abs(np.sin(2 * T)) / 2, atol=1e-12)

    def test_quarter_period_point(self):
        x1, x2, _, _, x5 = phi_amplitudes(math.pi / 3, 0.0, 2.0, math.pi / 2)
        assert abs(complex(x1)) == pytest.approx(0.0, abs=1e-12)
        assert abs(complex(x2)) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert abs(complex(x5)) == pytest.approx(0.5, abs=1e-12)

    def test_lam_only_shifts_phases(self):
        T = np.linspace(0, 15, 150)
        a = phi_amplitudes(0.5, 1.1, 2.0, T)
        b = phi_amplitudes(0.5, 1.1, 7.3, T)
        for xa, xb in zip(a, b):
            np.testing.assert_allclose(np.abs(xa), np.abs(xb), atol=1e-12)


class TestOracleEquivalence:
    @pytest.mark.parametrize("eps", [0.0, 2.0])
    @pytest.mark.parametrize("alpha", [math.pi / 8, math.pi / 4, math.pi / 3])
    def test_psi_states_match_propagation(self, alpha, eps):
        params = ModelParams.from_dimensionless(epsilon=eps)
        basis = Basis(params.n_max)
        decomp = decompose_model(params, basis)
        spec = InitialStateSpec(Family.PSI, alpha)
        psi0 = initial_state(spec, basis)
        T_grid = np.linspace(0, 12, 25)
        for T, got in zip(T_grid, closed_form_states(spec, params, basis, T_grid)):
            np.testing.assert_allclose(got, evolve(psi0, decomp, T), atol=1e-10)

    @pytest.mark.parametrize("eps", [0.0, 2.0])
    @pytest.mark.parametrize("alpha", [math.pi / 8, math.pi / 4, math.pi / 3])
    def test_phi_states_match_propagation(self, alpha, eps):
        params = ModelParams.from_dimensionless(epsilon=eps)
        basis = Basis(params.n_max)
        decomp = decompose_model(params, basis)
        spec = InitialStateSpec(Family.PHI, alpha)
        psi0 = initial_state(spec, basis)
        T_grid = np.linspace(0, 12, 25)
        for T, got in zip(T_grid, closed_form_states(spec, params, basis, T_grid)):
            np.testing.assert_allclose(got, evolve(psi0, decomp, T), atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(0, math.pi / 2), eps=st.floats(0, 5), T=st.floats(0, 30))
    def test_psi_fidelity_property(self, alpha, eps, T):
        params = ModelParams.from_dimensionless(epsilon=eps)
        basis = Basis(params.n_max)
        decomp = decompose_model(params, basis)
        spec = InitialStateSpec(Family.PSI, alpha)
        expected = evolve(initial_state(spec, basis), decomp, T)
        (got,) = closed_form_states(spec, params, basis, [T])
        assert abs(np.vdot(got, expected)) >= 1 - 1e-9


class TestClosedFormStates:
    def test_psi_placement(self):
        basis = Basis(2)
        spec = InitialStateSpec(Family.PSI, math.pi / 8)
        (psi,) = closed_form_states(spec, ModelParams.from_dimensionless(), basis, [0.0])
        assert psi[basis.index("e", "g", 0, 0)] == pytest.approx(math.cos(math.pi / 8))
        assert psi[basis.index("g", "e", 0, 0)] == pytest.approx(math.sin(math.pi / 8))
        assert np.count_nonzero(psi) == 2

    def test_phi_requires_two_photon_truncation(self):
        spec = InitialStateSpec(Family.PHI, 0.3)
        with pytest.raises(ValueError, match="n_max"):
            closed_form_states(spec, ModelParams.from_dimensionless(), Basis(1), [1.0])
