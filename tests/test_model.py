import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tcm_entangle.model import (Basis, BasisState, Family, InitialStateSpec,
                                ModelParams, derive_constants,
                                excitation_number, initial_state)


class TestModelParams:
    def test_resonance_enforced(self):
        with pytest.raises(ValueError, match="resonance"):
            ModelParams(omega_a=1.0, omega_b=1.0, omega_0=2.5)

    def test_dimensionless_ratios_recomputed(self):
        p = ModelParams(omega_a=1.5, omega_b=0.5, omega_0=2.0, g=0.5, Omega=1.0)
        assert p.epsilon == 2.0
        assert p.lam == 4.0

    def test_from_dimensionless_round_trip(self):
        p = ModelParams.from_dimensionless(epsilon=2.0, lam=3.0, g=2.0)
        assert p.epsilon == 2.0
        assert p.lam == 3.0
        assert p.omega_0 == p.omega_a + p.omega_b

    @pytest.mark.parametrize("kwargs", [
        dict(g=0.0), dict(g=-1.0), dict(Omega=-0.1), dict(n_max=1),
        dict(g=math.inf), dict(Omega=math.nan), dict(omega_a=math.nan, omega_0=math.nan),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        base = dict(omega_a=1.0, omega_b=1.0, omega_0=2.0)
        with pytest.raises(ValueError):
            ModelParams(**{**base, **kwargs})

    @pytest.mark.parametrize("kwargs,field", [
        (dict(epsilon=math.nan), "Omega"), (dict(epsilon=math.inf), "Omega"),
        (dict(lam=math.nan), "omega_a"),
    ])
    def test_from_dimensionless_rejects_non_finite(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ModelParams.from_dimensionless(**kwargs)


class TestDerivedConstants:
    @pytest.mark.parametrize("eps", [0.0, 0.5, 2.0, 10.0])
    @pytest.mark.parametrize("alpha", [0.0, math.pi / 8, math.pi / 4, math.pi / 2])
    def test_invariants(self, eps, alpha):
        d = derive_constants(eps, alpha)
        assert d.kappa >= math.sqrt(8) - 1e-15
        assert d.eta >= 4.0 - 1e-15
        assert d.L_plus - d.L_minus == pytest.approx(2.0, abs=1e-15)
        assert d.theta_plus**2 + d.theta_minus**2 == pytest.approx(2.0, abs=1e-14)

    def test_values_at_eps_zero(self):
        d = derive_constants(0.0, math.pi / 4)
        assert d.kappa == pytest.approx(math.sqrt(8))
        assert d.eta == pytest.approx(4.0)
        assert d.L_plus == 1.0 and d.L_minus == -1.0


class TestBasis:
    def test_n_max_zero_enumeration(self):
        b = Basis(0)
        assert [s.label() for s in b.states] == ["ee00", "eg00", "ge00", "gg00"]

    def test_size(self):
        assert Basis(2).size == 36
        assert Basis(4).size == 100

    def test_documented_ordering(self):
        # atom A slowest, then atom B, then n_a, then n_b
        b = Basis(2)
        assert b.states[0].label() == "ee00"
        assert b.states[1].label() == "ee01"
        assert b.states[3].label() == "ee10"
        assert b.states[9].label() == "eg00"
        assert b.index("g", "g", 1, 1) == 3 * 9 + 3 + 1

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1), st.integers(0, 1))
    def test_index_state_round_trip(self, n_a, n_b, ia, ib):
        b = Basis(3)
        s = BasisState("eg"[ia], "eg"[ib], n_a, n_b)
        assert b.states[b.index(s.atom_a, s.atom_b, s.n_a, s.n_b)] == s

    def test_out_of_range_index_rejected(self):
        b = Basis(2)
        with pytest.raises(ValueError):
            b.index("e", "g", 3, 0)
        with pytest.raises(ValueError):
            b.index("x", "g", 0, 0)


class TestExcitationNumber:
    @pytest.mark.parametrize("label,expected", [
        (("e", "g", 0, 0), 2),
        (("g", "g", 1, 1), 2),
        (("e", "e", 0, 0), 4),
        (("g", "g", 2, 2), 4),
        (("g", "g", 0, 0), 0),
    ])
    def test_examples(self, label, expected):
        assert excitation_number(BasisState(*label)) == expected


class TestInitialState:
    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            InitialStateSpec(Family.PSI, -0.1)
        with pytest.raises(ValueError):
            InitialStateSpec(Family.PSI, math.pi / 2 + 0.01)

    def test_psi_alpha_zero_is_eg00(self):
        b = Basis(2)
        psi = initial_state(InitialStateSpec(Family.PSI, 0.0), b)
        expected = np.zeros(b.size)
        expected[b.index("e", "g", 0, 0)] = 1.0
        np.testing.assert_allclose(psi, expected)

    def test_psi_bell_point(self):
        b = Basis(2)
        psi = initial_state(InitialStateSpec(Family.PSI, math.pi / 4), b)
        assert psi[b.index("e", "g", 0, 0)] == pytest.approx(1 / math.sqrt(2))
        assert psi[b.index("g", "e", 0, 0)] == pytest.approx(1 / math.sqrt(2))
        assert np.count_nonzero(psi) == 2

    def test_phi_bell_point(self):
        b = Basis(2)
        psi = initial_state(InitialStateSpec(Family.PHI, math.pi / 4), b)
        assert psi[b.index("e", "e", 0, 0)] == pytest.approx(1 / math.sqrt(2))
        assert psi[b.index("g", "g", 0, 0)] == pytest.approx(1 / math.sqrt(2))

    @pytest.mark.parametrize("family,sectors", [(Family.PSI, {2}), (Family.PHI, {0, 4})])
    def test_sector_support(self, family, sectors):
        b = Basis(2)
        for alpha in np.linspace(0, math.pi / 2, 7):
            psi = initial_state(InitialStateSpec(family, alpha), b)
            occupied = set(b.excitations[np.abs(psi) > 0].tolist())
            assert occupied <= sectors
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_initial_concurrence_is_sin_2alpha(self):
        from tcm_entangle.entanglement import reduce_to_atoms, wootters_concurrence
        b = Basis(2)
        for family in Family:
            for alpha in np.linspace(0, math.pi / 2, 50):
                psi = initial_state(InitialStateSpec(family, alpha), b)
                c = wootters_concurrence(reduce_to_atoms(psi, b))
                assert c == pytest.approx(math.sin(2 * alpha), abs=1e-12)
