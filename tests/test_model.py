import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tcm_entangle.model import (SUPPORT_KETS, Basis, Family, InitialStateSpec, ModelParams,
                                initial_state)


class TestModelParams:
    def test_from_dimensionless_round_trip(self):
        p = ModelParams.from_dimensionless(epsilon=2.0, lam=3.0)
        assert p.epsilon == 2.0
        assert p.lam == 3.0
        assert p == ModelParams(2.0, 3.0)

    # the floats stored a different ratio when they went through g = 3
    @pytest.mark.parametrize("epsilon,lam", [(0.1, 2.0), (0.3, 0.7), (2, 3)])
    def test_ratios_stored_as_given(self, epsilon, lam):
        p = ModelParams(epsilon=epsilon, lam=lam)
        assert (p.epsilon, p.lam) == (epsilon, lam)
        assert type(p.epsilon) is float and type(p.lam) is float

    @pytest.mark.parametrize("kwargs", [
        dict(epsilon=-0.1), dict(epsilon=-math.inf), dict(n_max=1), dict(lam=math.inf),
        dict(epsilon=math.nan), dict(lam=-math.inf), dict(lam=math.nan),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("kwargs,field", [
        (dict(epsilon=math.nan), "epsilon"), (dict(epsilon=math.inf), "epsilon"),
        (dict(lam=math.nan), "lam"),
    ])
    def test_rejects_non_finite(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ModelParams(**kwargs)


def _label(basis, i):
    """``ge01``-style name of basis state i: atom A, atom B, n_a, n_b."""
    return (f"{'ge'[basis.excited_a[i]]}{'ge'[basis.excited_b[i]]}"
            f"{basis.n_a[i]}{basis.n_b[i]}")


class TestBasis:
    def test_n_max_zero_enumeration(self):
        b = Basis(0)
        assert [_label(b, i) for i in range(b.size)] == ["ee00", "eg00", "ge00", "gg00"]

    def test_size(self):
        assert Basis(2).size == 36
        assert Basis(4).size == 100

    def test_documented_ordering(self):
        # atom A slowest, then atom B, then n_a, then n_b
        b = Basis(2)
        assert _label(b, 0) == "ee00"
        assert _label(b, 1) == "ee01"
        assert _label(b, 3) == "ee10"
        assert _label(b, 9) == "eg00"
        assert b.index("g", "g", 1, 1) == 3 * 9 + 3 + 1

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1), st.integers(0, 1))
    def test_index_state_round_trip(self, n_a, n_b, ia, ib):
        b = Basis(3)
        s = ("eg"[ia], "eg"[ib], n_a, n_b)
        assert _label(b, b.index(*s)) == "".join(map(str, s))

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
        b = Basis(2)
        assert b.excitations[b.index(*label)] == expected


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

    @pytest.mark.parametrize("n_max", [2, 3, 4])
    def test_same_bytes_as_a_walk_of_the_support_kets(self, n_max):
        b = Basis(n_max)
        for family in Family:
            for alpha in np.linspace(0, math.pi / 2, 7):
                expected = np.zeros(b.size, dtype=complex)
                for ket, amp in zip(SUPPORT_KETS[family], (math.cos(alpha), math.sin(alpha))):
                    expected[b.index(*ket)] = amp
                psi = initial_state(InitialStateSpec(family, alpha), b)
                assert psi.dtype == expected.dtype and psi.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_max", [2, 3, 4])
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_support_indices_are_the_walk_of_the_support_kets(self, n_max, family):
        # found once per basis and family, and read-only, so no caller can
        # change what the next one reads
        b = Basis(n_max)
        found = b.support_indices(family)
        assert found.tolist() == [b.index(*ket) for ket in SUPPORT_KETS[family]]
        assert b.support_indices(family) is found
        with pytest.raises(ValueError, match="read-only"):
            found[0] = 0
        assert found.tolist() == [b.index(*ket) for ket in SUPPORT_KETS[family]]

    def test_initial_concurrence_is_sin_2alpha(self):
        from tcm_entangle.entanglement import reduce_to_atoms, wootters_concurrence
        b = Basis(2)
        for family in Family:
            for alpha in np.linspace(0, math.pi / 2, 50):
                psi = initial_state(InitialStateSpec(family, alpha), b)
                c = wootters_concurrence(reduce_to_atoms(psi))
                assert c == pytest.approx(math.sin(2 * alpha), abs=1e-12)
