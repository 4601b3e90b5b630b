import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from tcm_entangle.analysis import TracePath, concurrence_trace
from tcm_entangle.entanglement import (_SPIN_FLIP, is_x_state, pure_concurrence,
                                       reduce_to_atoms, wootters_concurrence,
                                       xstate_concurrence)
from tcm_entangle.model import Basis, Family, InitialStateSpec, ModelParams, initial_state
from tcm_entangle.propagator import decompose_model, evolve


def _pure_atomic_rho(a, b, c, d):
    v = np.array([a, b, c, d], dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


class TestWoottersConcurrence:
    def test_bell_states_are_maximal(self):
        s = 1 / math.sqrt(2)
        for v in ([s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0]):
            rho = np.outer(np.array(v), np.array(v))
            assert wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_zero(self):
        assert wootters_concurrence(np.eye(4) / 4) == 0.0

    def test_product_state_is_zero(self):
        rho = _pure_atomic_rho(1, 0, 0, 0)
        assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_partial_entanglement(self):
        # cos(a)|eg> + sin(a)|ge>  ->  C = sin(2a)
        for a in np.linspace(0, math.pi / 2, 20):
            rho = _pure_atomic_rho(0, math.cos(a), math.sin(a), 0)
            assert wootters_concurrence(rho) == pytest.approx(
                math.sin(2 * a), abs=1e-12)

    def test_half_transfer_point(self):
        # x1 = x2 = 1/2 on |eg>,|ge> with weight 1/2 left on the photon pair:
        # rank-2 X state with C = 2(1/4) = 1/2
        rho = np.diag([0.0, 0.25, 0.25, 0.5]).astype(complex)
        rho[1, 2] = rho[2, 1] = 0.25
        assert wootters_concurrence(rho) == pytest.approx(0.5, abs=1e-12)

    def test_werner_threshold(self):
        # Werner state p|Psi-><Psi-| + (1-p) I/4: C = max(0, (3p-1)/2)
        s = 1 / math.sqrt(2)
        bell = np.outer([0, s, -s, 0], [0, s, -s, 0])
        for p in (0.0, 0.2, 1 / 3, 0.5, 0.9):
            rho = p * bell + (1 - p) * np.eye(4) / 4
            expected = max(0.0, (3 * p - 1) / 2)
            assert wootters_concurrence(rho) == pytest.approx(expected, abs=1e-12)

    @given(st.tuples(*[st.floats(-1, 1) for _ in range(8)]))
    def test_pure_state_formula(self, parts):
        v = np.array(parts[:4]) + 1j * np.array(parts[4:])
        norm = np.linalg.norm(v)
        if norm < 1e-3:
            return
        v = v / norm
        rho = np.outer(v, v.conj())
        expected = 2 * abs(v[0] * v[3] - v[1] * v[2])
        assert wootters_concurrence(rho) == pytest.approx(expected, abs=1e-10)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(11)
        rho = _pure_atomic_rho(0.3, 0.5 + 0.2j, -0.4, 0.1j)
        c0 = wootters_concurrence(rho)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            u = np.kron(q, np.eye(2))
            assert wootters_concurrence(u @ rho @ u.conj().T) == pytest.approx(
                c0, abs=1e-10)

    @pytest.mark.parametrize("bad", [
        np.eye(3) / 3,                                  # wrong size
        np.diag([0.5, 0.5, 0.25, -0.25]),               # trace 1, not PSD
        np.diag([0.4, 0.4, 0.4, 0.4]),                  # trace != 1
    ])
    def test_invalid_density_matrices_rejected(self, bad):
        with pytest.raises(ValueError):
            wootters_concurrence(np.asarray(bad, dtype=complex))

    def test_non_hermitian_rejected(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho[0, 1] = 0.2
        with pytest.raises(ValueError, match="Hermitian"):
            wootters_concurrence(rho)


class TestXStateConcurrence:
    def test_matches_general_route_on_x_states(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            d = rng.dirichlet(np.ones(4))
            inner = rng.uniform(0, math.sqrt(d[1] * d[2])) * np.exp(2j * math.pi * rng.uniform())
            outer = rng.uniform(0, math.sqrt(d[0] * d[3])) * np.exp(2j * math.pi * rng.uniform())
            rho = np.diag(d).astype(complex)
            rho[1, 2], rho[2, 1] = inner, np.conj(inner)
            rho[0, 3], rho[3, 0] = outer, np.conj(outer)
            assert xstate_concurrence(rho) == pytest.approx(
                wootters_concurrence(rho), abs=1e-10)

    def test_non_x_rejected(self):
        rho = _pure_atomic_rho(0.6, 0.8, 0, 0)
        assert not is_x_state(rho)
        with pytest.raises(ValueError, match="X-shaped"):
            xstate_concurrence(rho)

    def test_is_x_state_accepts_diagonal(self):
        assert is_x_state(np.eye(4) / 4)


class TestReduceToAtoms:
    @pytest.fixture
    def basis(self):
        return Basis(2)

    def test_initial_psi_structure(self, basis):
        a = math.pi / 8
        psi = initial_state(InitialStateSpec(Family.PSI, a), basis)
        rho = reduce_to_atoms(psi, basis)
        expected = _pure_atomic_rho(0, math.cos(a), math.sin(a), 0)
        np.testing.assert_allclose(rho, expected, atol=1e-14)

    def test_evolved_psi_is_x_shaped(self, basis):
        # |x1|^2, |x2|^2, |x3|^2 on the diagonal, x1 x2* the only coherence
        params = ModelParams.from_dimensionless(epsilon=0.8)
        decomp = decompose_model(params, basis)
        psi0 = initial_state(InitialStateSpec(Family.PSI, math.pi / 8), basis)
        for T in (0.7, 2.2, 5.9):
            rho = reduce_to_atoms(evolve(psi0, decomp, T), basis)
            assert is_x_state(rho, tol=1e-12)
            assert rho[0, 0] == pytest.approx(0.0, abs=1e-12)
            assert abs(rho[0, 3]) == pytest.approx(0.0, abs=1e-12)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_evolved_phi_diagonal_structure(self, basis):
        # rho_gg collects both |gg00> and |gg22|; only the ee/gg coherence
        # survives the partial trace
        params = ModelParams.from_dimensionless(epsilon=0.8)
        decomp = decompose_model(params, basis)
        psi0 = initial_state(InitialStateSpec(Family.PHI, math.pi / 8), basis)
        psi = evolve(psi0, decomp, 1.3)
        rho = reduce_to_atoms(psi, basis)
        assert is_x_state(rho, tol=1e-12)
        x4 = psi[basis.index("e", "g", 1, 1)]
        x3 = psi[basis.index("g", "e", 1, 1)]
        x2 = psi[basis.index("g", "g", 0, 0)]
        x5 = psi[basis.index("g", "g", 2, 2)]
        assert rho[1, 1] == pytest.approx(abs(x4) ** 2, abs=1e-12)
        assert rho[2, 2] == pytest.approx(abs(x3) ** 2, abs=1e-12)
        assert rho[3, 3] == pytest.approx(abs(x2) ** 2 + abs(x5) ** 2, abs=1e-12)
        assert rho[1, 2] == pytest.approx(x4 * np.conj(x3), abs=1e-12)

    def test_routes_agree_along_trajectory(self, basis):
        params = ModelParams.from_dimensionless(epsilon=2.0)
        decomp = decompose_model(params, basis)
        for family in Family:
            psi0 = initial_state(InitialStateSpec(family, math.pi / 6), basis)
            for T in np.linspace(0, 10, 21):
                rho = reduce_to_atoms(evolve(psi0, decomp, T), basis)
                assert xstate_concurrence(rho) == pytest.approx(
                    wootters_concurrence(rho), abs=1e-10)


class TestPureConcurrence:
    @pytest.fixture
    def basis(self):
        return Basis(2)

    def test_matches_general_route_on_trajectories(self, basis):
        params = ModelParams.from_dimensionless(epsilon=1.3)
        decomp = decompose_model(params, basis)
        for family in Family:
            psi0 = initial_state(InitialStateSpec(family, math.pi / 5), basis)
            for T in np.linspace(0, 15, 40):
                psi = evolve(psi0, decomp, T)
                direct = pure_concurrence(psi, basis)
                general = wootters_concurrence(reduce_to_atoms(psi, basis))
                assert direct == pytest.approx(general, abs=1e-8)

    def test_exact_zero_near_rank_deficiency(self, basis):
        # the uncoupled-atom start has C identically zero, including at the
        # point where one reduced eigenvalue sits near 1e-13 and a
        # truncation-based route would leak a ~1e-6 artifact
        params = ModelParams.from_dimensionless()
        decomp = decompose_model(params, basis)
        psi0 = initial_state(InitialStateSpec(Family.PHI, 0.0), basis)
        for T in np.linspace(4.70, 4.72, 9):
            psi = evolve(psi0, decomp, T)
            assert pure_concurrence(psi, basis) <= 1e-12

    def test_initial_states(self, basis):
        for family in Family:
            for alpha in np.linspace(0, math.pi / 2, 11):
                psi = initial_state(InitialStateSpec(family, alpha), basis)
                assert pure_concurrence(psi, basis) == pytest.approx(
                    math.sin(2 * alpha), abs=1e-12)

    def test_rejects_bad_input(self, basis):
        with pytest.raises(ValueError, match="norm"):
            pure_concurrence(np.zeros(basis.size), basis)
        with pytest.raises(ValueError, match="basis size"):
            pure_concurrence(np.ones(4) / 2.0, basis)


class TestSignedCrossTerm:
    """2 Re(rho_eg,ge) of the propagated state is the signed_C column of an
    ORACLE PSI trace; for PSI it equals the real cross term 2 Re(x1 x2*)."""

    @pytest.fixture(scope="class")
    def traces(self):
        spec = InitialStateSpec(Family.PSI, math.pi / 12)
        params = ModelParams.from_dimensionless(epsilon=0.0)
        grid = np.linspace(0.0, 20.0, 400)
        return (concurrence_trace(spec, params, grid, TracePath.ORACLE),
                concurrence_trace(spec, params, grid, TracePath.ANALYTIC))

    def test_equals_cross_term_for_psi(self, traces):
        oracle, analytic = traces
        assert oracle.signed_C[0] == pytest.approx(math.sin(math.pi / 6), abs=1e-12)
        np.testing.assert_allclose(oracle.signed_C, analytic.signed_C, rtol=0, atol=1e-10)

    def test_sign_not_visible_in_concurrence(self, traces):
        # the concurrence uses |rho_23|, so the signed term carries the
        # extra phase information
        oracle, _ = traces
        assert oracle.signed_C.min() < -0.2
        assert np.all(oracle.C >= 0.0)
        assert np.all(oracle.C >= np.abs(oracle.signed_C) - 1e-12)


def _reference_pure_concurrence(psi, basis):
    """One state at a time, as pure_concurrence computed it before it took
    stacks: the reference for the batched path."""
    B = np.asarray(psi, dtype=complex).reshape(4, (basis.n_max + 1) ** 2)
    roots = np.linalg.svd(B.T @ _SPIN_FLIP @ B, compute_uv=False)
    return max(0.0, float(roots[0] - roots[1:].sum()))


def _reference_reduce_to_atoms(psi, basis):
    block = np.asarray(psi, dtype=complex).reshape(4, (basis.n_max + 1) ** 2)
    return block @ block.conj().T


@st.composite
def _state_stacks(draw):
    """Normalised states for n_max 2-4, stacked, with sparse supports."""
    basis = Basis(draw(st.integers(2, 4)))
    shape = (draw(st.integers(1, 6)), basis.size)
    parts = draw(hnp.arrays(float, shape + (2,), elements=st.floats(-1, 1, width=32)))
    support = draw(hnp.arrays(bool, shape))
    psis = (parts[..., 0] + 1j * parts[..., 1]) * support
    small = np.linalg.norm(psis, axis=-1) < 1e-3
    psis[small, draw(st.integers(0, basis.size - 1))] = 1.0
    return basis, psis / np.linalg.norm(psis, axis=-1, keepdims=True)


class TestStackedStates:
    @settings(max_examples=60, deadline=None)
    @given(_state_stacks())
    def test_stack_equals_per_row(self, drawn):
        basis, psis = drawn
        C, rho = pure_concurrence(psis, basis), reduce_to_atoms(psis, basis)
        assert C.shape == psis.shape[:1] and rho.shape == psis.shape[:1] + (4, 4)
        for psi, c, r in zip(psis, C, rho):
            assert c == _reference_pure_concurrence(psi, basis) == pure_concurrence(psi, basis)
            assert np.array_equal(r, _reference_reduce_to_atoms(psi, basis))
            assert np.array_equal(r, reduce_to_atoms(psi, basis))

    def test_one_off_norm_row_rejected(self):
        basis = Basis(2)
        psis = np.stack([initial_state(InitialStateSpec(Family.PSI, a), basis)
                         for a in np.linspace(0, math.pi / 2, 5)])
        psis[3] *= 1.01
        with pytest.raises(ValueError, match="norm"):
            pure_concurrence(psis, basis)
        psis[3] = np.nan
        with pytest.raises(ValueError, match="norm nan"):
            pure_concurrence(psis, basis)

    def test_single_state_gives_float(self):
        basis = Basis(2)
        psi = initial_state(InitialStateSpec(Family.PHI, math.pi / 8), basis)
        assert type(pure_concurrence(psi, basis)) is float
        assert reduce_to_atoms(psi, basis).shape == (4, 4)
