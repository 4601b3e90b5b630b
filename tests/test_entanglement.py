import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from tcm_entangle import entanglement, figures
from tcm_entangle.analysis import TracePath, concurrence_trace, occupied_states
from tcm_entangle.analytic import closed_form_states
from tcm_entangle.config import parse_config
from tcm_entangle.entanglement import (_SPIN_FLIP, concurrence_gap_bound, is_x_state,
                                       pure_concurrence, reduce_to_atoms,
                                       wootters_concurrence, xstate_concurrence)
from tcm_entangle.model import Basis, Family, InitialStateSpec, ModelParams, initial_state
from tcm_entangle.propagator import evolve


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
        rho = reduce_to_atoms(psi)
        expected = _pure_atomic_rho(0, math.cos(a), math.sin(a), 0)
        np.testing.assert_allclose(rho, expected, atol=1e-14)

    def test_evolved_psi_is_x_shaped(self, basis):
        # |x1|^2, |x2|^2, |x3|^2 on the diagonal, x1 x2* the only coherence
        params = ModelParams(epsilon=0.8)
        decomp = params.decomposition
        psi0 = initial_state(InitialStateSpec(Family.PSI, math.pi / 8), basis)
        for T in (0.7, 2.2, 5.9):
            rho = reduce_to_atoms(evolve(psi0, decomp, T))
            assert is_x_state(rho)
            assert rho[0, 0] == pytest.approx(0.0, abs=1e-12)
            assert abs(rho[0, 3]) == pytest.approx(0.0, abs=1e-12)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_evolved_phi_diagonal_structure(self, basis):
        # rho_gg collects both |gg00> and |gg22|; only the ee/gg coherence
        # survives the partial trace
        params = ModelParams(epsilon=0.8)
        decomp = params.decomposition
        psi0 = initial_state(InitialStateSpec(Family.PHI, math.pi / 8), basis)
        psi = evolve(psi0, decomp, 1.3)
        rho = reduce_to_atoms(psi)
        assert is_x_state(rho)
        x4 = psi[basis.index("e", "g", 1, 1)]
        x3 = psi[basis.index("g", "e", 1, 1)]
        x2 = psi[basis.index("g", "g", 0, 0)]
        x5 = psi[basis.index("g", "g", 2, 2)]
        assert rho[1, 1] == pytest.approx(abs(x4) ** 2, abs=1e-12)
        assert rho[2, 2] == pytest.approx(abs(x3) ** 2, abs=1e-12)
        assert rho[3, 3] == pytest.approx(abs(x2) ** 2 + abs(x5) ** 2, abs=1e-12)
        assert rho[1, 2] == pytest.approx(x4 * np.conj(x3), abs=1e-12)

    def test_routes_agree_along_trajectory(self, basis):
        params = ModelParams(epsilon=2.0)
        decomp = params.decomposition
        for family in Family:
            psi0 = initial_state(InitialStateSpec(family, math.pi / 6), basis)
            for T in np.linspace(0, 10, 21):
                rho = reduce_to_atoms(evolve(psi0, decomp, T))
                assert xstate_concurrence(rho) == pytest.approx(
                    wootters_concurrence(rho), abs=1e-10)


class TestPureConcurrence:
    @pytest.fixture
    def basis(self):
        return Basis(2)

    def test_matches_general_route_on_trajectories(self, basis):
        params = ModelParams(epsilon=1.3)
        decomp = params.decomposition
        for family in Family:
            psi0 = initial_state(InitialStateSpec(family, math.pi / 5), basis)
            for T in np.linspace(0, 15, 40):
                psi = evolve(psi0, decomp, T)
                direct = pure_concurrence(psi)
                general = wootters_concurrence(reduce_to_atoms(psi))
                assert direct == pytest.approx(general, abs=1e-8)

    def test_exact_zero_near_rank_deficiency(self, basis):
        # the uncoupled-atom start has C identically zero, including at the
        # point where one reduced eigenvalue sits near 1e-13 and a
        # truncation-based route would leak a ~1e-6 artifact
        params = ModelParams()
        decomp = params.decomposition
        psi0 = initial_state(InitialStateSpec(Family.PHI, 0.0), basis)
        for T in np.linspace(4.70, 4.72, 9):
            psi = evolve(psi0, decomp, T)
            assert pure_concurrence(psi) <= 1e-12

    def test_initial_states(self, basis):
        for family in Family:
            for alpha in np.linspace(0, math.pi / 2, 11):
                psi = initial_state(InitialStateSpec(family, alpha), basis)
                assert pure_concurrence(psi) == pytest.approx(
                    math.sin(2 * alpha), abs=1e-12)

    def test_rejects_bad_input(self, basis):
        with pytest.raises(ValueError, match="norm"):
            pure_concurrence(np.zeros(basis.size))
        with pytest.raises(ValueError, match="^psi must have a non-empty last axis"):
            pure_concurrence(np.ones(6) / math.sqrt(6.0))


class TestSignedCrossTerm:
    """2 Re(rho_eg,ge) of the propagated state is the signed_C column of an
    ORACLE PSI trace; for PSI it equals the real cross term 2 Re(x1 x2*)."""

    @pytest.fixture(scope="class")
    def traces(self):
        spec = InitialStateSpec(Family.PSI, math.pi / 12)
        params = ModelParams(epsilon=0.0)
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
        C, rho = pure_concurrence(psis), reduce_to_atoms(psis)
        assert C.shape == psis.shape[:1] and rho.shape == psis.shape[:1] + (4, 4)
        for psi, c, r in zip(psis, C, rho):
            assert c == _reference_pure_concurrence(psi, basis) == pure_concurrence(psi)
            assert np.array_equal(r, _reference_reduce_to_atoms(psi, basis))
            assert np.array_equal(r, reduce_to_atoms(psi))

    def test_one_off_norm_row_rejected(self):
        basis = Basis(2)
        psis = np.stack([initial_state(InitialStateSpec(Family.PSI, a), basis)
                         for a in np.linspace(0, math.pi / 2, 5)])
        psis[3] *= 1.01
        with pytest.raises(ValueError, match="norm"):
            pure_concurrence(psis)
        psis[3] = np.nan
        with pytest.raises(ValueError, match="norm nan"):
            pure_concurrence(psis)

    def test_single_state_gives_float(self):
        basis = Basis(2)
        psi = initial_state(InitialStateSpec(Family.PHI, math.pi / 8), basis)
        assert type(pure_concurrence(psi)) is float
        assert reduce_to_atoms(psi).shape == (4, 4)


class TestLayoutFromLength:
    """A state's length fixes its layout: 4 atomic rows of len / 4 field
    states, atoms slowest, with no basis passed beside it.  On states of a
    basis, ``TestStackedStates`` pins both functions to the reshape by
    (n_max + 1)^2 they used when they took one."""

    def test_atoms_alone_bell_state(self):
        bell = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)   # (|eg> + |ge>) / sqrt 2
        assert pure_concurrence(bell) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(reduce_to_atoms(bell), np.outer(bell, bell), atol=1e-16)

    @pytest.mark.parametrize("psi", [np.zeros(0), np.ones(5) / math.sqrt(5.0),
                                     np.ones((3, 38)) / math.sqrt(38.0), np.zeros((2, 0)),
                                     np.array(1.0)],
                             ids=["empty", "length-5", "stack-of-38", "empty-stack", "scalar"])
    @pytest.mark.parametrize("fn", [pure_concurrence, reduce_to_atoms],
                             ids=lambda fn: fn.__name__)
    def test_bad_length_names_psi(self, fn, psi):
        with pytest.raises(ValueError, match=(r"^psi must have a non-empty last axis whose "
                                              r"length is a multiple of 4 .*got shape")):
            fn(psi)


#: the computed gap carries the rounding of two computed C, each within a
#: few ulps of 1; the BOTH gate certifies at 1e-10, far above this
_GAP_ROUNDING = 1e-14


def _full_gap_bound(a, o, basis):
    """`concurrence_gap_bound` over every basis entry, zero or not."""
    overlap = np.einsum("...i,...i->...", o.conj(), a)
    size = np.abs(overlap)
    phase = np.divide(overlap, size, out=np.ones_like(overlap), where=size > 0)
    e = np.linalg.norm(a - phase[..., None] * o, axis=-1)
    m = (basis.n_max + 1) ** 2
    return m * e * (np.linalg.norm(a, axis=-1) + np.linalg.norm(o, axis=-1))


def _propagated_pair(family, n_points):
    """Closed-form and propagated states at eps = 2, lambda = 1e4, where they
    differ well above rounding; both are zero outside the occupied sectors."""
    params = ModelParams(epsilon=2.0, lam=1e4)
    spec = InitialStateSpec(family, math.pi / 8)
    grid = np.linspace(0.0, 20.0, n_points)
    return (closed_form_states(spec, params, grid),
            occupied_states(spec, params, grid)[0], params.basis)


class TestConcurrenceGapBound:
    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(list(Family)), alpha=st.floats(0.0, math.pi / 2),
           epsilon=st.floats(0.0, 5.0), T_max=st.floats(1e-3, 40.0),
           log_lam=st.floats(0.0, 6.0))
    def test_bounds_the_gap(self, family, alpha, epsilon, T_max, log_lam):
        # lambda enters the oracle eigenproblem only, so at large lambda the
        # oracle drifts from the closed form and the bound must follow it
        spec = InitialStateSpec(family, alpha)
        params = ModelParams(epsilon=epsilon, lam=10.0 ** log_lam)
        grid = np.linspace(0.0, T_max, 80)
        basis = params.basis
        o = occupied_states(spec, params, grid)[0]
        a = closed_form_states(spec, params, grid)
        gap = np.abs(concurrence_trace(spec, params, grid).C - pure_concurrence(o))
        assert np.all(gap <= concurrence_gap_bound(a, o, basis) + _GAP_ROUNDING)

    def test_global_phase_costs_nothing(self):
        basis = Basis(2)
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, basis.size)) + 1j * rng.normal(size=(5, basis.size))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        o = a * np.exp(1j * rng.uniform(0, 2 * math.pi, size=(5, 1)))
        assert np.all(concurrence_gap_bound(a, o, basis) <= 1e-14)

    def test_orthogonal_states_keep_phase_one(self):
        basis = Basis(2)
        a, o = np.zeros((2, basis.size), dtype=complex)
        a[0], o[1] = 1.0, 1j
        # no overlap: phi = 1, e = |a - o| = sqrt(2), both norms 1
        assert concurrence_gap_bound(a, o, basis) == pytest.approx(9 * math.sqrt(2) * 2)

    @pytest.mark.parametrize("family", list(Family))
    def test_zero_entries_dropped_to_rounding(self, family):
        # the occupied-eigenspace states are zero on most of the basis; a
        # caller that leaves those columns out reorders the sums and nothing else
        a, o, basis = _propagated_pair(family, 300)
        assert np.any(np.all(a == 0, axis=0) & np.all(o == 0, axis=0))
        used = np.any(a, axis=0) | np.any(o, axis=0)
        bound = concurrence_gap_bound(a[:, used], o[:, used], basis)
        assert np.all(bound > 0)
        np.testing.assert_allclose(bound, _full_gap_bound(a, o, basis), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("family", list(Family))
    def test_single_states(self, family):
        a, o, basis = _propagated_pair(family, 7)
        for i in range(7):
            bound = concurrence_gap_bound(a[i], o[i], basis)
            assert np.shape(bound) == ()
            assert bound == concurrence_gap_bound(a[i:i + 1], o[i:i + 1], basis)[0]
            assert bound == pytest.approx(_full_gap_bound(a[i], o[i], basis), rel=1e-15)

    def test_any_leading_shape(self):
        a, o, basis = _propagated_pair(Family.PHI, 12)
        bound = concurrence_gap_bound(a.reshape(2, 3, 2, -1), o.reshape(2, 3, 2, -1), basis)
        assert bound.shape == (2, 3, 2)
        np.testing.assert_array_equal(bound.ravel(), concurrence_gap_bound(a, o, basis))

    def test_no_zero_column_is_the_full_formula(self):
        # nothing to drop: the same sums in the same order
        basis = Basis(2)
        rng = np.random.default_rng(11)
        a, o = rng.normal(size=(2, 6, basis.size)) + 1j * rng.normal(size=(2, 6, basis.size))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        o /= np.linalg.norm(o, axis=-1, keepdims=True)
        bound = concurrence_gap_bound(a, o, basis)
        assert bound.shape == (6,) and np.all(bound > 1)
        np.testing.assert_array_equal(bound, _full_gap_bound(a, o, basis))
        assert concurrence_gap_bound(a[0], o[0], basis) == _full_gap_bound(a[0], o[0], basis)

    def test_figure_certificate_is_the_full_bound(self, tmp_path, monkeypatch):
        # path BOTH bounds the (points x used columns) blocks of the golden
        # fig2_both run; each bound is the one over all 36 entries
        calls = []
        bound_of = entanglement.concurrence_gap_bound

        def recorded(a, o, basis):
            calls.append((a.shape, o.shape, bound_of(a, o, basis)))
            return calls[-1][2]

        monkeypatch.setattr(entanglement, "concurrence_gap_bound", recorded)
        config = parse_config("family = PHI\nalpha = pi/12, pi/8, pi/4\nepsilon = 0, 2\n"
                              f"path = BOTH\noutput_dir = {tmp_path}\n")
        figures.run(config)
        grid = np.linspace(0.0, config.T_max, config.n_points)
        runs = [(eps, alpha) for eps in config.epsilon_list for alpha in config.alpha_list]
        assert len(calls) == len(runs) == 6
        for (eps, alpha), (a_shape, o_shape, bound) in zip(runs, calls):
            params = ModelParams(epsilon=eps)
            basis = params.basis
            spec = InitialStateSpec(Family.PHI, alpha)
            assert a_shape == o_shape and a_shape[0] == grid.size
            assert 5 <= a_shape[1] < basis.size
            full = _full_gap_bound(closed_form_states(spec, params, grid),
                                   occupied_states(spec, params, grid)[0], basis)
            np.testing.assert_allclose(bound, full, rtol=1e-12, atol=0)
