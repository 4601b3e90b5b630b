import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcm_entangle import figures, propagator, verify
from tcm_entangle.hamiltonian import build_hamiltonian
from tcm_entangle.model import Basis, Family, InitialStateSpec, ModelParams, initial_state
from tcm_entangle.propagator import SpectralDecomposition, evolve, evolve_grid, jacobi_eigh


class TestJacobiEigh:
    def test_two_by_two_offdiagonal(self):
        w, V = jacobi_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(2), atol=1e-14)

    def test_identity(self):
        w, V = jacobi_eigh(np.eye(3))
        np.testing.assert_allclose(w, np.ones(3))
        np.testing.assert_allclose(V, np.eye(3))

    def test_diagonal_sorted(self):
        w, _ = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(w, [-1.0, 2.0, 3.0])

    def test_complex_hermitian(self):
        A = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -1.0]])
        w, V = jacobi_eigh(A)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(A), atol=1e-13)
        np.testing.assert_allclose(V @ np.diag(w) @ V.conj().T, A, atol=1e-13)

    def test_sector_block_eigenvalues(self):
        # two-excitation connected block at eps = 0: {-sqrt(2), 0, sqrt(2)}
        A = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        w, _ = jacobi_eigh(A)
        np.testing.assert_allclose(w, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-13)

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_random_hermitian_reconstruction(self, n):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A = X + X.conj().T
        w, V = jacobi_eigh(A)
        assert np.all(np.diff(w) >= 0)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(V @ np.diag(w) @ V.conj().T, A, atol=1e-11)

    def test_agrees_with_library_eigensolver(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        A = X + X.conj().T
        w, _ = jacobi_eigh(A)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(A), atol=1e-11)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.zeros((2, 3)))

    def test_zero_matrix(self):
        w, V = jacobi_eigh(np.zeros((3, 3)))
        np.testing.assert_allclose(w, 0.0)
        np.testing.assert_allclose(V, np.eye(3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_norm_rejected(self):
        # every entry is finite, but ||H||_F overflows: an infinite threshold
        # would stop the sweep before its first rotation
        with pytest.raises(ValueError, match="norm of H is not finite"):
            jacobi_eigh(np.array([[0.0, 1e200], [1e200, 1e200]]))
        with pytest.raises(ValueError, match="norm of H is not finite"):
            jacobi_eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("epsilon,ok", [(1e153, True), (1e160, False), (1e200, False)])
    def test_model_hamiltonian_near_overflow(self, epsilon, ok):
        params = ModelParams(epsilon=epsilon)
        H = build_hamiltonian(params)
        if not ok:
            with pytest.raises(ValueError, match="norm of H is not finite"):
                jacobi_eigh(H)
            return
        w, V = jacobi_eigh(H)
        assert np.max(np.abs(H - (V * w) @ V.conj().T)) <= 1e-14 * epsilon


def _pair_by_pair_jacobi_eigh(H):
    """The cyclic Jacobi loop that rotates one pair (p, q) of the whole
    matrix at a time: the reference :func:`jacobi_eigh` must match to the
    bit."""
    A = np.array(H, dtype=complex)
    n = A.shape[0]
    V = np.eye(n, dtype=complex)
    norm = float(np.linalg.norm(A))
    if norm == 0.0 or n < 2:
        return np.real(np.diag(A)), V
    threshold = propagator._JACOBI_TOL * norm
    for _ in range(propagator._JACOBI_MAX_SWEEPS):
        if propagator._offdiag_frobenius(A) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                r = abs(apq)
                if r <= 0.01 * threshold:
                    continue
                phase = apq / r
                theta = 0.5 * np.arctan2(2.0 * r, (A[p, p] - A[q, q]).real)
                c, s = np.cos(theta), np.sin(theta)
                col_p = A[:, p] * c + A[:, q] * (s * np.conj(phase))
                col_q = A[:, p] * (-s * phase) + A[:, q] * c
                A[:, p], A[:, q] = col_p, col_q
                row_p = A[p, :] * c + A[q, :] * (s * phase)
                row_q = A[p, :] * (-s * np.conj(phase)) + A[q, :] * c
                A[p, :], A[q, :] = row_p, row_q
                vcol_p = V[:, p] * c + V[:, q] * (s * np.conj(phase))
                vcol_q = V[:, p] * (-s * phase) + V[:, q] * c
                V[:, p], V[:, q] = vcol_p, vcol_q
    eigenvalues = np.real(np.diag(A))
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], V[:, order]


def _assert_same_bits(H):
    w_ref, V_ref = _pair_by_pair_jacobi_eigh(H)
    w, V = jacobi_eigh(H)
    assert np.array_equal(w, w_ref)
    assert np.array_equal(V, V_ref)


def _random_hermitian(rng, n):
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return X + X.conj().T


class TestBlockJacobiMatchesPairByPair:
    """The block-stacked sweep gives the pair-by-pair loop's bits."""

    #: every model that ``verify`` and the figure commands decompose
    CLI_EPSILONS = sorted(set(verify._EPSILONS) | set(figures.FIGURE_EPSILONS))

    @pytest.mark.parametrize("epsilon", CLI_EPSILONS)
    def test_models_verify_and_cli_decompose(self, epsilon):
        params = ModelParams(epsilon=epsilon)
        _assert_same_bits(build_hamiltonian(params))

    @pytest.mark.parametrize("n_max", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.3, 2.0])
    @pytest.mark.parametrize("lam", [2.0, 3.7])
    def test_model_grid(self, n_max, epsilon, lam):
        params = ModelParams(epsilon=epsilon, lam=lam, n_max=n_max)
        _assert_same_bits(build_hamiltonian(params))

    @pytest.mark.parametrize("seed", range(45))
    def test_random_dense(self, seed):
        rng = np.random.default_rng(seed)
        _assert_same_bits(_random_hermitian(rng, int(rng.integers(1, 25))))

    @pytest.mark.parametrize("seed", range(45))
    def test_random_permuted_blocks(self, seed):
        # blocks of 1-5 states in a random order: pads blocks of unequal size
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 30))
        H = np.zeros((n, n), dtype=complex)
        start = 0
        while start < n:
            m = min(int(rng.integers(1, 6)), n - start)
            H[start:start + m, start:start + m] = _random_hermitian(rng, m)
            start += m
        order = rng.permutation(n)
        _assert_same_bits(H[order][:, order])


class TestSpectralDecompose:
    def test_returns_dataclass(self):
        d = jacobi_eigh(np.diag([1.0, 2.0]))
        assert isinstance(d, SpectralDecomposition)
        np.testing.assert_allclose(d.eigenvalues, [1.0, 2.0])
        assert isinstance(jacobi_eigh(np.zeros((2, 2))), SpectralDecomposition)


class TestModelDecomposition:
    def test_full_hamiltonian_decomposition(self):
        p = ModelParams(epsilon=0.7)
        d = p.decomposition
        H = build_hamiltonian(p)
        np.testing.assert_allclose(
            d.eigenvectors @ np.diag(d.eigenvalues) @ d.eigenvectors.conj().T,
            H, atol=1e-11)

    @pytest.mark.parametrize("eps", [0.0, 2.0])
    def test_contains_sector_eigenvalues(self, eps):
        p = ModelParams(epsilon=eps)
        d = p.decomposition
        kappa = math.sqrt(8 + eps**2)
        for expected in (-eps, (eps + kappa) / 2, (eps - kappa) / 2):
            assert np.min(np.abs(d.eigenvalues - expected)) < 1e-10


class TestEvolve:
    @pytest.fixture
    def setup(self):
        p = ModelParams(epsilon=0.0)
        basis = Basis(2)
        d = p.decomposition
        psi0 = initial_state(InitialStateSpec(Family.PSI, math.pi / 4), basis)
        return basis, d, psi0

    def test_time_zero_is_identity(self, setup):
        _, d, psi0 = setup
        np.testing.assert_allclose(evolve(psi0, d, 0.0), psi0, atol=1e-12)

    def test_norm_preserved(self, setup):
        _, d, psi0 = setup
        for T in np.linspace(0, 30, 301):
            assert np.linalg.norm(evolve(psi0, d, T)) == pytest.approx(1.0, abs=1e-11)

    def test_composition(self, setup):
        _, d, psi0 = setup
        ab = evolve(evolve(psi0, d, 1.3), d, 2.4)
        np.testing.assert_allclose(ab, evolve(psi0, d, 3.7), atol=1e-11)

    def test_eigenstate_picks_up_pure_phase(self, setup):
        _, d, _ = setup
        v = d.eigenvectors[:, 5]
        out = evolve(v, d, 2.0)
        np.testing.assert_allclose(out, np.exp(-1j * d.eigenvalues[5] * 2.0) * v,
                                   atol=1e-11)

    def test_half_period_transfer_to_photon_pair(self, setup):
        # at eps = 0 the Bell-like start maps onto |gg11> when kappa*T = pi
        basis, d, psi0 = setup
        T = math.pi / math.sqrt(8)
        psi = evolve(psi0, d, T)
        k = basis.index("g", "g", 1, 1)
        assert abs(psi[k]) == pytest.approx(1.0, abs=1e-11)

    def test_evolve_grid_matches_pointwise(self, setup):
        _, d, psi0 = setup
        grid = np.linspace(0, 10, 37)
        batch = evolve_grid(psi0, d, grid)
        for T, row in zip(grid, batch):
            np.testing.assert_allclose(row, evolve(psi0, d, T), atol=1e-13)

    def test_evolve_grid_norms(self, setup):
        _, d, psi0 = setup
        batch = evolve_grid(psi0, d, np.linspace(0, 200, 10000))
        np.testing.assert_allclose(np.linalg.norm(batch, axis=1), 1.0, atol=1e-10)

    def test_evolve_grid_rejects_descending(self, setup):
        _, d, psi0 = setup
        with pytest.raises(ValueError):
            evolve_grid(psi0, d, np.array([0.0, 2.0, 1.0]))

    def test_stays_in_sector(self, setup):
        basis, d, psi0 = setup
        psi = evolve(psi0, d, 3.3)
        outside = basis.excitations != 2
        assert np.max(np.abs(psi[outside])) < 1e-12


def _full_product(psi0, decomp, T_grid):
    """`evolve_grid` as it was before it kept only the occupied eigenspace:
    every eigenphase of every grid time, times the whole eigenvector matrix."""
    V = decomp.eigenvectors
    c = V.conj().T @ psi0
    phases = np.exp(-1j * np.outer(T_grid, decomp.eigenvalues))
    phases *= c
    return phases @ V.T


class TestEvolveGridOccupiedEigenspace:
    """Only the occupied eigenspace is propagated; the other components have
    c_k exactly 0, so on grids of two or more points the states must equal
    the full product byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(n_max=st.integers(2, 4), family=st.sampled_from(list(Family)),
           alpha=st.one_of(st.sampled_from([0.0, math.pi / 2]), st.floats(0.0, math.pi / 2)),
           epsilon=st.floats(0.0, 5.0), log_lam=st.floats(0.0, 6.0),
           log_tmax=st.floats(-3.0, 4.0), points=st.integers(2, 3000))
    def test_bytes_match_full_product(self, n_max, family, alpha, epsilon, log_lam,
                                      log_tmax, points):
        params = ModelParams(epsilon=epsilon, lam=10.0 ** log_lam,
                                                n_max=n_max)
        basis = Basis(n_max)
        d = params.decomposition
        psi0 = initial_state(InitialStateSpec(family, alpha), basis)
        grid = np.linspace(0.0, 10.0 ** log_tmax, points + 1)[1:]
        states = evolve_grid(psi0, d, grid)
        assert states.shape == (points, basis.size)
        assert states.tobytes() == _full_product(psi0, d, grid).tobytes()

    @pytest.fixture
    def phi_model(self):
        basis = Basis(2)
        return basis, ModelParams(epsilon=2.0).decomposition

    def test_dense_state_occupies_everything(self, phi_model):
        basis, d = phi_model
        rng = np.random.default_rng(3)
        psi0 = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        psi0 /= np.linalg.norm(psi0)
        assert np.all(d.eigenvectors.conj().T @ psi0 != 0)
        grid = np.linspace(0.0, 20.0, 400)
        assert evolve_grid(psi0, d, grid).tobytes() == _full_product(psi0, d, grid).tobytes()

    def test_one_point_grid(self, phi_model):
        # numpy evaluates a one-row product as a matrix-vector product, whose
        # summation order depends on the vector length: there the full
        # product itself differs in the last bit from its own row for the
        # same T in a longer grid, so one point agrees to rounding only
        basis, d = phi_model
        psi0 = initial_state(InitialStateSpec(Family.PHI, math.pi / 8), basis)
        grid = np.array([2.5])
        states = evolve_grid(psi0, d, grid)
        assert states.shape == (1, basis.size)
        np.testing.assert_allclose(states, _full_product(psi0, d, grid), rtol=0, atol=1e-15)
        np.testing.assert_allclose(states[0], evolve(psi0, d, 2.5), rtol=0, atol=1e-15)
        assert np.all(states[0, basis.excitations % 4 != 0] == 0)

    @pytest.mark.parametrize("family", list(Family))
    def test_overflow_of_unoccupied_phases_still_gives_nan(self, family):
        # near T = 1e308 the phases of the highest sectors overflow first;
        # PSI and PHI do not occupy the highest, yet those rows are NaN as
        # they are in the full product
        basis = Basis(2)
        d = ModelParams(epsilon=0.0).decomposition
        psi0 = initial_state(InitialStateSpec(family, math.pi / 8), basis)
        grid = np.linspace(0.0, 1e308, 50)
        with np.errstate(over="ignore", invalid="ignore"):
            states = evolve_grid(psi0, d, grid)
            full = _full_product(psi0, d, grid)
            occupied = np.flatnonzero(d.eigenvectors.conj().T @ psi0)
            kept_finite = np.isfinite(np.outer(grid, d.eigenvalues[occupied])).all(axis=1)
        bad = ~np.isfinite(full).all(axis=1)
        assert np.any(bad & kept_finite)
        np.testing.assert_array_equal(~np.isfinite(states), ~np.isfinite(full))
