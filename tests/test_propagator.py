import math

import numpy as np
import pytest

from tcm_entangle.hamiltonian import build_hamiltonian
from tcm_entangle.model import Basis, Family, InitialStateSpec, ModelParams, initial_state
from tcm_entangle.propagator import (SpectralDecomposition, decompose_model,
                                     evolve, evolve_grid, jacobi_eigh,
                                     spectral_decompose)


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


class TestModelDecomposition:
    def test_full_hamiltonian_decomposition(self):
        p = ModelParams.from_dimensionless(epsilon=0.7)
        basis = Basis(2)
        d = decompose_model(p, basis)
        H = build_hamiltonian(p, basis) / p.g
        np.testing.assert_allclose(
            d.eigenvectors @ np.diag(d.eigenvalues) @ d.eigenvectors.conj().T,
            H, atol=1e-11)

    @pytest.mark.parametrize("eps", [0.0, 2.0])
    def test_contains_sector_eigenvalues(self, eps):
        p = ModelParams.from_dimensionless(epsilon=eps)
        d = decompose_model(p, Basis(2))
        kappa = math.sqrt(8 + eps**2)
        for expected in (-eps, (eps + kappa) / 2, (eps - kappa) / 2):
            assert np.min(np.abs(d.eigenvalues - expected)) < 1e-10


class TestEvolve:
    @pytest.fixture
    def setup(self):
        p = ModelParams.from_dimensionless(epsilon=0.0)
        basis = Basis(2)
        d = decompose_model(p, basis)
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


class TestSpectralDecompose:
    def test_returns_dataclass(self):
        d = spectral_decompose(np.diag([1.0, 2.0]))
        assert isinstance(d, SpectralDecomposition)
        np.testing.assert_allclose(d.eigenvalues, [1.0, 2.0])
