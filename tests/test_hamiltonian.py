import itertools
import math

import numpy as np
import pytest

from tcm_entangle.hamiltonian import build_hamiltonian, check_conservation
from tcm_entangle.model import LEVELS, Basis, ModelParams


def kron_hamiltonian(params, n_max):
    """Independent operator-composition construction of the same matrix.

    Built from explicit Kronecker products in the order atom A, atom B,
    mode a, mode b, matching the basis enumeration.
    """
    m = n_max + 1
    id2, idm = np.eye(2), np.eye(m)
    sz = np.diag([1.0, -1.0])               # levels ordered (e, g)
    sm = np.zeros((2, 2)); sm[1, 0] = 1.0   # |g><e|
    sp = sm.T
    a = np.diag(np.sqrt(np.arange(1, m)), k=1)       # <n|a|n+1> = sqrt(n+1)
    raise_op = np.diag(np.ones(m - 1), k=-1)         # unit ladder
    n_op = a.T @ a

    def kron4(pa, pb, ma, mb):
        return np.kron(np.kron(np.kron(pa, pb), ma), mb)

    H = 0.5 * params.lam * (kron4(id2, id2, n_op, idm) + kron4(id2, id2, idm, n_op)
                            + kron4(sz, id2, idm, idm) + kron4(id2, sz, idm, idm))
    pair_raise = np.kron(raise_op, raise_op)
    for atom_sm in (kron4(sm, id2, idm, idm), kron4(id2, sm, idm, idm)):
        term = np.kron(np.eye(4), pair_raise) @ atom_sm
        H = H + term + term.conj().T
    flip = params.epsilon * kron4(sp, sm, idm, idm)
    return H + flip + flip.conj().T


@pytest.fixture
def basis():
    return Basis(2)


@pytest.fixture
def params():
    return ModelParams(epsilon=0.7, lam=2.0)


class TestMatrixElements:
    def test_single_pair_emission_element(self, basis, params):
        H = build_hamiltonian(params)
        i = basis.index("e", "g", 0, 0)
        j = basis.index("g", "g", 1, 1)
        assert H[j, i] == 1.0

    def test_double_pair_element_is_g(self, basis, params):
        # every pair step has amplitude g (1 in H/g), also out of |eg11> (no
        # bosonic sqrt((n_a+1)(n_b+1)) factor); the closed forms rely on this
        i = basis.index("e", "g", 1, 1)
        j = basis.index("g", "g", 2, 2)
        assert build_hamiltonian(params)[j, i] == 1.0

    def test_dipole_flip_flop_element(self, basis, params):
        H = build_hamiltonian(params)
        i = basis.index("e", "g", 0, 0)
        j = basis.index("g", "e", 0, 0)
        assert H[j, i] == params.epsilon

    def test_resonant_diagonal_matches_sector(self, basis, params):
        H = build_hamiltonian(params)
        i = basis.index("g", "g", 1, 1)
        assert H[i, i] == pytest.approx(0.0, abs=1e-15)
        j = basis.index("g", "g", 0, 0)
        assert H[j, j] == pytest.approx(-params.lam)

    def test_hermitian_by_construction(self, basis, params):
        H = build_hamiltonian(params)
        assert np.array_equal(H, H.conj().T)

    @pytest.mark.parametrize("n_max", [2, 3])
    def test_matches_operator_composition_oracle(self, n_max):
        p = ModelParams(epsilon=1.3, lam=2.0, n_max=n_max)
        H = build_hamiltonian(p)
        np.testing.assert_allclose(H, kron_hamiltonian(p, n_max), atol=1e-14)


def per_state_hamiltonian(params, n_max):
    """``build_hamiltonian`` as the loop over basis states it was before the
    basis became index arrays: the reference for its bytes."""
    m = n_max + 1
    kets = list(itertools.product(LEVELS, LEVELS, range(m), range(m)))
    index = {ket: i for i, ket in enumerate(kets)}
    H = np.zeros((len(kets), len(kets)), dtype=complex)
    half = 0.5 * params.lam
    for i, (atom_a, atom_b, n_a, n_b) in enumerate(kets):
        sz = (1 if atom_a == "e" else -1) + (1 if atom_b == "e" else -1)
        H[i, i] = half * n_a + half * n_b + half * sz
        if n_a < n_max and n_b < n_max:
            for level, atoms_after in ((atom_a, ("g", atom_b)), (atom_b, (atom_a, "g"))):
                if level == "e":
                    j = index[(*atoms_after, n_a + 1, n_b + 1)]
                    H[j, i] += 1.0
                    H[i, j] += 1.0
        if atom_a == "e" and atom_b == "g" and params.epsilon != 0.0:
            j = index[("g", "e", n_a, n_b)]
            H[j, i] += params.epsilon
            H[i, j] += params.epsilon
    return H


def physical_hamiltonian(omega_a, omega_b, omega_0, g, Omega, basis):
    """H in physical units, as ``build_hamiltonian`` built it before the
    model became (eps, lam, n_max): the reference for the bytes of H/g."""
    d = basis.size
    ea, eb, na, nb = basis.excited_a, basis.excited_b, basis.n_a, basis.n_b
    H = np.zeros((d, d), dtype=complex)
    sz = 2 * (ea + eb) - 2
    np.fill_diagonal(H, omega_a * na + omega_b * nb + 0.5 * omega_0 * sz)
    room = (na < basis.n_max) & (nb < basis.n_max)
    for da, db in ((1, 0), (0, 1)):
        i = np.flatnonzero(room & (ea >= da) & (eb >= db))
        j = basis.position(ea[i] - da, eb[i] - db, na[i] + 1, nb[i] + 1)
        H[j, i] = g
        H[i, j] = g
    if Omega != 0.0:
        i = np.flatnonzero((ea == 1) & (eb == 0))
        j = basis.position(0, 1, na[i], nb[i])
        H[j, i] = Omega
        H[i, j] = Omega
    return H


_MODEL_GRID = list(itertools.product((0.0, -0.0, 0.5, 1.3, 2.0, 7.77), (2.0, 3.7, 1e6)))


class TestArrayBuildMatchesPerStateLoop:
    # -0.0 is a valid epsilon that the loop leaves out, so its entries stay +0.0
    @pytest.mark.parametrize("n_max", range(2, 9))
    def test_same_bytes(self, n_max):
        for eps, lam in _MODEL_GRID:
            p = ModelParams(epsilon=eps, lam=lam, n_max=n_max)
            assert build_hamiltonian(p).tobytes() == \
                per_state_hamiltonian(p, n_max).tobytes(), (eps, lam)

    @pytest.mark.parametrize("n_max", [0, 1, 2, 5])
    def test_excitations_match_kets(self, n_max):
        # N = n_a + n_b + 2 * (number of excited atoms), in basis order
        m = n_max + 1
        expected = [n_a + n_b + 2 * (atom_a == "e") + 2 * (atom_b == "e")
                    for atom_a, atom_b, n_a, n_b
                    in itertools.product(LEVELS, LEVELS, range(m), range(m))]
        assert Basis(n_max).excitations.tolist() == expected


class TestDimensionlessBuildMatchesPhysicalUnits:
    # H/g at unit g with the even mode split, omega_0 = lam * g and
    # Omega = eps * g, as the physical constants were derived from eps, lam
    @pytest.mark.parametrize("n_max", range(2, 9))
    def test_same_bytes_at_unit_g(self, n_max):
        basis, g = Basis(n_max), 1.0
        for eps, lam in _MODEL_GRID:
            omega_0 = lam * g
            H = physical_hamiltonian(omega_0 / 2, omega_0 / 2, omega_0, g, eps * g, basis)
            p = ModelParams(epsilon=eps, lam=lam, n_max=n_max)
            assert build_hamiltonian(p).tobytes() == H.tobytes(), (eps, lam)


class TestConservation:
    @pytest.mark.parametrize("eps", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("n_max", [2, 3, 4])
    def test_built_hamiltonian_conserves(self, eps, n_max):
        p = ModelParams(epsilon=eps, n_max=n_max)
        b = Basis(n_max)
        assert check_conservation(build_hamiltonian(p), b)

    def test_corrupted_entry_detected(self, basis, params):
        H = build_hamiltonian(params)
        H[0, 1] += 1e-3  # ee00 <-> ee01 crosses sectors
        assert not check_conservation(H, basis)

    def test_zero_matrix_conserves(self, basis):
        assert check_conservation(np.zeros((basis.size, basis.size)), basis)


def _label(basis, i):
    """``ge01``-style name of basis state i: atom A, atom B, n_a, n_b."""
    return (f"{'ge'[basis.excited_a[i]]}{'ge'[basis.excited_b[i]]}"
            f"{basis.n_a[i]}{basis.n_b[i]}")


def _sector(H, basis, N):
    """Submatrix of H on the excitation-N sector plus its basis indices."""
    idx = np.flatnonzero(basis.excitations == N)
    return H[np.ix_(idx, idx)], idx


def _sub_block(H_sector, idx, basis, labels):
    """Rows/columns of the sector matrix for the named basis labels, plus
    the coupling between that set and the rest of the sector."""
    sector_labels = [_label(basis, i) for i in idx]
    pos = [sector_labels.index(lb) for lb in labels]
    rest = [k for k in range(len(idx)) if k not in pos]
    block = H_sector[np.ix_(pos, pos)]
    cross = H_sector[np.ix_(pos, rest)] if rest else np.zeros((len(pos), 0))
    return block, cross


class TestSectorRestriction:
    def test_two_excitation_sector_matrix(self, basis):
        # the sector also holds |gg20>, |gg02>, which decouple from the
        # pair-interaction dynamics (n_a + e and n_b + e are separately
        # conserved); the connected block is the documented 3x3 matrix
        eps = 2.0
        p = ModelParams(epsilon=eps)
        H2, idx = _sector(build_hamiltonian(p), basis, 2)
        block, cross = _sub_block(H2, idx, basis, ["eg00", "ge00", "gg11"])
        np.testing.assert_allclose(
            block, np.array([[0, eps, 1], [eps, 0, 1], [1, 1, 0]]), atol=1e-14)
        np.testing.assert_allclose(cross, 0.0, atol=1e-15)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 2.0, 10.0])
    def test_two_excitation_spectrum(self, basis, eps):
        p = ModelParams(epsilon=eps)
        H2, idx = _sector(build_hamiltonian(p), basis, 2)
        block, _ = _sub_block(H2, idx, basis, ["eg00", "ge00", "gg11"])
        kappa = math.sqrt(8 + eps**2)
        expected = sorted([-eps, (eps + kappa) / 2, (eps - kappa) / 2])
        np.testing.assert_allclose(np.linalg.eigvalsh(block), expected, atol=1e-10)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 2.0])
    def test_four_excitation_spectrum(self, basis, eps):
        # spectrum of the connected block, above the sector's common diagonal
        p = ModelParams(epsilon=eps)
        H4, idx = _sector(build_hamiltonian(p), basis, 4)
        block, cross = _sub_block(H4, idx, basis, ["ee00", "eg11", "ge11", "gg22"])
        np.testing.assert_allclose(cross, 0.0, atol=1e-15)
        eta = math.sqrt(16 + eps**2)
        shifted = np.linalg.eigvalsh(block) - p.lam
        expected = sorted([0.0, -eps, (eps + eta) / 2, (eps - eta) / 2])
        np.testing.assert_allclose(shifted, expected, atol=1e-10)

    def test_zero_excitation_sector(self, basis):
        p = ModelParams()
        H0, idx = _sector(build_hamiltonian(p), basis, 0)
        assert [_label(basis, i) for i in idx] == ["gg00"]
        assert H0[0, 0] == pytest.approx(-p.lam)
