"""Dense Hamiltonian on the truncated basis and its excitation-sector check.

The matrix built is H/g, in eps = Omega/g and lam = omega_0/g, on resonance
(omega_0 = omega_a + omega_b) with the two modes splitting omega_0 evenly:

    H/g = (lam/2)(n_a + n_b + sigma_z^A + sigma_z^B)
          + sum_l (P+ sigma_l^- + P- sigma_l^+)
          + eps (sigma_A^+ sigma_B^- + sigma_B^+ sigma_A^-)

where P+ raises the photon number of *both* modes by one.  Both families
keep n_a = n_b and H conserves n_a - n_b, so no output depends on the split.
The pair-transition matrix element <n_a+1, n_b+1| P+ |n_a, n_b> is 1 for
every (n_a, n_b): this is the convention under which the closed-form
solutions in :mod:`.analytic` are exact, with four-excitation Rabi
splitting sqrt(16 + eps^2).

Raising transitions that would exceed the truncation contribute zero; this
is exact for any excitation sector lying fully inside the truncation.
"""

from __future__ import annotations

import numpy as np

from .model import Basis, ModelParams, require_basis, require_params


def build_hamiltonian(params: ModelParams) -> np.ndarray:
    """Dense Hermitian matrix of H/g in the order of ``params.basis``."""
    require_params(params)
    basis = params.basis
    d = basis.size
    ea, eb, na, nb = basis.excited_a, basis.excited_b, basis.n_a, basis.n_b
    H = np.zeros((d, d), dtype=complex)
    sz = 2 * (ea + eb) - 2   # sigma_z^A + sigma_z^B
    half = 0.5 * params.lam   # three products: half * (na + nb + sz) rounds differently
    np.fill_diagonal(H, half * na + half * nb + half * sz)

    # photon-pair emission: atom l decays, both modes gain one photon
    room = (na < basis.n_max) & (nb < basis.n_max)   # else truncated; zero by policy
    for da, db in ((1, 0), (0, 1)):   # atom A decays, then atom B; it must be excited
        i = np.flatnonzero(room & (ea >= da) & (eb >= db))
        j = basis.position(ea[i] - da, eb[i] - db, na[i] + 1, nb[i] + 1)
        H[j, i] = 1.0
        H[i, j] = 1.0

    # dipole-dipole flip-flop between each (eg) and (ge) pair
    if params.epsilon != 0.0:
        i = np.flatnonzero((ea == 1) & (eb == 0))
        j = basis.position(0, 1, na[i], nb[i])
        H[j, i] = params.epsilon
        H[i, j] = params.epsilon
    return H


def check_conservation(H: np.ndarray, basis: Basis) -> bool:
    """True iff H couples no two states of different excitation number."""
    require_basis(basis)
    if np.shape(H) != (basis.size, basis.size):
        raise ValueError(f"H must be basis.size = {basis.size} square, got shape {np.shape(H)}")
    n = basis.excitations
    off_sector = n[:, None] != n[None, :]
    return not np.any(H[off_sector] != 0)

