"""Dense Hamiltonian on the truncated basis and its excitation-sector check.

The Hamiltonian is

    H = omega_a n_a + omega_b n_b + (omega_0/2)(sigma_z^A + sigma_z^B)
        + g * sum_l (P+ sigma_l^- + P- sigma_l^+)
        + Omega (sigma_A^+ sigma_B^- + sigma_B^+ sigma_A^-)

where P+ raises the photon number of *both* modes by one.  The
pair-transition matrix element <n_a+1, n_b+1| P+ |n_a, n_b> is 1 for every
(n_a, n_b): this is the convention under which the closed-form solutions in
:mod:`.analytic` are exact, with four-excitation Rabi splitting
sqrt(16 + eps^2).

Raising transitions that would exceed the truncation contribute zero; this
is exact for any excitation sector lying fully inside the truncation.
"""

from __future__ import annotations

import numpy as np

from .model import Basis, ModelParams


def build_hamiltonian(params: ModelParams, basis: Basis) -> np.ndarray:
    """Dense Hermitian matrix of H in basis order, in physical units."""
    if params.n_max != basis.n_max:
        raise ValueError(
            f"params.n_max={params.n_max} does not match basis.n_max={basis.n_max}"
        )

    d = basis.size
    ea, eb, na, nb = basis.excited_a, basis.excited_b, basis.n_a, basis.n_b
    H = np.zeros((d, d), dtype=complex)
    sz = 2 * (ea + eb) - 2   # sigma_z^A + sigma_z^B
    np.fill_diagonal(H, params.omega_a * na + params.omega_b * nb + 0.5 * params.omega_0 * sz)

    # photon-pair emission: atom l decays, both modes gain one photon
    room = (na < basis.n_max) & (nb < basis.n_max)   # else truncated; zero by policy
    for da, db in ((1, 0), (0, 1)):   # atom A decays, then atom B; it must be excited
        i = np.flatnonzero(room & (ea >= da) & (eb >= db))
        j = basis.position(ea[i] - da, eb[i] - db, na[i] + 1, nb[i] + 1)
        H[j, i] = params.g
        H[i, j] = params.g

    # dipole-dipole flip-flop between each (eg) and (ge) pair
    if params.Omega != 0.0:
        i = np.flatnonzero((ea == 1) & (eb == 0))
        j = basis.position(0, 1, na[i], nb[i])
        H[j, i] = params.Omega
        H[i, j] = params.Omega
    return H


def check_conservation(H: np.ndarray, basis: Basis) -> bool:
    """True iff H couples no two states of different excitation number."""
    n = basis.excitations
    off_sector = n[:, None] != n[None, :]
    return not np.any(H[off_sector] != 0)

