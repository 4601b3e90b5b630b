"""Exact numerical time evolution via dense eigendecomposition.

This is the oracle path: states are propagated by spectrally decomposing
the (dimensionless) Hamiltonian with a cyclic Jacobi sweep and applying
exact phase factors, so there is no step-to-step error accumulation.

Evolution convention: U(T) = exp(-i * M * T) where M is the matrix handed
to :func:`jacobi_eigh` (use H/g for dimensionless time T = g*t, as
``ModelParams.decomposition`` does).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import require_finite, require_grid, require_instance, require_numbers

_HERMITICITY_RTOL = 1e-12
_JACOBI_TOL = 1e-14   # off-diagonal Frobenius norm, relative to ||H||_F
_JACOBI_MAX_SWEEPS = 100


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (ascending) and unitary eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _offdiag_frobenius(A: np.ndarray) -> float:
    off = A - np.diag(np.diag(A))
    return float(np.linalg.norm(off))


def _blocks(A: np.ndarray) -> np.ndarray:
    """Connected blocks of A's nonzero pattern with two or more states, as
    rows of ascending indices padded with ``len(A)``, shape (blocks, width)."""
    n = A.shape[0]
    nonzero = A != 0
    linked = nonzero | nonzero.T
    np.fill_diagonal(linked, True)
    label = np.arange(n)
    while True:   # each state takes the least label in reach, one link a pass
        nearest = np.where(linked, label, n).min(axis=1)
        if np.array_equal(nearest, label):
            break
        label = nearest
    roots, sizes = np.unique(label, return_counts=True)
    roots, sizes = roots[sizes > 1], sizes[sizes > 1]
    idx = np.full((roots.size, sizes.max(initial=0)), n)
    for row, root, size in zip(idx, roots, sizes):
        row[:size] = np.flatnonzero(label == root)
    return idx


def jacobi_eigh(H: np.ndarray) -> SpectralDecomposition:
    """Cyclic Jacobi eigensolver for a complex Hermitian matrix.

    Each rotation zeroes one off-diagonal pair (p, q) with the unitary

        J[p,p] = c,  J[p,q] = -s e^{i phi},  J[q,p] = s e^{-i phi},  J[q,q] = c

    where phi = arg(A[p,q]) and theta = atan2(2|A[p,q]|, A[p,p]-A[q,q]) / 2.
    Sweeps continue until the off-diagonal Frobenius norm drops below
    ``_JACOBI_TOL * ||H||_F``; an H whose norm overflows or is not finite is rejected,
    as that threshold would end the sweep before any rotation.  Convergence
    is unconditional for Hermitian input.

    The sweep visits the pairs p < q in lexicographic order within each
    connected block of H's nonzero pattern (2-4 states for a Hamiltonian
    that conserves the excitation number).  Rotations in different blocks
    touch disjoint entries and leave the entries between blocks exactly 0,
    so they commute: each local pair is rotated in every block at once, on
    stacked A and V entries, by the elementwise numpy expressions of the
    pair-by-pair loop.  Eigenpairs and sweep count are that loop's to the
    bit (the convergence test reads the dense A after each sweep).  Keep
    the updates numpy array operations: CPython scalar complex arithmetic
    rounds differently.

    Returns a ``SpectralDecomposition``, which unpacks as ``w, V``.
    """
    A = np.array(H, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"H must be a square matrix, got shape {A.shape}")
    n = A.shape[0]
    scale = float(np.max(np.abs(A))) if n else 0.0
    if scale and float(np.max(np.abs(A - A.conj().T))) > _HERMITICITY_RTOL * scale:
        raise ValueError("matrix is not Hermitian")

    with np.errstate(over="ignore"):   # reported below
        norm = float(np.linalg.norm(A))
    if not np.isfinite(norm):
        raise ValueError(f"Frobenius norm of H is not finite (largest |H_ij| = {scale:.3e})")
    if norm == 0.0 or n < 2:
        return SpectralDecomposition(np.real(np.diag(A)), np.eye(n, dtype=complex))

    threshold = _JACOBI_TOL * norm
    idx = _blocks(A)
    width = idx.shape[1]
    rows, cols = idx[:, :, None], idx[:, None, :]
    # one padding row and column at index n: padded entries of A stay 0
    A_pad = np.zeros((n + 1, n + 1), dtype=complex)
    A_pad[:n, :n] = A
    A = A_pad[:n, :n]
    V_pad = np.eye(n + 1, dtype=complex)
    # each block's A entries above its V entries: a column update is the
    # same expression for both
    AV = np.concatenate([A_pad[rows, cols], V_pad[rows, cols]], axis=1)
    for _ in range(_JACOBI_MAX_SWEEPS):
        if _offdiag_frobenius(A) <= threshold:
            break
        for p in range(width - 1):
            for q in range(p + 1, width):
                apq = AV[:, p, q]
                # hypot rounds as abs() of one complex scalar does; np.abs of
                # a complex array may round differently
                r = np.hypot(apq.real, apq.imag)
                # entries negligible against the convergence threshold are
                # skipped; this also keeps apq / r away from subnormal range
                on = np.flatnonzero(r > 0.01 * threshold)
                if on.size == 0:
                    continue
                av, r = AV[on], r[on, None]
                phase = apq[on, None] / r
                theta = 0.5 * np.arctan2(2.0 * r, (av[:, p, p, None] - av[:, q, q, None]).real)
                c, s = np.cos(theta), np.sin(theta)

                # column update of A and V: B = A J, then row update: A' = J^dag B
                col_p = av[:, :, p] * c + av[:, :, q] * (s * np.conj(phase))
                col_q = av[:, :, p] * (-s * phase) + av[:, :, q] * c
                av[:, :, p], av[:, :, q] = col_p, col_q
                row_p = av[:, p, :] * c + av[:, q, :] * (s * phase)
                row_q = av[:, p, :] * (-s * np.conj(phase)) + av[:, q, :] * c
                av[:, p, :], av[:, q, :] = row_p, row_q
                AV[on] = av
        A_pad[rows, cols] = AV[:, :width]

    V_pad[rows, cols] = AV[:, width:]
    V = V_pad[:n, :n]
    eigenvalues = np.real(np.diag(A))
    order = np.argsort(eigenvalues, kind="stable")
    return SpectralDecomposition(eigenvalues[order], V[:, order])


def evolve(psi0: np.ndarray, decomp: SpectralDecomposition, T: float) -> np.ndarray:
    """U(T) psi0, the one-point grid of :func:`evolve_grid`; ``T`` must be finite."""
    return evolve_grid(psi0, decomp, [require_finite("T", T)])[0]


def occupied(psi0: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c = V^dag psi0, the indices k where c_k != 0, and the rows where one
    of those eigenvectors is nonzero: the rows a state evolved from ``psi0``
    can occupy."""
    c = V.conj().T @ psi0
    keep = np.flatnonzero(c)
    return c, keep, np.flatnonzero(np.any(V[:, keep], axis=1))


def evolve_grid(psi0: np.ndarray, decomp: SpectralDecomposition,
                T_grid: np.ndarray) -> np.ndarray:
    """States at each grid time, shape (len(T_grid), len(psi0)).

    Each point is computed directly from the decomposition as
    U(T) psi0 = V diag(exp(-i w T)) V^dag psi0.

    Only the occupied eigenspace is propagated: the components k with
    c_k = (V^dag psi0)_k != 0, on the basis rows where their eigenvectors
    are nonzero (:func:`occupied`); every other entry is 0.  This is exact,
    not a truncation: H conserves the excitation number, Jacobi never
    rotates a pair whose entry is exactly zero, so V is block-diagonal by
    sector with exact zeros, and c_k is exactly 0 outside the sectors of
    psi0.  The full product adds only exact zeros to the same terms, so on
    a grid of two or more points the result is the same to the bit.
    (numpy multiplies a one-point grid as a matrix-vector product, whose
    summation order depends on the length, so there the two agree to
    rounding.)  A row where an eigenphase w T overflows, occupied or not,
    is NaN, as it is in the full product.  A decomposition of every
    eigenvalue and the rows V[rows] evolves ``psi0[rows]`` on exactly those
    rows: where they hold all rows :func:`occupied` finds, the whole
    evolution's nonzero entries, to rounding.  ``decomp`` must be a
    ``SpectralDecomposition``, ``T_grid`` must pass ``model.require_grid``,
    and ``psi0`` must be a vector as long as the eigenvectors.
    """
    require_instance("decomp", decomp, SpectralDecomposition)
    T_grid = require_grid(T_grid)
    psi0 = require_numbers("psi0", psi0, complex)
    V = decomp.eigenvectors
    if np.shape(psi0) != (V.shape[0],):
        raise ValueError(f"psi0 must be a vector of length {V.shape[0]}, got {np.shape(psi0)}")
    c, keep, rows = occupied(psi0, V)
    V_kept = V[:, keep]
    phases = np.exp(-1j * np.outer(T_grid, decomp.eigenvalues[keep]))
    phases *= c[keep]
    states = np.zeros((T_grid.size, V.shape[0]), dtype=complex)
    states[:, rows] = phases @ V_kept[rows].T
    # |w T| overflows for some w exactly where it does for the largest |w|
    with np.errstate(over="ignore"):
        overflow = ~np.isfinite(np.max(np.abs(decomp.eigenvalues)) * np.abs(T_grid))
    states[overflow] = complex(np.nan, np.nan)
    return states
