"""Exact numerical time evolution via dense eigendecomposition.

This is the oracle path: states are propagated by spectrally decomposing
the (dimensionless) Hamiltonian with a cyclic Jacobi sweep and applying
exact phase factors, so there is no step-to-step error accumulation.

Evolution convention: U(T) = exp(-i * M * T) where M is the matrix handed
to :func:`spectral_decompose` (use H/g for dimensionless time T = g*t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import build_hamiltonian
from .model import Basis, ModelParams

_HERMITICITY_RTOL = 1e-12
_JACOBI_TOL = 1e-14   # off-diagonal Frobenius norm, relative to ||H||_F
_JACOBI_MAX_SWEEPS = 100


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and unitary eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _offdiag_frobenius(A: np.ndarray) -> float:
    off = A - np.diag(np.diag(A))
    return float(np.linalg.norm(off))


def jacobi_eigh(H: np.ndarray):
    """Cyclic Jacobi eigensolver for a complex Hermitian matrix.

    Each rotation zeroes one off-diagonal pair (p, q) with the unitary

        J[p,p] = c,  J[p,q] = -s e^{i phi},  J[q,p] = s e^{-i phi},  J[q,q] = c

    where phi = arg(A[p,q]) and theta = atan2(2|A[p,q]|, A[p,p]-A[q,q]) / 2.
    Sweeps continue until the off-diagonal Frobenius norm drops below
    ``_JACOBI_TOL * ||H||_F``; an H whose norm overflows or is not finite is rejected,
    as that threshold would end the sweep before any rotation.  Convergence
    is unconditional for Hermitian input.

    Returns (eigenvalues ascending, eigenvector columns).
    """
    A = np.array(H, dtype=complex)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = float(np.max(np.abs(A))) if n else 0.0
    if scale and float(np.max(np.abs(A - A.conj().T))) > _HERMITICITY_RTOL * scale:
        raise ValueError("matrix is not Hermitian")

    V = np.eye(n, dtype=complex)
    with np.errstate(over="ignore"):   # reported below
        norm = float(np.linalg.norm(A))
    if not np.isfinite(norm):
        raise ValueError(f"Frobenius norm of H is not finite (largest |H_ij| = {scale:.3e})")
    if norm == 0.0 or n < 2:
        return np.real(np.diag(A)), V

    threshold = _JACOBI_TOL * norm
    for _ in range(_JACOBI_MAX_SWEEPS):
        if _offdiag_frobenius(A) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                r = abs(apq)
                # entries negligible against the convergence threshold are
                # skipped; this also keeps apq / r away from subnormal range
                if r <= 0.01 * threshold:
                    continue
                phase = apq / r
                theta = 0.5 * np.arctan2(2.0 * r, (A[p, p] - A[q, q]).real)
                c, s = np.cos(theta), np.sin(theta)

                # column update: B = A J, then row update: A' = J^dag B
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


def spectral_decompose(H: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    w, V = jacobi_eigh(H)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=V)


def decompose_model(params: ModelParams, basis: Basis) -> SpectralDecomposition:
    """Decompose H/g so that :func:`evolve` takes dimensionless time."""
    return spectral_decompose(build_hamiltonian(params, basis) / params.g)


def evolve(psi0: np.ndarray, decomp: SpectralDecomposition, T: float) -> np.ndarray:
    """Apply U(T) = V diag(exp(-i w T)) V^dag to a normalized state."""
    V = decomp.eigenvectors
    phases = np.exp(-1j * decomp.eigenvalues * T)
    return V @ (phases * (V.conj().T @ psi0))


def evolve_grid(psi0: np.ndarray, decomp: SpectralDecomposition,
                T_grid: np.ndarray) -> np.ndarray:
    """States at each grid time, shape (len(T_grid), dim).

    Each point is computed directly from the decomposition; rows agree with
    individual :func:`evolve` calls to rounding.

    Only the occupied eigenspace is propagated: the components k with
    c_k = (V^dag psi0)_k != 0, on the basis rows where their eigenvectors
    are nonzero; every other entry is 0.  This is exact, not a truncation:
    H conserves the excitation number, Jacobi never rotates a pair whose
    entry is exactly zero, so V is block-diagonal by sector with exact
    zeros, and c_k is exactly 0 outside the sectors of psi0.  The full
    product adds only exact zeros to the same terms, so on a grid of two or
    more points the result is the same to the bit.  (numpy multiplies a
    one-point grid as a matrix-vector product, whose summation order
    depends on the length, so there the two agree to rounding.)  A row
    where an eigenphase w T overflows, occupied or not, is NaN, as it is in
    the full product.
    """
    T_grid = np.asarray(T_grid, dtype=float)
    if T_grid.ndim != 1 or (len(T_grid) > 1 and np.any(np.diff(T_grid) <= 0)):
        raise ValueError("T_grid must be a 1-d ascending array")
    V = decomp.eigenvectors
    c = V.conj().T @ psi0
    keep = np.flatnonzero(c)
    V_kept = V[:, keep]
    rows = np.flatnonzero(np.any(V_kept, axis=1))
    phases = np.exp(-1j * np.outer(T_grid, decomp.eigenvalues[keep]))
    phases *= c[keep]
    states = np.zeros((T_grid.size, V.shape[0]), dtype=complex)
    states[:, rows] = phases @ V_kept[rows].T
    # |w T| overflows for some w exactly where it does for the largest |w|
    with np.errstate(over="ignore"):
        overflow = ~np.isfinite(np.max(np.abs(decomp.eigenvalues)) * np.abs(T_grid))
    states[overflow] = complex(np.nan, np.nan)
    return states
