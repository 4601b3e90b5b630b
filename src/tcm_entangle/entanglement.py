"""Reduction to the two-atom subsystem and concurrence.

The atomic basis is fixed as {|ee>, |eg>, |ge>, |gg>}; the spin flip in the
Wootters construction conjugates in this basis.  Two independent routes are
provided: the general eigenvalue route and the X-state closed form.
"""

from __future__ import annotations

import numpy as np

from .model import Basis

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
X_SHAPE_TOL = 1e-12
RANK_CUT = 1e-12

# sigma_y (x) sigma_y has a single anti-diagonal (-1, 1, 1, -1)
_SPIN_FLIP = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))


def reduce_to_atoms(psi: np.ndarray, basis: Basis) -> np.ndarray:
    """Partial trace over both cavity modes, returning the 4x4 atomic state.

    rho[(A,B),(A',B')] = sum_{na,nb} psi(A,B,na,nb) conj(psi(A',B',na,nb)).
    A stack of states of shape (..., basis.size) gives a stack of shape
    (..., 4, 4).
    """
    psi = np.asarray(psi, dtype=complex)
    block = psi.reshape(psi.shape[:-1] + (4, (basis.n_max + 1) ** 2))
    return block @ block.conj().swapaxes(-1, -2)


def _validate_density_matrix(rho: np.ndarray):
    if rho.shape != (4, 4):
        raise ValueError("expected a 4x4 atomic density matrix")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
        raise ValueError("density matrix trace differs from 1")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {evals.min():.3e}")


def wootters_concurrence(rho: np.ndarray) -> float:
    """C = max(0, sqrt(mu1) - sqrt(mu2) - sqrt(mu3) - sqrt(mu4)).

    mu_i are the descending eigenvalues of rho (Y x Y) rho* (Y x Y).  The
    sqrt(mu_i) are evaluated as the singular values of
    M = sqrt(rho) (Y x Y) conj(sqrt(rho)), for which M M^dag equals the
    Hermitian similar matrix sqrt(rho) rho_tilde sqrt(rho): the SVD
    resolves vanishing roots to machine epsilon instead of its square
    root.  Eigenvalues of rho below RANK_CUT of the largest are round-off
    on true zeros and are treated as exact zeros before the square root
    (sqrt amplifies eigenvalue noise delta to sqrt(delta)); anything below
    -1e-10 is rejected by validation.
    """
    _validate_density_matrix(rho)
    w, u = np.linalg.eigh(rho)
    w = np.where(w > RANK_CUT * w.max(), w, 0.0)
    sqrt_rho = (u * np.sqrt(w)) @ u.conj().T
    roots = np.linalg.svd(sqrt_rho @ _SPIN_FLIP @ sqrt_rho.conj(),
                          compute_uv=False)
    return max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))


def pure_concurrence(psi: np.ndarray, basis: Basis) -> float | np.ndarray:
    """Atom-atom concurrence of a pure atoms-plus-field state.

    With B the 4 x (n_max+1)^2 coefficient matrix (so the reduced state is
    B B^dag), the Wootters roots sqrt(mu_i) are exactly the singular values
    of the complex symmetric matrix N = B^T (Y x Y) B: the similarity
    eig(rho rho_tilde) = eig(conj(N) N) holds because conj(B)^T = B^dag.
    This route never forms sqrt(rho), so it keeps machine accuracy even
    when the reduced state is nearly rank-deficient.  A stack of states of
    shape (..., basis.size) gives an array of shape (...), every state
    checked for unit norm.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1:] != (basis.size,):
        raise ValueError(f"state length {psi.shape} does not match basis size {basis.size}")
    norm = np.linalg.norm(psi, axis=-1)
    off = ~(np.abs(norm - 1.0) <= 1e-10)   # a NaN norm is off too
    if np.any(off):
        raise ValueError(f"state norm {norm[off].flat[0]} differs from 1")
    B = psi.reshape(psi.shape[:-1] + (4, (basis.n_max + 1) ** 2))
    roots = np.linalg.svd(B.swapaxes(-1, -2) @ _SPIN_FLIP @ B, compute_uv=False)  # descending
    C = np.maximum(0.0, roots[..., 0] - roots[..., 1:].sum(axis=-1))
    return float(C) if psi.ndim == 1 else C


def is_x_state(rho: np.ndarray, tol: float = X_SHAPE_TOL) -> bool:
    """True iff all entries off the diagonal and anti-diagonal are <= tol."""
    mask = np.fliplr(np.eye(4, dtype=bool)) | np.eye(4, dtype=bool)
    return bool(np.max(np.abs(rho[~mask])) <= tol)


def xstate_branch(diag, rho_23, rho_14):
    """Signed X-state branch; the concurrence is C = 2 max(0, branch).

    branch = max(|rho_23| - sqrt(rho_11 rho_44), |rho_14| - sqrt(rho_22 rho_33))
    with ``diag`` = (rho_11, rho_22, rho_33, rho_44) (1-based indices in the
    fixed atomic basis).  Works elementwise on scalars or arrays and does
    no validation, so it can sit inside root-finding loops.
    """
    r11, r22, r33, r44 = diag
    return np.maximum(np.abs(rho_23) - np.sqrt(r11 * r44),
                      np.abs(rho_14) - np.sqrt(r22 * r33))


def xstate_concurrence(rho: np.ndarray) -> float:
    """Closed-form concurrence of an X-shaped atomic density matrix.

    C = 2 max(0, xstate_branch).  Rejects non-X input so the caller can
    fall back to the general route.
    """
    _validate_density_matrix(rho)
    if not is_x_state(rho):
        raise ValueError("density matrix is not X-shaped; use wootters_concurrence")
    d = np.clip(np.diag(rho).real, 0.0, None)
    return 2.0 * max(0.0, float(xstate_branch(d, rho[1, 2], rho[0, 3])))
