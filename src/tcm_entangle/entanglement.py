"""Reduction to the two-atom subsystem and concurrence.

The atomic basis is fixed as {|ee>, |eg>, |ge>, |gg>}; the spin flip in the
Wootters construction conjugates in this basis.  The commands and ``verify``
run ``pure_concurrence`` and ``xstate_branch``, never the mixed-state routes.
"""

from __future__ import annotations

import numpy as np

from .model import Basis, require_numbers

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
X_SHAPE_TOL = 1e-12
RANK_CUT = 1e-12
NORM_TOL = 1e-10

# sigma_y (x) sigma_y has a single anti-diagonal (-1, 1, 1, -1)
_SPIN_FLIP = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))


def _atom_blocks(psi: np.ndarray) -> np.ndarray:
    """States (..., 4 m) as complex blocks (..., 4, m), one row per atomic
    state: ``model`` orders the basis atoms slowest.  A ``TypeError`` names
    ``psi`` if it is not complex numbers."""
    psi = require_numbers("psi", psi, complex)
    size = psi.shape[-1] if psi.ndim else 0
    if size == 0 or size % 4:
        raise ValueError("psi must have a non-empty last axis whose length is a multiple "
                         f"of 4 (atoms x field states), got shape {psi.shape}")
    return psi.reshape(psi.shape[:-1] + (4, size // 4))


def reduce_to_atoms(psi: np.ndarray) -> np.ndarray:
    """Partial trace over both cavity modes, returning the 4x4 atomic state.

    rho[(A,B),(A',B')] = sum_{na,nb} psi(A,B,na,nb) conj(psi(A',B',na,nb)).
    A stack of states of shape (..., 4 m) gives a stack of shape (..., 4, 4).
    """
    block = _atom_blocks(psi)
    return block @ block.conj().swapaxes(-1, -2)


def _validate_density_matrix(rho) -> np.ndarray:
    """``rho`` as a complex array, checked to be a 4x4 density matrix."""
    rho = require_numbers("rho", rho, complex)
    if rho.shape != (4, 4):
        raise ValueError(f"rho must be a 4x4 atomic density matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
        raise ValueError("density matrix trace differs from 1")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {evals.min():.3e}")
    return rho


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
    rho = _validate_density_matrix(rho)
    w, u = np.linalg.eigh(rho)
    w = np.where(w > RANK_CUT * w.max(), w, 0.0)
    sqrt_rho = (u * np.sqrt(w)) @ u.conj().T
    roots = np.linalg.svd(sqrt_rho @ _SPIN_FLIP @ sqrt_rho.conj(),
                          compute_uv=False)
    return max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))


def require_unit_norms(norm: np.ndarray):
    """Reject a stack of state norms unless every one lies within
    ``NORM_TOL`` of 1; a NaN norm fails the check too."""
    off = ~(np.abs(norm - 1.0) <= NORM_TOL)
    if np.any(off):
        raise ValueError(f"state norm {norm[off].flat[0]} differs from 1")


def pure_concurrence(psi: np.ndarray) -> float | np.ndarray:
    """Atom-atom concurrence of a pure atoms-plus-field state.

    With B the 4 x m coefficient matrix over m field states (so the reduced
    state is B B^dag), the Wootters roots sqrt(mu_i) are exactly the
    singular values of the complex symmetric matrix N = B^T (Y x Y) B: the
    similarity eig(rho rho_tilde) = eig(conj(N) N) holds because
    conj(B)^T = B^dag.  This route never forms sqrt(rho), so it keeps
    machine accuracy even when the reduced state is nearly rank-deficient.
    States of shape (..., 4 m) give C of shape (...), each checked for unit
    norm; a ``TypeError`` names ``psi`` if it is not complex numbers.
    """
    psi = require_numbers("psi", psi, complex)
    B = _atom_blocks(psi)
    require_unit_norms(np.linalg.norm(psi, axis=-1))
    C = _block_concurrence(B)
    return float(C) if psi.ndim == 1 else C


def _block_concurrence(B: np.ndarray) -> np.ndarray:
    """C of :func:`pure_concurrence` from the atom blocks (..., 4, m) of
    :func:`_atom_blocks`, as an array, with no norm check: for states whose
    norms the caller has checked."""
    roots = np.linalg.svd(B.swapaxes(-1, -2) @ _SPIN_FLIP @ B, compute_uv=False)  # descending
    return np.maximum(0.0, roots[..., 0] - roots[..., 1:].sum(axis=-1))


def concurrence_gap_bound(a: np.ndarray, o: np.ndarray, basis: Basis) -> np.ndarray:
    """Upper bound on |C(a) - C(o)| for two stacks of pure states, pairwise.

    C is blind to a global phase, so ``o`` is first turned by
    phi = <o|a> / |<o|a>| (phi = 1 where the overlap is 0), the phase that
    makes e = ||a - phi o|| smallest.  With D = B_a - B_o' the coefficient
    matrices' difference, N_a - N_o' = D^T (Y x Y) B_a + B_o'^T (Y x Y) D,
    so ||N_a - N_o'||_2 <= e (||a|| + ||o||).  No singular value of N moves
    by more than that (Weyl; Golub & Van Loan, Matrix Computations,
    Cor. 8.6.2), and C is the largest of the (n_max+1)^2 of them minus the
    rest, so |C(a) - C(o)| <= (n_max+1)^2 e (||a|| + ||o||).

    The caller passes the columns: ``a`` and ``o`` may hold any common
    subset of the basis columns that keeps every nonzero entry of both
    (path BOTH of ``analysis.concurrence_trace`` passes the used columns of
    its narrow evolution).  Zeros add nothing to the overlap or the
    norms, so leaving them out changes only the rounding of the bound.
    ``a`` and ``o`` may be single states or stacks of any leading shape.
    """
    a, o = np.asarray(a), np.asarray(o)
    overlap = np.einsum("...i,...i->...", o.conj(), a)
    size = np.abs(overlap)
    phase = np.divide(overlap, size, out=np.ones_like(overlap), where=size > 0)
    e = np.linalg.norm(a - phase[..., None] * o, axis=-1)
    m = (basis.n_max + 1) ** 2
    return m * e * (np.linalg.norm(a, axis=-1) + np.linalg.norm(o, axis=-1))


def is_x_state(rho: np.ndarray) -> bool:
    """True iff all entries off the diagonal and anti-diagonal are <= X_SHAPE_TOL."""
    mask = np.fliplr(np.eye(4, dtype=bool)) | np.eye(4, dtype=bool)
    return bool(np.max(np.abs(rho[~mask])) <= X_SHAPE_TOL)


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
    rho = _validate_density_matrix(rho)
    if not is_x_state(rho):
        raise ValueError("density matrix is not X-shaped; use wootters_concurrence")
    d = np.clip(np.diag(rho).real, 0.0, None)
    return 2.0 * max(0.0, float(xstate_branch(d, rho[1, 2], rho[0, 3])))
