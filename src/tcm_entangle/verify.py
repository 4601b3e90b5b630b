"""Self-check suites: oracle equivalence and numerical invariants.

The suites check the kernels the commands run: the Hamiltonian build,
``evolve_grid``, the closed-form amplitudes, ``concurrence_trace``,
``reduce_to_atoms`` and ``pure_concurrence``.  Each suite yields one
residual per case, and :func:`_worst` makes it return the row (name,
max_residual, threshold, passed), which ``run_all`` stamps with the suite's
elapsed seconds.  A suite that raises ``ValueError`` (``LinAlgError``
included) gets a NaN row holding the message, and the rest still run; the
CLI prints one machine-readable line per suite, or with ``--json`` one JSON
document, and exits nonzero on any failure.
``inject_fault`` deliberately corrupts one off-sector Hamiltonian entry so
the conservation suite demonstrably catches broken input.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis, analytic, entanglement, propagator
from .analysis import TracePath
from .hamiltonian import check_conservation
from .model import Family, InitialStateSpec, ModelParams, initial_state

_ALPHAS = tuple(k * math.pi / 8 for k in range(5))          # [0, pi/2]
_EPSILONS = (0.0, 0.5, 2.0)
_T_GRID = np.linspace(0.0, 12.0, 121)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_residual: float
    threshold: float
    elapsed_s: float = field(default=0.0, compare=False)
    #: the message of the ``ValueError`` that ended the suite, if one did
    error: str | None = field(default=None, compare=False)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.threshold

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name},{self.max_residual:.3e},{self.threshold:.1e},{status}"

    def record(self) -> dict:
        """The row as a JSON-ready dict; a non-finite residual is None."""
        residual = self.max_residual if math.isfinite(self.max_residual) else None
        return {"name": self.name, "residual": residual,
                "threshold": self.threshold, "passed": self.passed,
                "elapsed_s": self.elapsed_s}


def _evolutions(models):
    """(spec, params, states on ``_T_GRID``) for each ``ModelParams`` of
    ``models``, both families and each of ``_ALPHAS``.  ``run_all`` lists
    this once and hands the list, or its alpha = pi/8 rows, to every suite
    that reads states, so each state is propagated once per run."""
    for params in models:
        for family in (Family.PSI, Family.PHI):
            for alpha in _ALPHAS:
                spec = InitialStateSpec(family, alpha)
                psis = propagator.evolve_grid(initial_state(spec, params.basis),
                                              params.decomposition, _T_GRID)
                yield spec, params, psis


def _worst(name: str, threshold: float):
    """Turn a generator of one residual per case into the suite ``name``,
    whose row holds the largest residual (0.0 for no case); a NaN residual
    is kept over any number, so the suite reports NaN and fails.  The suite
    keeps ``name`` and ``threshold`` as attributes, for the row of a run
    that raises."""
    def reduce(residuals):
        @functools.wraps(residuals)
        def suite(*args, **kwargs) -> SuiteResult:
            worst = 0.0
            for residual in map(float, residuals(*args, **kwargs)):
                if residual > worst or math.isnan(residual):
                    worst = residual
            return SuiteResult(name, worst, threshold)
        suite.name, suite.threshold = name, threshold
        return suite
    return reduce


@_worst("hermiticity", 0.0)
def suite_hermiticity(models):
    for params in models:
        yield np.max(np.abs(params.hamiltonian - params.hamiltonian.conj().T))


@_worst("conservation", 0.0)
def suite_conservation(models, inject_fault: bool = False):
    """Each model of ``models`` and its copies at the other n_max of 2 to 4:
    a model's own H/g is the one the other suites read, built once."""
    for model in models:
        for n_max in (2, 3, 4):
            params = model if model.n_max == n_max else replace(model, n_max=n_max)
            basis, H = params.basis, params.hamiltonian
            if inject_fault:
                H = H.copy()
                H[0, 1] += 0.01  # couples states of different excitation number
            if not check_conservation(H, basis):
                n = basis.excitations
                yield np.max(np.abs(H) * (n[:, None] != n[None, :]))


@_worst("unitarity", 1e-12)
def suite_unitarity(evolutions):
    for *_, psis in evolutions:
        yield np.max(np.abs(np.linalg.norm(psis, axis=1) - 1.0))


def _energies(H: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """<psi(T)|H|psi(T)> for each row of ``psis``, summed over the entries
    that are nonzero at some T.  The entries that stay exactly zero add only
    exact zeros; on every evolution of ``run_all`` the bytes equal those of
    the sum over all entries."""
    nz = np.any(psis, axis=0)
    kept = psis[:, nz]
    return np.real(np.einsum("ti,ij,tj->t", kept.conj(), H[np.ix_(nz, nz)], kept))


@_worst("energy_conservation", 1e-10)
def suite_energy_conservation(evolutions):
    for _, params, psis in evolutions:
        H = params.hamiltonian
        energies = _energies(H, psis)
        yield np.max(np.abs(energies - energies[0])) / np.max(np.abs(H))


@_worst("sector_confinement", 1e-12)
def suite_sector_confinement(evolutions):
    for spec, params, psis in evolutions:
        basis = params.basis
        sectors = basis.excitations[basis.support_indices(spec.family)]
        yield np.max(np.abs(psis[:, ~np.isin(basis.excitations, sectors)]))


@_worst("fidelity", 1e-9)
def suite_fidelity(evolutions):
    """Oracle equivalence: closed-form state vs propagated state."""
    for spec, params, psis in evolutions:
        closed = analytic.closed_form_states(spec, params, _T_GRID)
        yield np.max(1.0 - np.abs(np.einsum("ti,ti->t", closed.conj(), psis)))


@_worst("trace_agreement", 1e-9)
def suite_trace_agreement(evolutions):
    """Closed-form C(T) vs the pure-state concurrence of propagated states."""
    for spec, params, psis in evolutions:
        t_a = analysis.concurrence_trace(spec, params, _T_GRID, TracePath.ANALYTIC)
        yield np.max(np.abs(t_a.C - entanglement.pure_concurrence(psis)))


@_worst("density_matrix", 1e-10)
def suite_density_matrix(evolutions):
    """Hermiticity, unit trace and positivity of the reduced atomic state,
    at every tenth time of each evolution."""
    for *_, psis in evolutions:
        rho = entanglement.reduce_to_atoms(psis[::10])
        yield np.max(np.abs(rho - rho.conj().swapaxes(-1, -2)))
        yield np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0))
        yield -np.linalg.eigvalsh(rho).min()


@_worst("local_unitary_invariance", 1e-10)
def suite_local_unitary_invariance(at_pi_8, rng):
    """``pure_concurrence`` under 20 Haar-random u_A (x) u_B at T = 1.3,
    drawn from the numpy Generator ``rng``."""
    for _, params, psis in at_pi_8:
        if params.epsilon != 2.0:   # 2.0 is one of _EPSILONS
            continue
        psi = psis[13]   # _T_GRID[13] = 1.3
        u = _haar_products(rng, 20)
        turned = (u @ entanglement._atom_blocks(psi)).reshape(len(u), -1)
        yield np.max(np.abs(entanglement.pure_concurrence(turned)
                            - entanglement.pure_concurrence(psi)))


def _haar_products(rng, count: int) -> np.ndarray:
    """``count`` products u_A (x) u_B of Haar-random 2x2 unitaries, shape
    (count, 4, 4), from one draw of ``rng``.  Each u is the Q of a complex
    Gaussian matrix's QR, its columns turned by the phases of R's diagonal
    (F. Mezzadri, Notices AMS 54, 592, 2007).  The draw is read per pair as
    A real, A imaginary, B real, B imaginary, the order of one pair drawn
    at a time."""
    g = rng.normal(size=(count, 2, 2, 2, 2))   # pair, atom, re/im, 2 x 2
    q, r = np.linalg.qr(g[:, :, 0] + 1j * g[:, :, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.abs(d))[..., None, :]
    u_a, u_b = u[:, 0, :, None, :, None], u[:, 1, None, :, None, :]
    return (u_a * u_b).reshape(count, 4, 4)


def _timed(suite, *args, **kwargs) -> SuiteResult:
    """The row of ``suite``, stamped with its elapsed seconds; a suite that
    raises ``ValueError`` gets residual NaN and the message."""
    start = time.perf_counter()
    try:
        result = suite(*args, **kwargs)
    except ValueError as exc:   # np.linalg.LinAlgError is one
        result = SuiteResult(suite.name, math.nan, suite.threshold, error=str(exc))
    return replace(result, elapsed_s=time.perf_counter() - start)


def run_all(inject_fault: bool = False) -> list[SuiteResult]:
    # made before any suite is timed: the first use of np.random imports
    # numpy.random, which would otherwise be timed as the suite's own work
    rng = np.random.default_rng(20260823)
    models = [ModelParams(epsilon=eps) for eps in _EPSILONS]
    evolutions = list(_evolutions(models))
    at_pi_8 = [e for e in evolutions if e[0].alpha == math.pi / 8]
    return [
        _timed(suite_hermiticity, models),
        _timed(suite_conservation, models, inject_fault=inject_fault),
        _timed(suite_unitarity, at_pi_8),
        _timed(suite_energy_conservation, at_pi_8),
        _timed(suite_sector_confinement, at_pi_8),
        _timed(suite_fidelity, evolutions),
        _timed(suite_trace_agreement, evolutions),
        _timed(suite_density_matrix, at_pi_8),
        _timed(suite_local_unitary_invariance, at_pi_8, rng),
    ]
