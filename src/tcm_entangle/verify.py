"""Self-check suites: oracle equivalence and numerical invariants.

Each suite returns a (name, max_residual, threshold, passed) row; the CLI
prints one machine-readable line per suite and exits nonzero on any
failure.  ``inject_fault`` deliberately corrupts one off-sector Hamiltonian
entry so the conservation suite demonstrably catches broken input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, analytic, entanglement, propagator
from .analysis import TracePath
from .hamiltonian import build_hamiltonian, check_conservation
from .model import (Basis, Family, InitialStateSpec, ModelParams, initial_state)

_ALPHAS = tuple(k * math.pi / 8 for k in range(5))          # [0, pi/2]
_EPSILONS = (0.0, 0.5, 2.0)
_T_GRID = np.linspace(0.0, 12.0, 121)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.threshold

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name},{self.max_residual:.3e},{self.threshold:.1e},{status}"


def _evolutions(alphas=(math.pi / 8,), T_grid=_T_GRID):
    """(spec, params, basis, H/g, states on T_grid) for both families and each
    alpha, with H/g decomposed once per epsilon."""
    for eps in _EPSILONS:
        params = ModelParams.from_dimensionless(epsilon=eps)
        basis = Basis(params.n_max)
        H = build_hamiltonian(params, basis) / params.g
        decomp = propagator.spectral_decompose(H)
        for family in (Family.PSI, Family.PHI):
            for alpha in alphas:
                spec = InitialStateSpec(family, alpha)
                psis = propagator.evolve_grid(initial_state(spec, basis), decomp, T_grid)
                yield spec, params, basis, H, psis


def suite_hermiticity() -> SuiteResult:
    worst = 0.0
    for eps in _EPSILONS:
        params = ModelParams.from_dimensionless(epsilon=eps)
        for conv in ("unit", "bosonic"):
            H = build_hamiltonian(params, Basis(params.n_max), pair_amplitude=conv)
            worst = max(worst, float(np.max(np.abs(H - H.conj().T))))
    return SuiteResult("hermiticity", worst, 0.0)


def suite_conservation(inject_fault: bool = False) -> SuiteResult:
    worst = 0.0
    for eps in _EPSILONS:
        for n_max in (2, 3, 4):
            params = ModelParams.from_dimensionless(epsilon=eps, n_max=n_max)
            basis = Basis(n_max)
            H = build_hamiltonian(params, basis)
            if inject_fault:
                H[0, 1] += 0.01  # couples states of different excitation number
            if not check_conservation(H, basis):
                n = basis.excitations
                off = np.abs(H) * (n[:, None] != n[None, :])
                worst = max(worst, float(off.max()))
    return SuiteResult("conservation", worst, 0.0)


def suite_unitarity() -> SuiteResult:
    worst = 0.0
    for *_, psis in _evolutions():
        worst = max(worst, float(np.max(np.abs(np.linalg.norm(psis, axis=1) - 1.0))))
    return SuiteResult("unitarity", worst, 1e-12)


def suite_energy_conservation() -> SuiteResult:
    worst = 0.0
    for *_, H, psis in _evolutions():
        energies = np.real(np.einsum("ti,ij,tj->t", psis.conj(), H, psis))
        scale = float(np.max(np.abs(H)))
        worst = max(worst, float(np.max(np.abs(energies - energies[0]))) / scale)
    return SuiteResult("energy_conservation", worst, 1e-10)


def suite_sector_confinement() -> SuiteResult:
    worst = 0.0
    for spec, _, basis, _, psis in _evolutions():
        sectors = {2} if spec.family is Family.PSI else {0, 4}
        outside = np.array([n not in sectors for n in basis.excitations])
        worst = max(worst, float(np.max(np.abs(psis[:, outside]))))
    return SuiteResult("sector_confinement", worst, 1e-12)


def suite_fidelity() -> SuiteResult:
    """Oracle equivalence: closed-form state vs propagated state."""
    worst = 0.0
    for spec, params, basis, _, psis in _evolutions(_ALPHAS):
        analytic_states = analytic.closed_form_states(spec, params, basis, _T_GRID)
        fid = np.abs(np.einsum("ti,ti->t", analytic_states.conj(), psis))
        worst = max(worst, float(np.max(1.0 - fid)))
    return SuiteResult("fidelity", worst, 1e-9)


def suite_trace_agreement() -> SuiteResult:
    """Closed-form C(T) vs the pure-state concurrence of propagated states."""
    worst = 0.0
    for spec, params, basis, _, psis in _evolutions(_ALPHAS):
        t_a = analysis.concurrence_trace(spec, params, _T_GRID, TracePath.ANALYTIC)
        gap = np.abs(t_a.C - entanglement.pure_concurrence(psis, basis))
        worst = max(worst, float(np.max(gap)))
    return SuiteResult("trace_agreement", worst, 1e-9)


def suite_density_matrix() -> SuiteResult:
    """Hermiticity, unit trace and positivity of the reduced atomic state."""
    worst = 0.0
    for _, _, basis, _, psis in _evolutions(T_grid=_T_GRID[::10]):
        rho = entanglement.reduce_to_atoms(psis, basis)
        worst = max(worst,
                    float(np.max(np.abs(rho - rho.conj().swapaxes(-1, -2)))),
                    float(np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0))),
                    max(0.0, -float(np.linalg.eigvalsh(rho).min())))
    return SuiteResult("density_matrix", worst, 1e-10)


def suite_local_unitary_invariance(n_unitaries: int = 20) -> SuiteResult:
    rng = np.random.default_rng(20260823)
    params = ModelParams.from_dimensionless(epsilon=2.0)
    basis = Basis(params.n_max)
    decomp = propagator.decompose_model(params, basis)
    worst = 0.0
    for family in (Family.PSI, Family.PHI):
        psi0 = initial_state(InitialStateSpec(family, math.pi / 8), basis)
        psi = propagator.evolve(psi0, decomp, 1.3)
        rho = entanglement.reduce_to_atoms(psi, basis)
        c0 = entanglement.wootters_concurrence(rho)
        for _ in range(n_unitaries):
            u = np.kron(_haar_unitary(rng), _haar_unitary(rng))
            c1 = entanglement.wootters_concurrence(u @ rho @ u.conj().T)
            worst = max(worst, abs(c1 - c0))
    return SuiteResult("local_unitary_invariance", worst, 1e-10)


def _haar_unitary(rng, dim: int = 2) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def run_all(inject_fault: bool = False) -> list[SuiteResult]:
    return [
        suite_hermiticity(),
        suite_conservation(inject_fault=inject_fault),
        suite_unitarity(),
        suite_energy_conservation(),
        suite_sector_confinement(),
        suite_fidelity(),
        suite_trace_agreement(),
        suite_density_matrix(),
        suite_local_unitary_invariance(),
    ]
