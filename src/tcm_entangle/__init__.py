"""Entanglement dynamics of two atoms in a two-mode two-photon cavity.

Two independent computation paths — exact numerical propagation and
closed-form amplitudes — feed a common concurrence/sudden-death analysis
layer and a CSV/SVG emitting CLI.
"""

from .analysis import (ConcurrenceTrace, DeathInterval, TracePath,
                       concurrence_trace, detect_death_intervals,
                       estimate_period, max_concurrence)
from .analytic import closed_form_states, phi_amplitudes, psi_amplitudes
from .entanglement import (pure_concurrence, reduce_to_atoms,
                           wootters_concurrence, xstate_concurrence)
from .hamiltonian import build_hamiltonian, check_conservation
from .model import (Basis, BasisState, DerivedConstants, Family,
                    InitialStateSpec, ModelParams, SUPPORT_KETS,
                    derive_constants, excitation_number, initial_state)
from .propagator import (SpectralDecomposition, decompose_model, evolve,
                         evolve_grid, spectral_decompose)

__version__ = "0.1.0"

__all__ = [
    "Basis", "BasisState", "ConcurrenceTrace", "DeathInterval",
    "DerivedConstants", "Family", "InitialStateSpec", "ModelParams",
    "SUPPORT_KETS", "SpectralDecomposition", "TracePath",
    "build_hamiltonian", "check_conservation", "closed_form_states",
    "concurrence_trace", "decompose_model", "derive_constants",
    "detect_death_intervals", "estimate_period", "evolve", "evolve_grid",
    "excitation_number", "initial_state", "max_concurrence",
    "phi_amplitudes", "psi_amplitudes", "pure_concurrence",
    "reduce_to_atoms", "spectral_decompose", "wootters_concurrence",
    "xstate_concurrence",
]
