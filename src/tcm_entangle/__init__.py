"""Entanglement dynamics of two atoms in a two-mode two-photon cavity.

Two independent computation paths — exact numerical propagation and
closed-form amplitudes — feed a common concurrence/sudden-death analysis
layer and a CSV/SVG emitting CLI.
"""

from .analysis import (ConcurrenceTrace, DeathInterval, TracePath,
                       concurrence_trace, death_windows, detect_death_intervals,
                       estimate_period, max_concurrence)
from .analytic import closed_form_states, phi_amplitudes, psi_amplitudes
from .entanglement import (pure_concurrence, reduce_to_atoms,
                           wootters_concurrence, xstate_concurrence)
from .hamiltonian import build_hamiltonian, check_conservation
from .model import (Basis, Family, InitialStateSpec, ModelParams, SUPPORT_KETS,
                    initial_state)
from .propagator import SpectralDecomposition, evolve, evolve_grid

__version__ = "0.1.0"

__all__ = [
    "Basis", "ConcurrenceTrace", "DeathInterval", "Family", "InitialStateSpec",
    "ModelParams", "SUPPORT_KETS", "SpectralDecomposition", "TracePath",
    "build_hamiltonian", "check_conservation", "closed_form_states",
    "concurrence_trace", "death_windows", "detect_death_intervals",
    "estimate_period", "evolve", "evolve_grid", "initial_state", "max_concurrence",
    "phi_amplitudes", "psi_amplitudes", "pure_concurrence", "reduce_to_atoms",
    "wootters_concurrence", "xstate_concurrence",
]
