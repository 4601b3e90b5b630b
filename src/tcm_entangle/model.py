"""Physical parameters, truncated product basis and initial states.

The system is two identical two-level atoms (A, B) in a two-mode cavity.
Each atomic transition exchanges a photon *pair*, one photon in each mode,
so the conserved excitation number is N = n_a + n_b + 2 * (# excited atoms).

Basis ordering is frozen for file-format stability: atom A slowest, then
atom B, then n_a, then n_b, with atomic levels ordered (e, g).  The reduced
two-atom basis is therefore {|ee>, |eg>, |ge>, |gg>} in that order.

All public time arguments are dimensionless, T = g*t.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

LEVELS = ("e", "g")

#: tolerance used to enforce the two-mode resonance condition
_RESONANCE_RTOL = 1e-12


class Family(enum.Enum):
    """Which pair of Bell states the atoms start in."""

    PSI = "PSI"  # cos(a)|eg> + sin(a)|ge>
    PHI = "PHI"  # cos(a)|ee> + sin(a)|gg>


#: The kets |atom_A, atom_B, n_a, n_b> each family can occupy, in the order
#: of its closed-form amplitudes (x1, x2, ...).  The first two carry the
#: initial cos(alpha) and sin(alpha); the rest start empty.
SUPPORT_KETS = {
    Family.PSI: (("e", "g", 0, 0), ("g", "e", 0, 0), ("g", "g", 1, 1)),
    Family.PHI: (("e", "e", 0, 0), ("g", "g", 0, 0), ("g", "e", 1, 1),
                 ("e", "g", 1, 1), ("g", "g", 2, 2)),
}


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the cavity-atom system.

    ``epsilon`` and ``lam`` are always recomputed from the stored couplings
    so they can never go stale.
    """

    omega_a: float
    omega_b: float
    omega_0: float
    g: float = 1.0
    Omega: float = 0.0
    n_max: int = 2

    def __post_init__(self):
        for name in ("omega_a", "omega_b", "omega_0", "g", "Omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.g <= 0:
            raise ValueError("coupling g must be positive")
        if self.Omega < 0:
            raise ValueError("dipole-dipole coupling Omega must be >= 0")
        if self.n_max < 2:
            raise ValueError("n_max must be >= 2")
        scale = max(abs(self.omega_a), abs(self.omega_b), abs(self.omega_0), 1.0)
        if abs(self.omega_0 - (self.omega_a + self.omega_b)) > _RESONANCE_RTOL * scale:
            raise ValueError(
                "resonance omega_0 = omega_a + omega_b is required "
                f"(got omega_0={self.omega_0}, omega_a+omega_b={self.omega_a + self.omega_b})"
            )

    @property
    def epsilon(self) -> float:
        """Dimensionless dipole-dipole strength Omega/g."""
        return self.Omega / self.g

    @property
    def lam(self) -> float:
        """Dimensionless atomic frequency omega_0/g."""
        return self.omega_0 / self.g

    @classmethod
    def from_dimensionless(cls, epsilon: float = 0.0, lam: float = 2.0,
                           g: float = 1.0, n_max: int = 2) -> "ModelParams":
        """Build resonant parameters from the two dimensionless ratios.

        The mode frequencies are split evenly; only their sum enters any
        observable quantity.
        """
        omega_0 = lam * g
        return cls(omega_a=omega_0 / 2, omega_b=omega_0 / 2, omega_0=omega_0,
                   g=g, Omega=epsilon * g, n_max=n_max)


@dataclass(frozen=True)
class DerivedConstants:
    """Dimensionless constants appearing in the closed-form solutions."""

    kappa: float        # sqrt(8 + eps^2), two-excitation Rabi splitting
    eta: float          # sqrt(16 + eps^2), four-excitation Rabi splitting
    L_plus: float       # eps/kappa + 1
    L_minus: float      # eps/kappa - 1
    theta_plus: float   # cos(alpha) + sin(alpha)
    theta_minus: float  # cos(alpha) - sin(alpha)


def derive_constants(epsilon: float, alpha: float) -> DerivedConstants:
    kappa = math.sqrt(8.0 + epsilon * epsilon)
    return DerivedConstants(
        kappa=kappa,
        eta=math.sqrt(16.0 + epsilon * epsilon),
        L_plus=epsilon / kappa + 1.0,
        L_minus=epsilon / kappa - 1.0,
        theta_plus=math.cos(alpha) + math.sin(alpha),
        theta_minus=math.cos(alpha) - math.sin(alpha),
    )


@dataclass(frozen=True)
class InitialStateSpec:
    """Initial Bell-state mixture: family plus mixing angle alpha in [0, pi/2].

    Either family starts with atom-atom concurrence sin(2*alpha); the cavity
    modes start in the two-mode vacuum.
    """

    family: Family
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= math.pi / 2:
            raise ValueError(f"alpha must lie in [0, pi/2], got {self.alpha}")


@dataclass(frozen=True)
class BasisState:
    """One labeled product ket |atom_A, atom_B, n_a, n_b>."""

    atom_a: str
    atom_b: str
    n_a: int
    n_b: int

    def label(self) -> str:
        return f"{self.atom_a}{self.atom_b}{self.n_a}{self.n_b}"


def excitation_number(s: BasisState) -> int:
    """Conserved charge N = n_a + n_b + 2 * (number of excited atoms)."""
    n = s.n_a + s.n_b
    if s.atom_a == "e":
        n += 2
    if s.atom_b == "e":
        n += 2
    return n


class Basis:
    """Ordered truncated product basis with index lookup.

    Enumeration order: atom A outer, then atom B, then n_a, then n_b
    (levels in (e, g) order, photon numbers ascending).  Size is
    4 * (n_max + 1)**2.
    """

    def __init__(self, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.n_max = n_max
        self.states: list[BasisState] = [
            BasisState(a, b, na, nb)
            for a in LEVELS
            for b in LEVELS
            for na in range(n_max + 1)
            for nb in range(n_max + 1)
        ]
        self.size = len(self.states)
        self.excitations = np.array([excitation_number(s) for s in self.states])

    def index(self, atom_a: str, atom_b: str, n_a: int, n_b: int) -> int:
        if atom_a not in LEVELS or atom_b not in LEVELS:
            raise ValueError(f"unknown atomic level in ({atom_a}, {atom_b})")
        if not (0 <= n_a <= self.n_max and 0 <= n_b <= self.n_max):
            raise ValueError(f"photon numbers ({n_a}, {n_b}) outside [0, n_max={self.n_max}]")
        m = self.n_max + 1
        ia, ib = LEVELS.index(atom_a), LEVELS.index(atom_b)
        return ((ia * 2 + ib) * m + n_a) * m + n_b

    def support_indices(self, family: Family) -> np.ndarray:
        """Basis indices of ``SUPPORT_KETS[family]``, in amplitude order."""
        return np.array([self.index(*ket) for ket in SUPPORT_KETS[family]])

    def __len__(self) -> int:
        return self.size


def initial_state(spec: InitialStateSpec, basis: Basis) -> np.ndarray:
    """Normalized amplitude vector of the chosen initial state.

    PSI: cos(a)|eg00> + sin(a)|ge00>;  PHI: cos(a)|ee00> + sin(a)|gg00>.
    """
    psi = np.zeros(basis.size, dtype=complex)
    for ket, amp in zip(SUPPORT_KETS[spec.family], (math.cos(spec.alpha), math.sin(spec.alpha))):
        psi[basis.index(*ket)] = amp
    return psi
