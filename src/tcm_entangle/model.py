"""Dimensionless model parameters, truncated product basis and initial states.

The system is two identical two-level atoms (A, B) in a two-mode cavity.
Each atomic transition exchanges a photon *pair*, one photon in each mode,
so the conserved excitation number is N = n_a + n_b + 2 * (# excited atoms).

Basis ordering is frozen for file-format stability: atom A slowest, then
atom B, then n_a, then n_b, with atomic levels ordered (e, g).  The reduced
two-atom basis is therefore {|ee>, |eg>, |ge>, |gg>} in that order.
``Basis`` holds the states as integer arrays in this order, one entry per
state, and ``Basis.position`` is the one map from entries to an index.

All public time arguments are dimensionless, T = g*t.

Each input rule is one ``require_*`` function below, which names the field
in its message (the value rules return the value they checked); every
boundary that takes the quantity calls it:

* scalars: alpha (``InitialStateSpec``, the closed forms, ``RunConfig``),
  epsilon (``ModelParams``, the closed forms, ``RunConfig``), finite (lam,
  the T of ``propagator.evolve``), positive (T_max, zero_threshold) and
  integer (n_max, n_points, photon numbers);
* numbers (:func:`require_numbers`): reals for the T of the closed forms
  and every grid, complex numbers for the states ``psi``, ``psi0`` and
  ``rho``; text and None are refused, and so is a complex T;
* grid (``concurrence_trace``, ``evolve_grid``, ``closed_form_states``);
* instances (:func:`require_instance`): each family, spec, params, basis,
  trace path, trace and decomposition a function takes, a ``RunConfig``
  and the text a config is parsed from.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from numbers import Complex, Integral, Real

import numpy as np

LEVELS = ("e", "g")

#: largest accepted photon cutoff.  The basis holds 4 (n_max+1)^2 states and
#: H/g and its eigenvectors are dense, so at the cap each is a 1,156 x 1,156
#: complex matrix of 21 MB; building and decomposing it took 0.45 s and
#: peaked at 138 MB RSS (2-core x86-64, numpy 2.4).  A larger value is an
#: error, not a hang.
MAX_N_MAX = 16


def _check_n_max(n_max, least: int):
    """Raise naming ``n_max`` unless it is an int in [least, MAX_N_MAX]."""
    if not least <= require_integer("n_max", n_max) <= MAX_N_MAX:
        raise ValueError(f"n_max must lie in [{least}, {MAX_N_MAX}], got {n_max}")


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


def require_real(name: str, value):
    """Raise ``TypeError`` naming ``name`` unless ``value`` is a non-bool real number."""
    # a float, the common case, is decided without the ABC check
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return value


def require_finite(name: str, value):
    """Raise naming ``name`` unless ``value`` is a finite real number."""
    if not math.isfinite(require_real(name, value)):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def require_positive(name: str, value):
    """Raise naming ``name`` unless ``value`` is a finite real number > 0."""
    if require_finite(name, value) <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def require_epsilon(name: str, value):
    """Raise naming ``name`` unless ``value`` is a finite real number >= 0."""
    if require_finite(name, value) < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def require_alpha(name: str, value):
    """Raise naming ``name`` unless ``value`` is a real number in [0, pi/2]."""
    if not 0.0 <= require_real(name, value) <= math.pi / 2:
        raise ValueError(f"{name} must lie in [0, pi/2], got {value}")
    return value


def require_integer(name: str, value):
    """Raise ``TypeError`` naming ``name`` unless ``value`` is a non-bool integer."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


#: dtype of :func:`require_numbers` -> (the dtype kinds it reads, the type
#: each element of an object array must have, its message)
_NUMBERS = {
    float: ("biuf", Real, "must be real numbers"),
    complex: ("biufc", Complex, "must be complex numbers"),
}


def require_numbers(name: str, values, dtype: type = float) -> np.ndarray:
    """``values`` as an array of ``dtype``, float or complex; a ``TypeError``
    names ``name`` unless they are booleans, integers, reals or (for
    complex) complex numbers.  Text is never read as a number, a complex
    value is not a real one, and an object array is searched element by
    element, so a None, which numpy would read as NaN, is refused."""
    if type(values) is np.ndarray and values.dtype == dtype:   # the common case, as it is
        return values
    kinds, element, said = _NUMBERS[dtype]
    try:
        array = np.asarray(values)
        # map, not a generator expression, whose closure would slow the fast path
        if array.dtype.kind in kinds or array.dtype.kind == "O" and all(
                map(isinstance, array.flat, [element] * array.size)):
            return array.astype(dtype, copy=False)
    except (TypeError, ValueError):   # ragged, or not an array numpy can build
        pass
    raise TypeError(f"{name} {said}, got {values!r}")


def require_grid(T_grid) -> np.ndarray:
    """``T_grid`` as a float array, checked real, non-empty, 1-d, finite and ascending."""
    T_grid = require_numbers("T_grid", T_grid)
    if T_grid.ndim != 1 or T_grid.size == 0:
        raise ValueError("T_grid must be a non-empty 1-d array")
    if not np.all(np.isfinite(T_grid)):
        raise ValueError("T_grid must be finite")
    if T_grid.size > 1 and np.any(np.diff(T_grid) <= 0):
        raise ValueError("T_grid must be strictly ascending")
    return T_grid


def require_instance(name: str, value, cls: type):
    """Raise ``TypeError`` naming ``name`` unless ``value`` is a ``cls``, as
    in "spec must be an InitialStateSpec, got None" or, for an enum, "path
    must be a TracePath member, got 'BOTH'" (text such as ``"BOTH"`` is read
    with ``TracePath(text)``); returns ``value``."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOUaeiou" else "a"
        member = " member" if issubclass(cls, enum.Enum) else ""
        raise TypeError(f"{name} must be {article} {cls.__name__}{member}, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """The model in the units it is solved in: H/g over time T = g*t.

    ``epsilon`` = Omega/g is the dipole-dipole strength (finite, >= 0),
    ``lam`` = omega_0/g the atomic frequency (finite), and ``n_max`` the
    photon cutoff, an int in [2, ``MAX_N_MAX``].  ``lam`` enters the PHI
    phases only, never the concurrence.  ``basis``, ``hamiltonian`` (H/g,
    read-only) and ``decomposition`` (its ``jacobi_eigh``) are each built
    once per object and are not fields: ``==``, ``hash`` and ``repr`` ignore
    them, so an equal but new object builds its own.
    """

    epsilon: float = 0.0
    lam: float = 2.0
    n_max: int = 2

    def __post_init__(self):
        object.__setattr__(self, "epsilon", float(require_epsilon("epsilon", self.epsilon)))
        object.__setattr__(self, "lam", float(require_finite("lam", self.lam)))
        _check_n_max(self.n_max, 2)

    @functools.cached_property
    def basis(self) -> Basis:
        return Basis(self.n_max)

    @functools.cached_property
    def hamiltonian(self) -> np.ndarray:
        from .hamiltonian import build_hamiltonian   # hamiltonian imports this module
        H = build_hamiltonian(self)
        H.flags.writeable = False
        return H

    @functools.cached_property
    def decomposition(self):
        from .propagator import jacobi_eigh   # propagator imports this module
        return jacobi_eigh(self.hamiltonian)

    @classmethod
    def from_dimensionless(cls, epsilon: float = 0.0, lam: float = 2.0,
                           n_max: int = 2) -> "ModelParams":
        """``ModelParams(epsilon, lam, n_max)``, under its older name."""
        return cls(epsilon, lam, n_max)


@dataclass(frozen=True)
class InitialStateSpec:
    """Initial Bell-state mixture: family plus mixing angle alpha in [0, pi/2].

    Either family starts with atom-atom concurrence sin(2*alpha); the cavity
    modes start in the two-mode vacuum."""

    family: Family
    alpha: float

    def __post_init__(self):
        require_instance("family", self.family, Family)
        require_alpha("alpha", self.alpha)


class Basis:
    """Ordered truncated product basis with index lookup.

    Enumeration order: atom A outer, then atom B, then n_a, then n_b
    (levels in (e, g) order, photon numbers ascending).  Size is
    4 * (n_max + 1)**2.  State k is held as entry k of the integer arrays
    ``excited_a``, ``excited_b`` (1 for e, 0 for g), ``n_a``, ``n_b`` and
    ``excitations`` (the conserved N).
    """

    def __init__(self, n_max: int):
        _check_n_max(n_max, 0)
        self.n_max = n_max
        m = n_max + 1
        level_a, level_b, self.n_a, self.n_b = np.indices((2, 2, m, m)).reshape(4, -1)
        self.excited_a, self.excited_b = 1 - level_a, 1 - level_b   # LEVELS is (e, g)
        self.size = self.n_a.size
        self.excitations = self.n_a + self.n_b + 2 * (self.excited_a + self.excited_b)
        self._support = {}

    def position(self, excited_a, excited_b, n_a, n_b):
        """Basis index of the state(s) with these entries; takes arrays."""
        m = self.n_max + 1
        return (((1 - excited_a) * 2 + (1 - excited_b)) * m + n_a) * m + n_b

    def index(self, atom_a: str, atom_b: str, n_a: int, n_b: int) -> int:
        """Basis index of |atom_a, atom_b, n_a, n_b>; photon numbers are ints."""
        if atom_a not in LEVELS or atom_b not in LEVELS:
            raise ValueError(f"unknown atomic level in ({atom_a}, {atom_b})")
        require_integer("photon number n_a", n_a)
        require_integer("photon number n_b", n_b)
        if not (0 <= n_a <= self.n_max and 0 <= n_b <= self.n_max):
            raise ValueError(f"photon numbers ({n_a}, {n_b}) outside [0, n_max={self.n_max}]")
        return self.position(int(atom_a == "e"), int(atom_b == "e"), n_a, n_b)

    def support_indices(self, family: Family) -> np.ndarray:
        """Basis indices of ``SUPPORT_KETS[family]``, in amplitude order, as a
        read-only array found once per basis and family."""
        found = self._support.get(family)
        if found is None:
            found = np.array([self.index(*ket) for ket in SUPPORT_KETS[family]])
            found.flags.writeable = False
            self._support[family] = found
        return found


def initial_state(spec: InitialStateSpec, basis: Basis) -> np.ndarray:
    """Normalized amplitude vector of the chosen initial state.

    PSI: cos(a)|eg00> + sin(a)|ge00>;  PHI: cos(a)|ee00> + sin(a)|gg00>.
    """
    require_instance("spec", spec, InitialStateSpec)
    require_instance("basis", basis, Basis)
    psi = np.zeros(basis.size, dtype=complex)
    psi[basis.support_indices(spec.family)[:2]] = math.cos(spec.alpha), math.sin(spec.alpha)
    return psi
