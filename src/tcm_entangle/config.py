"""Line-oriented `key = value` run configuration.

Format: UTF-8 text, one `key = value` per line, `#` starts a comment,
lists are comma-separated.  Angles accept literal multiples of pi
(`pi`, `pi/8`, `3*pi/16`) as well as plain decimals, so grid angles like
pi/8 carry no decimal drift.
"""

from __future__ import annotations

import functools
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .analysis import DEFAULT_ZERO_THRESHOLD, TracePath
from .model import (Family, _shown, require_alpha, require_epsilon, require_grid,
                    require_instance, require_integer, require_positive)

DEFAULT_T_MAX = 20.0
DEFAULT_N_POINTS = 2000
#: largest accepted n_points.  An ORACLE trace holds, per grid point, a
#: 9 x 9 complex Wootters matrix and a 36-entry complex state at n_max 2,
#: (81 + 36) x 16 B = 1.9 kB (2.4 kB traced peak with temporaries), so it
#: peaks near 2.4 GB at the cap.  A BOTH trace evolves only the 3-5 kets its
#: state occupies and peaks at 0.5-0.6 kB a point, near 0.6 GB at the cap
#: (PHI, tracemalloc at 100,000 and 200,000 points).
MAX_N_POINTS = 10**6

_PI_RE = re.compile(r"^(?:(\d+(?:\.\d+)?)\s*\*\s*)?pi(?:\s*/\s*(\d+(?:\.\d+)?))?$")


class ConfigError(ValueError):
    """Malformed, unknown or out-of-range configuration input."""


#: how every number is written to an output file or file name
NUMBER_FORMAT = "%.15g"


def fmt(value: float) -> str:
    """Decimal text at 15 significant digits."""
    return NUMBER_FORMAT % float(value)


def file_tag(value: float) -> str:
    """``fmt(value)`` as it appears in output file names, with ``-``
    written ``m`` and ``.`` written ``p``."""
    return fmt(value).replace("-", "m").replace(".", "p")


def parse_angle(token: str) -> float:
    """Parse a decimal or a pi-expression like `pi/8` or `3*pi/16`.

    A pi-expression with a zero denominator raises ``ConfigError``; a
    ``token`` that is not a str raises ``TypeError``."""
    token = require_instance("token", token, str).strip()
    m = _PI_RE.match(token)
    if m:
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0.0:
            raise ConfigError(f"angle {token!r} divides by zero")
        return num * math.pi / den
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"cannot parse angle {token!r}") from None


@dataclass(frozen=True)
class RunConfig:
    family: Family = Family.PSI
    alpha_list: tuple[float, ...] = (math.pi / 4,)
    epsilon_list: tuple[float, ...] = (0.0,)
    T_max: float = DEFAULT_T_MAX
    n_points: int = DEFAULT_N_POINTS
    path: TracePath = TracePath.ANALYTIC
    output_dir: str | os.PathLike = "out"
    emit_svg: bool = False
    zero_threshold: float = DEFAULT_ZERO_THRESHOLD

    def __post_init__(self):
        try:
            self._check()
        except ValueError as exc:   # a broken model rule is a config error
            raise ConfigError(str(exc)) from None

    def _check(self):
        require_instance("family", self.family, Family)
        for name, rule in (("alpha_list", require_alpha), ("epsilon_list", require_epsilon)):
            values = getattr(self, name)
            try:
                values = tuple(values)
            except TypeError:
                raise TypeError(f"{name} must be a sequence of real numbers, "
                                f"got {_shown(values)}") from None
            if not values:
                raise ConfigError(f"{name} must hold at least one value")
            # -0.0 + 0.0 is +0.0: a signed zero would be a second file tag
            # ("m0") for the same physics
            object.__setattr__(self, name, tuple(rule(f"{name} value", v) + 0.0 for v in values))
        require_positive("T_max", self.T_max)
        require_positive("zero_threshold", self.zero_threshold)
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise TypeError(f"output_dir must be a str or os.PathLike, "
                            f"got {_shown(self.output_dir)}")
        require_instance("emit_svg", self.emit_svg, bool)
        if not 2 <= require_integer("n_points", self.n_points) <= MAX_N_POINTS:
            raise ConfigError(f"n_points must lie in [2, {MAX_N_POINTS}], "
                              f"got {_shown(self.n_points)}")
        try:
            require_grid(self.grid)
        except ValueError:
            raise ConfigError(f"T_max = {_shown(self.T_max)} and n_points = "
                              f"{self.n_points} give a time grid that is not strictly "
                              "ascending") from None
        require_instance("path", self.path, TracePath)
        for name in ("alpha_list", "epsilon_list"):
            seen: dict[str, float] = {}
            for value in getattr(self, name):
                tag = file_tag(value)
                if tag in seen:
                    raise ConfigError(f"{name} values {seen[tag]!r} and {value!r} share the "
                                      f"file tag {tag!r}, so their output files would collide")
                seen[tag] = value

    @functools.cached_property
    def grid(self) -> np.ndarray:
        """The time grid, ``np.linspace(0.0, T_max, n_points)``, read-only."""
        grid = np.linspace(0.0, self.T_max, self.n_points)
        grid.flags.writeable = False
        return grid


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {_shown(value)}")


#: config key -> (RunConfig field, parser of the value text)
_PARSERS = {
    "family": ("family", lambda v: Family(v.upper())),
    "alpha": ("alpha_list", lambda v: tuple(parse_angle(t) for t in v.split(","))),
    "epsilon": ("epsilon_list", lambda v: tuple(float(t) for t in v.split(","))),
    "T_max": ("T_max", float),
    "n_points": ("n_points", int),
    "path": ("path", lambda v: TracePath(v.upper())),
    "output_dir": ("output_dir", str),
    "emit_svg": ("emit_svg", _parse_bool),
    "zero_threshold": ("zero_threshold", float),
}


def parse_config(text: str, **overrides) -> RunConfig:
    """Parse config text into a validated RunConfig.

    Unknown keys and malformed lines are rejected with their line number.
    Keyword ``overrides`` take precedence over the file contents.  A
    ``text`` that is not a str raises ``TypeError``.
    """
    require_instance("text", text, str)
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {_shown(raw)}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        name, parse = _PARSERS[key]
        try:
            values[name] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for key {key!r}: {exc}") from None
    values.update(overrides)
    try:
        return RunConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{exc} (from config keys {sorted(values)})") from None
