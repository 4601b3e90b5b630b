"""Line-oriented `key = value` run configuration.

Format: UTF-8 text, one `key = value` per line, `#` starts a comment,
lists are comma-separated.  Angles accept literal multiples of pi
(`pi`, `pi/8`, `3*pi/16`) as well as plain decimals, so grid angles like
pi/8 carry no decimal drift.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .model import Family

DEFAULT_T_MAX = 20.0
DEFAULT_N_POINTS = 2000
DEFAULT_ZERO_THRESHOLD = 1e-9

_PI_RE = re.compile(r"^(?:(\d+(?:\.\d+)?)\s*\*\s*)?pi(?:\s*/\s*(\d+(?:\.\d+)?))?$")


class ConfigError(ValueError):
    """Malformed, unknown or out-of-range configuration input."""


def parse_angle(token: str) -> float:
    """Parse a decimal or a pi-expression like `pi/8` or `3*pi/16`."""
    token = token.strip()
    m = _PI_RE.match(token)
    if m:
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
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
    path: str = "ANALYTIC"   # ANALYTIC | ORACLE | BOTH
    output_dir: str = "out"
    emit_svg: bool = False
    zero_threshold: float = DEFAULT_ZERO_THRESHOLD

    def __post_init__(self):
        for name in ("T_max", "zero_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_points < 2:
            raise ConfigError(f"n_points must be >= 2, got {self.n_points}")
        if self.T_max <= 0:
            raise ConfigError(f"T_max must be positive, got {self.T_max}")
        if self.path not in ("ANALYTIC", "ORACLE", "BOTH"):
            raise ConfigError(f"path must be ANALYTIC, ORACLE or BOTH, got {self.path!r}")
        if self.zero_threshold <= 0:
            raise ConfigError("zero_threshold must be positive")
        for a in self.alpha_list:
            if not 0.0 <= a <= math.pi / 2:
                raise ConfigError(f"alpha value {a} outside [0, pi/2]")
        for e in self.epsilon_list:
            if not math.isfinite(e):
                raise ConfigError(f"epsilon value {e} must be finite")
            if e < 0:
                raise ConfigError(f"epsilon value {e} must be >= 0")


def _parse_bool(value: str, key: str, lineno: int) -> bool:
    v = value.strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ConfigError(f"line {lineno}: key {key!r} expects a boolean, got {value!r}")


def parse_config(text: str, **overrides) -> RunConfig:
    """Parse config text into a validated RunConfig.

    Unknown keys and malformed lines are rejected with their line number.
    Keyword ``overrides`` take precedence over the file contents.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key == "family":
                values["family"] = Family(value.upper())
            elif key == "alpha":
                values["alpha_list"] = tuple(parse_angle(t) for t in value.split(","))
            elif key == "epsilon":
                values["epsilon_list"] = tuple(float(t) for t in value.split(","))
            elif key == "T_max":
                values["T_max"] = float(value)
            elif key == "n_points":
                values["n_points"] = int(value)
            elif key == "path":
                values["path"] = value.upper()
            elif key == "output_dir":
                values["output_dir"] = value
            elif key == "emit_svg":
                values["emit_svg"] = _parse_bool(value, key, lineno)
            elif key == "zero_threshold":
                values["zero_threshold"] = float(value)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for key {key!r}: {exc}") from None
    values.update(overrides)
    try:
        return RunConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{exc} (from config keys {sorted(values)})") from None
