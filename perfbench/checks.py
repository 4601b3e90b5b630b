"""Output checks made from outside the package.

Every check returns a list of problems; an empty list means the output is
correct.  The identities tie each CSV row's concurrence to its own amplitude
columns (X-state form of the Wootters concurrence, Wootters, PRL 80, 2245
(1998)), so a row is checked without trusting the code that wrote it.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

from tracer import VERIFY_SUITES

IDENTITY_TOL = 1e-12

PSI_HEADER = ["T", "C", "signed_C", "x1_abs", "x2_abs", "x3_abs"]
PHI_HEADER = ["T", "C", "x1_abs", "x2_abs", "x3_abs", "x5_abs", "in_death_window"]
INTERVALS_HEADER = ["alpha", "epsilon", "T_start", "T_end", "length", "refined"]


def parse_csv(data: bytes):
    """(header, rows x columns float array) of a CSV written by the package."""
    text = data.decode("utf-8")
    if not text.endswith("\n") or "\r" in text:
        raise ValueError("not LF-terminated")
    lines = text[:-1].split("\n")
    header = lines[0].split(",")
    if len(lines) == 1:
        return header, np.empty((0, len(header)))
    cells = ",".join(lines[1:]).split(",")
    if len(cells) != len(header) * (len(lines) - 1):
        raise ValueError("ragged rows")
    return header, np.array(cells, dtype=float).reshape(len(lines) - 1, len(header))


def identity_problems(family: str, C, amps) -> list[str]:
    """Check C and the |x_i| columns against the family's identities.

    PSI: C = 2 x1 x2 and x1^2 + x2^2 + x3^2 = 1.
    PHI: C = 2 max(0, x3^2 - x1 sqrt(x2^2 + x5^2), x1 x2 - x3^2) and
    x1^2 + x2^2 + 2 x3^2 + x5^2 = 1, with (x1, x2, x3, x5) the |x_i|.
    """
    if family == "PSI":
        x1, x2, x3 = amps
        expect = 2.0 * x1 * x2
        norm = x1 ** 2 + x2 ** 2 + x3 ** 2
    else:
        x1, x2, x3, x5 = amps
        expect = 2.0 * np.maximum(0.0, np.maximum(x3 ** 2 - x1 * np.sqrt(x2 ** 2 + x5 ** 2),
                                                  x1 * x2 - x3 ** 2))
        norm = x1 ** 2 + x2 ** 2 + 2.0 * x3 ** 2 + x5 ** 2
    problems = []
    c_err = float(np.max(np.abs(C - expect), initial=0.0))
    n_err = float(np.max(np.abs(norm - 1.0), initial=0.0))
    if not c_err <= IDENTITY_TOL:
        problems.append(f"{family} concurrence identity off by {c_err:.3e}")
    if not n_err <= IDENTITY_TOL:
        problems.append(f"{family} normalisation off by {n_err:.3e}")
    return problems


def _grid_problems(T, T_max: float, n_points: int) -> list[str]:
    if T.size != n_points:
        return [f"{T.size} rows, expected {n_points}"]
    if T[0] != 0.0 or abs(T[-1] - T_max) > 1e-12 * T_max or np.any(np.diff(T) <= 0):
        return ["time column is not the ascending grid [0, T_max]"]
    return []


def _curve_problems(header, data, inputs) -> list[str]:
    family = inputs["family"]
    expected = PSI_HEADER if family == "PSI" else PHI_HEADER
    if header != expected:
        return [f"header {header}, expected {expected}"]
    col = {name: data[:, j] for j, name in enumerate(header)}
    problems = _grid_problems(col["T"], inputs["T_max"], inputs["n_points"])
    amp_names = ("x1_abs", "x2_abs", "x3_abs") if family == "PSI" else \
        ("x1_abs", "x2_abs", "x3_abs", "x5_abs")
    problems += identity_problems(family, col["C"], [col[n] for n in amp_names])
    if family == "PHI" and not np.all(np.isin(col["in_death_window"], (0.0, 1.0))):
        problems.append("in_death_window is not 0/1")
    return problems


def _interval_problems(data, inputs) -> list[str]:
    problems = []
    for alpha, eps, t0, t1, length, refined in data:
        if not 0.0 <= t0 < t1 <= inputs["T_max"]:
            problems.append(f"interval [{t0}, {t1}] outside 0 <= T_start < T_end <= T_max")
        if abs(length - (t1 - t0)) > IDENTITY_TOL:
            problems.append(f"interval length {length} != T_end - T_start")
        if refined not in (0.0, 1.0):
            problems.append(f"refined flag {refined} is not 0/1")
        if not (any(math.isclose(alpha, a, rel_tol=1e-14) for a in inputs["alpha"])
                and any(math.isclose(eps, e, abs_tol=1e-14) for e in inputs["epsilon"])):
            problems.append(f"interval row for unknown (alpha, epsilon) = ({alpha}, {eps})")
    return problems


def check_figure_outputs(outputs: dict[str, bytes], inputs: dict) -> list[str]:
    """Checks for the files of ``fig2`` and ``sweep``."""
    problems = []
    n_curves = len(inputs["alpha"]) * len(inputs["epsilon"])
    curves = [n for n in outputs if n.endswith(".csv") and n != "intervals.csv"]
    if len(curves) != n_curves:
        problems.append(f"{len(curves)} curve CSVs, expected {n_curves}")
    csvs = curves + (["intervals.csv"] if inputs["family"] == "PHI" else [])
    for name in csvs:
        if name not in outputs:
            problems.append(f"{name} missing")
            continue
        try:
            header, data = parse_csv(outputs[name])
        except ValueError as exc:
            problems.append(f"{name}: unparseable ({exc})")
            continue
        if not np.all(np.isfinite(data)):
            problems.append(f"{name}: NaN or inf value")
            continue
        if name == "intervals.csv":
            if header != INTERVALS_HEADER:
                problems.append(f"{name}: header {header}")
            else:
                problems += [f"{name}: {p}" for p in _interval_problems(data, inputs)]
        else:
            problems += [f"{name}: {p}" for p in _curve_problems(header, data, inputs)]
    svgs = [n for n in outputs if n.endswith(".svg")]
    if inputs.get("svg") and len(svgs) != len(inputs["epsilon"]):
        problems.append(f"{len(svgs)} SVG files, expected {len(inputs['epsilon'])}")
    for name in svgs:
        try:
            root = ET.fromstring(outputs[name])
        except ET.ParseError as exc:
            problems.append(f"{name}: not well-formed ({exc})")
            continue
        lines = root.findall("{http://www.w3.org/2000/svg}polyline")
        if len(lines) != len(inputs["alpha"]):
            problems.append(f"{name}: {len(lines)} curves, expected {len(inputs['alpha'])}")
    return problems


def check_verify(outputs: dict[str, bytes], inputs: dict) -> list[str]:
    lines = outputs["<stdout>"].decode("utf-8").splitlines()
    problems = [f"suite not passed: {line}" for line in lines if not line.endswith(",PASS")]
    if len(lines) != len(VERIFY_SUITES):
        problems.append(f"{len(lines)} suite lines, expected {len(VERIFY_SUITES)}")
    return problems


def check_scan(rows, inputs: dict) -> list[str]:
    """Checks for the library scan: traces, windows, maxima and periods."""
    problems = []
    expected = 2 * len(inputs["alpha"]) * len(inputs["epsilon"])
    if len(rows) != expected:
        problems.append(f"{len(rows)} scanned traces, expected {expected}")
    T_max = inputs["T_max"]
    for family, alpha, eps, trace, windows, c_max, t_max, period in rows:
        where = f"{family} alpha={alpha:.6g} eps={eps:.6g}"
        cols = (0, 1, 2) if family == "PSI" else (0, 1, 2, 4)
        amps = [trace.abs_amplitudes[:, j] for j in cols]
        values = np.concatenate([trace.C, trace.abs_amplitudes.ravel(),
                                 [c_max, t_max, period]])
        if not np.all(np.isfinite(values)):
            problems.append(f"{where}: NaN or inf value")
            continue
        problems += [f"{where}: {p}" for p in
                     _grid_problems(trace.T_grid, T_max, inputs["n_points"])
                     + identity_problems(family, trace.C, amps)]
        for w in windows:
            if not 0.0 <= w.T_start < w.T_end <= T_max:
                problems.append(f"{where}: window [{w.T_start}, {w.T_end}] out of range")
        if not (float(np.max(trace.C)) <= c_max <= 1.0 + IDENTITY_TOL and 0.0 <= t_max <= T_max):
            problems.append(f"{where}: maximum ({c_max}, {t_max}) inconsistent with trace")
        if not 0.0 < period < T_max:
            problems.append(f"{where}: period {period} out of range")
    return problems
