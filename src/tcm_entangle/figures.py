"""Dataset emission: concurrence-curve CSVs, interval tables and SVG overlays.

CSV conventions are frozen for golden-file regression: header row, LF line
endings, `.` decimal separator, 15 significant digits.  Output is fully
deterministic for a fixed configuration.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import analysis, svgplot
from .analysis import TracePath
from .config import RunConfig
from .model import Family, InitialStateSpec, ModelParams

#: alpha values plotted by default; chosen here, not prescribed upstream
FIGURE_ALPHAS = (math.pi / 12, math.pi / 8, math.pi / 4)
FIGURE_EPSILONS = (0.0, 2.0)

TRACE_AGREEMENT_TOL = 1e-9


def fmt(value: float) -> str:
    """Decimal text at 15 significant digits."""
    return format(float(value), ".15g")


def _tag(value: float) -> str:
    return fmt(value).replace("-", "m").replace(".", "p")


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """Header row, then one row per index of the equal-length ``columns``."""
    row_format = ",".join(["%.15g"] * len(columns))
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    lines = [",".join(header)] + [row_format % row for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


class TraceDisagreement(ValueError):
    """The analytic and oracle traces of a BOTH run differ beyond tolerance."""


def _traces(config: RunConfig, alpha: float, epsilon: float):
    """Trace on the config grid; with path BOTH the two paths are checked
    against each other and the analytic result is emitted."""
    spec = InitialStateSpec(family=config.family, alpha=alpha)
    params = ModelParams.from_dimensionless(epsilon=epsilon)
    grid = np.linspace(0.0, config.T_max, config.n_points)
    if config.path == "ORACLE":
        return analysis.concurrence_trace(spec, params, grid, TracePath.ORACLE)
    trace = analysis.concurrence_trace(spec, params, grid, TracePath.ANALYTIC)
    if config.path == "BOTH":
        oracle = analysis.concurrence_trace(spec, params, grid, TracePath.ORACLE)
        gaps = np.abs(trace.C - oracle.C)
        worst = int(np.argmax(gaps))
        if gaps[worst] > TRACE_AGREEMENT_TOL:
            raise TraceDisagreement(
                f"analytic/oracle traces disagree by {gaps[worst]:.3e} "
                f"(tolerance {TRACE_AGREEMENT_TOL:.0e}) at alpha = {fmt(alpha)}, "
                f"epsilon = {fmt(epsilon)}, T = {fmt(grid[worst])}")
    return trace


def _write_metadata(out: Path, config: RunConfig, note: str):
    lines = [
        note,
        f"family = {config.family.value}",
        "alpha_list = " + ", ".join(fmt(a) for a in config.alpha_list),
        "epsilon_list = " + ", ".join(fmt(e) for e in config.epsilon_list),
        f"T_max = {fmt(config.T_max)}",
        f"n_points = {config.n_points}",
        f"path = {config.path}",
        f"zero_threshold = {fmt(config.zero_threshold)}",
    ]
    (out / "run_metadata.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(config: RunConfig) -> list[Path]:
    """Curve CSVs per (alpha, epsilon), SVG overlays and run metadata.

    PSI writes ``fig1_*`` files with columns T, C, signed_C, x1_abs, x2_abs,
    x3_abs.  PHI writes ``fig2_*`` files with columns T, C, x1_abs, x2_abs,
    x3_abs, x5_abs, in_death_window, plus intervals.csv of death windows
    with columns alpha, epsilon, T_start, T_end, length, refined.
    """
    psi_family = config.family is Family.PSI
    prefix = "fig1" if psi_family else "fig2"
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    interval_rows = []
    for eps in config.epsilon_list:
        curves = []
        for alpha in config.alpha_list:
            trace = _traces(config, alpha, eps)
            amps = list(trace.abs_amplitudes.T)
            if psi_family:
                header = ["T", "C", "signed_C", "x1_abs", "x2_abs", "x3_abs"]
                columns = [trace.T_grid, trace.C, trace.signed_C, *amps]
            else:
                in_window = np.zeros(trace.T_grid.size)
                for iv in analysis.detect_death_intervals(trace, config.zero_threshold):
                    in_window[(trace.T_grid >= iv.T_start) & (trace.T_grid <= iv.T_end)] = 1.0
                    interval_rows.append((alpha, eps, iv.T_start, iv.T_end,
                                          iv.length, float(iv.refined)))
                header = ["T", "C", "x1_abs", "x2_abs", "x3_abs", "x5_abs",
                          "in_death_window"]
                columns = [trace.T_grid, trace.C, *amps[:3], amps[4], in_window]
            path = out / f"{prefix}_alpha{_tag(alpha)}_eps{_tag(eps)}.csv"
            write_csv(path, header, columns)
            written.append(path)
            curves.append((f"alpha = {alpha:.4f}", trace.T_grid, trace.C))
        if config.emit_svg:
            svg = svgplot.line_chart(curves, title=f"Atom-atom concurrence, eps = {eps:g}",
                                     xlabel="T = g t", ylabel="C")
            svg_path = out / f"{prefix}_eps{_tag(eps)}.svg"
            svg_path.write_text(svg, encoding="utf-8")
            written.append(svg_path)

    if not psi_family:
        intervals_path = out / "intervals.csv"
        write_csv(intervals_path, ["alpha", "epsilon", "T_start", "T_end", "length", "refined"],
                  list(np.array(interval_rows, dtype=float).reshape(-1, 6).T))
        written.append(intervals_path)
    _write_metadata(out, config, f"{prefix} dataset; alpha values are a library default choice")
    return written
