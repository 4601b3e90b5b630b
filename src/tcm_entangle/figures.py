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
from .config import NUMBER_FORMAT, RunConfig, file_tag, fmt
from .model import Family, InitialStateSpec, ModelParams

#: alpha values plotted by default; chosen here, not prescribed upstream
FIGURE_ALPHAS = (math.pi / 12, math.pi / 8, math.pi / 4)
FIGURE_EPSILONS = (0.0, 2.0)


def format_column(values) -> list[str]:
    """`fmt` of each value, in one pass.  A column that several
    files share is formatted once and handed to `write_csv` as text."""
    return [NUMBER_FORMAT % v for v in np.asarray(values, dtype=float).tolist()]


#: the spec of a number in [1e-4, 1) written from its integer significand,
#: by decimal exponent -1 .. -4, then negated; index 0 formats the float
_SPECS = (NUMBER_FORMAT, "0.%d", "0.0%d", "0.00%d", "0.000%d",
          "-0.%d", "-0.0%d", "-0.00%d", "-0.000%d")
#: 10^(14 - X) for decimal exponents X = -1 .. -4, each exact in a double
_SCALES = 10.0 ** np.arange(15, 19)


def _split(a):
    """Veltkamp's split a = hi + lo, each part with at most 26 significant bits."""
    c = 134217729.0 * a   # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_SCALES_HI, _SCALES_LO = _split(_SCALES)


def _number_cells(values: np.ndarray):
    """`_SPECS` index and %-argument of each number in ``values``.

    A number v with 1e-4 <= |v| < 1 whose 15-digit significand r fits the
    decimal exponent X and does not end in 00 gets the spec of X and the
    integer r (one trailing zero dropped); every other number gets spec 0
    and itself.  Numbers out of range are replaced by 0.5 before any
    arithmetic, so nothing overflows or underflows.

    r is rint(hi) for the rounded product hi = |v| 10^(14-X), corrected by
    Dekker's low part lo only where hi is a tie (|hi - rint(hi)| = 0.5).
    Elsewhere hi - rint(hi) is a multiple of ulp(hi) < 1, so it is at most
    0.5 - ulp(hi) in size, and |lo| <= ulp(hi)/2 keeps the exact product
    hi + lo nearer rint(hi) than any other integer."""
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1.0)
    a = np.where(fast, a, 0.5)
    exp10 = np.clip(np.floor(np.log10(a)), -4, -1).astype(np.intp)
    i = -1 - exp10
    hi = a * _SCALES[i]
    r = np.rint(hi)
    half = hi - r
    tie = (np.abs(half) == 0.5).nonzero()[0]
    if tie.size:
        a_hi, a_lo = _split(a[tie])
        p_hi, p_lo = _SCALES_HI[i[tie]], _SCALES_LO[i[tie]]
        lo = ((a_hi * p_hi - hi[tie]) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
        r[tie] += np.where(lo * half[tie] > 0, 2.0 * half[tie], 0.0)
    digits = r.astype(np.int64)
    digits = np.where(digits % 10 == 0, digits // 10, digits)
    fast &= (r >= 1e14) & (r < 1e15) & (digits % 10 != 0)
    args = digits.tolist()
    slow = (~fast).nonzero()[0]
    for k, v in zip(slow.tolist(), values[slow].tolist()):
        args[k] = v
    return np.where(fast, 4 * (values < 0) - exp10, 0), args


#: the row of `_SPECS` for a column ending in "," and for the last column
_SPEC_ROWS = {end: np.array([s + end for s in _SPECS], dtype=object) for end in (",", "\n")}
#: the text of a 0/1 flag, as `fmt` writes 0 and 1
_FLAG_TEXT = np.array(format_column((0.0, 1.0)), dtype=object)


def _flag_column(mask) -> list[str]:
    """The 0/1 cells of a boolean mask, as `format_column` writes 0.0 and
    1.0, for `write_csv` to take as text."""
    return _FLAG_TEXT[np.asarray(mask, dtype=bool).astype(np.intp)].tolist()


def write_csv(path: Path, header: list[str], columns: list):
    """Header row, then one row per index of the equal-length ``columns``.

    A column is numbers, written as `fmt` writes them, or the strings
    of `format_column` (or of `_flag_column`).  The whole body is formatted
    in one %-call.  A ``ValueError`` names ``header`` when it does not
    name every column, and ``columns`` when there are none or their
    lengths differ.

    `fmt` of a number v with 1e-4 <= |v| < 1 and decimal exponent X is
    "0." and -X-1 zeros, then the 15-digit significand r = |v| 10^(14-X)
    rounded half to even, less its trailing zeros.  CPython's %.15g takes
    its slow bignum route for each such number, so where r fits X and ends
    in at most one zero the cell is written as ``"0.0%d" % r`` (one zero
    dropped) and the like, with the same bytes.  r is exact: the rounded
    product hi rounds to r unless hi is a tie, and only there is Dekker's
    product (T. J. Dekker, Numer. Math. 18, 224-242, 1971) on Veltkamp
    splits computed, hi + lo = |v| 10^(14-X) exactly, whose low part lo
    settles the tie.  Every other number is written by %.15g as before."""
    if len(header) != len(columns):
        raise ValueError(f"header must name each of the {len(columns)} columns, "
                         f"got {len(header)} names")
    if not columns:
        raise ValueError("columns must hold at least one column, got none")
    n, k = len(columns[0]), len(columns)
    if any(len(column) != n for column in columns):
        raise ValueError(f"columns must have equal lengths, got {[len(c) for c in columns]}")
    specs, cells = [None] * (n * k), [None] * (n * k)
    for j, column in enumerate(columns):
        end = "," if j < k - 1 else "\n"
        if len(column) > 0 and isinstance(column[0], str):
            specs[j::k] = ["%s" + end] * n
            cells[j::k] = column
        else:
            index, cells[j::k] = _number_cells(np.asarray(column, dtype=float))
            specs[j::k] = _SPEC_ROWS[end][index].tolist()
    body = "".join(specs) % tuple(cells)
    path.write_text(",".join(header) + "\n" + body, encoding="utf-8", newline="\n")


def _write_metadata(out: Path, config: RunConfig, note: str):
    lines = [
        note,
        f"family = {config.family.value}",
        "alpha_list = " + ", ".join(fmt(a) for a in config.alpha_list),
        "epsilon_list = " + ", ".join(fmt(e) for e in config.epsilon_list),
        f"T_max = {fmt(config.T_max)}",
        f"n_points = {config.n_points}",
        f"path = {config.path.value}",
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
    interval_rows, refined = [], []
    grid = np.linspace(0.0, config.T_max, config.n_points)
    T_text = format_column(grid)
    for eps in config.epsilon_list:
        params = ModelParams(epsilon=eps)
        traces = [analysis.concurrence_trace(InitialStateSpec(config.family, alpha), params,
                                             grid, config.path)
                  for alpha in config.alpha_list]
        windows = ([None] * len(traces) if psi_family
                   else analysis.death_windows(traces, config.zero_threshold))
        curves = []
        for alpha, trace, trace_windows in zip(config.alpha_list, traces, windows):
            amps = list(trace.abs_amplitudes.T)
            if psi_family:
                header = ["T", "C", "signed_C", "x1_abs", "x2_abs", "x3_abs"]
                columns = [T_text, trace.C, trace.signed_C, *amps]
            else:
                in_window = np.zeros(grid.size, dtype=bool)
                for iv in trace_windows:
                    in_window[np.searchsorted(grid, iv.T_start, "left"):
                              np.searchsorted(grid, iv.T_end, "right")] = True
                    interval_rows.append((alpha, eps, iv.T_start, iv.T_end, iv.length))
                    refined.append(iv.refined)
                header = ["T", "C", "x1_abs", "x2_abs", "x3_abs", "x5_abs",
                          "in_death_window"]
                columns = [T_text, trace.C, *amps[:3], amps[4], _flag_column(in_window)]
            path = out / f"{prefix}_alpha{file_tag(alpha)}_eps{file_tag(eps)}.csv"
            write_csv(path, header, columns)
            written.append(path)
            curves.append((f"alpha = {alpha:.4f}", trace.T_grid, trace.C))
        if config.emit_svg:
            svg = svgplot.line_chart(curves, title=f"Atom-atom concurrence, eps = {eps:g}",
                                     xlabel="T = g t", ylabel="C")
            svg_path = out / f"{prefix}_eps{file_tag(eps)}.svg"
            svg_path.write_text(svg, encoding="utf-8")
            written.append(svg_path)

    if not psi_family:
        intervals_path = out / "intervals.csv"
        write_csv(intervals_path, ["alpha", "epsilon", "T_start", "T_end", "length", "refined"],
                  [*np.array(interval_rows, dtype=float).reshape(-1, 5).T,
                   _flag_column(refined)])
        written.append(intervals_path)
    _write_metadata(out, config, f"{prefix} dataset; alpha values are a library default choice")
    return written
