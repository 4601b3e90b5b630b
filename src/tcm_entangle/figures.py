"""Dataset emission: concurrence-curve CSVs, interval tables and SVG overlays.

CSV conventions are frozen for golden-file regression: header row, LF line
endings, `.` decimal separator, 15 significant digits.  Output is fully
deterministic for a fixed configuration.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import analysis, numtext, svgplot
from .config import NUMBER_FORMAT, RunConfig, file_tag, fmt
from .model import Family, InitialStateSpec, ModelParams

#: alpha values plotted by default; chosen here, not prescribed upstream
FIGURE_ALPHAS = (math.pi / 12, math.pi / 8, math.pi / 4)
FIGURE_EPSILONS = (0.0, 2.0)


def format_column(values) -> list[str]:
    """`fmt` of each value, in one pass.  A column that several
    files share is formatted once and handed to `write_csv` as text."""
    return [NUMBER_FORMAT % v for v in np.asarray(values, dtype=float).tolist()]


#: the text before the significand of a number in [1e-4, 1), by decimal
#: exponent -1 .. -4, then negated; index 0 is a number that %.15g writes
_PREFIX = np.array([b"", b"0.", b"0.0", b"0.00", b"0.000",
                    b"-0.", b"-0.0", b"-0.00", b"-0.000"], dtype="S8").view(np.uint64)
#: 10^(14 - X) for decimal exponents X = -1 .. -4, each exact in a double
_SCALES = 10.0 ** np.arange(15, 19)
#: the four digits of 0 .. 9999
_DIGITS4 = numtext.words([numtext.digits(4)])
#: the last three digits of a significand, its last one NUL if it is a
#: dropped 0, and the end of the cell, for a column ending in "," and the last
_TAIL = {end: numtext.words([numtext.digits(3)[:, :2],
                             np.tile(np.r_[0, 49:58].astype(np.uint8), 100),
                             np.full(1000, ord(end), np.uint8)])
         for end in (",", "\n")}


def _number_cells(values: np.ndarray):
    """`_PREFIX` index and 15-digit significand r of each number in ``values``.

    A number v with 1e-4 <= |v| < 1 whose 15-digit significand r fits the
    decimal exponent X and does not end in 00 gets the index of X and the
    sign, and r = |v| 10^(14-X) rounded half to even (`numtext.rint_product`);
    every other number gets index 0 and r = 0.  Numbers out of range are
    replaced by 0.5 before any arithmetic, so nothing overflows or underflows."""
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1.0)
    a = np.where(fast, a, 0.5)
    exp10 = np.clip(np.floor(np.log10(a)), -4, -1).astype(np.intp)
    r = numtext.rint_product(a, _SCALES[-1 - exp10])
    hundreds = r / 100.0   # an integer only where r is, as r < 2^53
    fast &= (r >= 1e14) & (r < 1e15) & (hundreds != np.floor(hundreds))
    return np.where(fast, 4 * (values < 0) - exp10, 0), np.where(fast, r, 0.0)


def _number_column(values: np.ndarray, end: str):
    """(slot width, fill) of a number column, for `numtext.rows_text`.

    A slot of 24 bytes holds the prefix, the 15 digits of r from
    `_number_cells` (the last one NUL where it is the 0 that %.15g drops)
    and ``end``.  r < 10^15 < 2^53 is an integer, so its digit groups come
    from exact float steps: r / 10^7 < 10^8 is an integer or at least
    10^-7 from one, far more than its rounding error (< 10^-8), and the
    same holds for the smaller quotients by 10^4 and 10^3.  Numbers with
    index 0 are %.15g text."""
    index, r = _number_cells(values)
    slow = (index == 0).nonzero()[0]
    texts = numtext.utf8([NUMBER_FORMAT % v for v in values[slow].tolist()])

    def fill(slots):
        top = np.floor(r / 1e7)   # r = 10^7 top + low: 8 digits, then 7
        low = r - 1e7 * top
        high4, mid4 = np.floor(top / 1e4), np.floor(low / 1e3)
        slots[:, :8].view(np.uint64)[:, 0] = _PREFIX[index]
        word = slots[:, :24].view(np.uint32)
        word[:, 2] = _DIGITS4[high4.astype(np.intp)]
        word[:, 3] = _DIGITS4[(top - 1e4 * high4).astype(np.intp)]
        word[:, 4] = _DIGITS4[mid4.astype(np.intp)]
        word[:, 5] = _TAIL[end][(low - 1e3 * mid4).astype(np.intp)]
        slots[slow] = 0
        numtext.put_text(slots, slow, texts, end)

    return max(24, numtext.slot_width(texts)), fill


#: the text of a 0/1 flag, as `fmt` writes 0 and 1
_FLAG_TEXT = np.array(format_column((0.0, 1.0)), dtype=object)


def _flag_column(mask) -> list[str]:
    """The 0/1 cells of a boolean mask, as `format_column` writes 0.0 and
    1.0, for `write_csv` to take as text."""
    return _FLAG_TEXT[np.asarray(mask, dtype=bool).astype(np.intp)].tolist()


def _plain(cells) -> bool:
    """Whether ``cells`` are all str without NUL, which text slots hold."""
    try:
        return "\0" not in "".join(cells)
    except TypeError:
        return False


def write_csv(path: Path, header: list[str], columns: list):
    """Header row, then one row per index of the equal-length ``columns``.

    A column is numbers, written as `fmt` writes them, or the strings
    of `format_column` (or of `_flag_column`).  A ``ValueError`` names
    ``header`` when it does not name every column, and ``columns`` when
    there are none or their lengths differ.

    The body is built as bytes, `numtext.BLOCK_ROWS` rows at a time: each
    cell gets a slot (`_number_column`, `numtext.text_column`) and the rows
    are the slots' nonzero bytes.  `fmt` of a number v with 1e-4 <= |v| < 1
    and decimal exponent X is "0." and -X-1 zeros, then the 15-digit
    significand r = |v| 10^(14-X) rounded half to even, less its trailing
    zeros.  Where r fits X and ends in at most one zero, its slot is filled
    with those bytes from digit tables, not by CPython's %.15g, which takes
    its slow bignum route for each such number.  Every other number is
    %.15g text.  A block whose text cells are not all str without NUL is
    written row by row with `format_column` and str."""
    if len(header) != len(columns):
        raise ValueError(f"header must name each of the {len(columns)} columns, "
                         f"got {len(header)} names")
    if not columns:
        raise ValueError("columns must hold at least one column, got none")
    n, k = len(columns[0]), len(columns)
    if any(len(column) != n for column in columns):
        raise ValueError(f"columns must have equal lengths, got {[len(c) for c in columns]}")
    ends = [","] * (k - 1) + ["\n"]
    text = [n > 0 and isinstance(column[0], str) for column in columns]
    columns = [c if t else np.asarray(c, dtype=float) for c, t in zip(columns, text)]
    with path.open("wb") as out:
        out.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, n, numtext.BLOCK_ROWS):
            block = [column[start:start + numtext.BLOCK_ROWS] for column in columns]
            if all(_plain(cells) for cells, t in zip(block, text) if t):
                out.writelines(numtext.rows_text(
                    [numtext.text_column(cells, end) if t else _number_column(cells, end)
                     for cells, t, end in zip(block, text, ends)], len(block[0])))
            else:
                cells = [map(str, c) if t else format_column(c) for c, t in zip(block, text)]
                out.write("".join(",".join(row) + "\n" for row in zip(*cells)).encode("utf-8"))


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
    with columns alpha, epsilon, T_start, T_end, length, refined.  A
    ``config`` that is not a ``RunConfig`` raises ``TypeError``.
    """
    if not isinstance(config, RunConfig):
        raise TypeError(f"config must be a RunConfig, got {config!r}")
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
