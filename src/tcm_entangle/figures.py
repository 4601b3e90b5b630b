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
from .model import Family, InitialStateSpec, ModelParams, require_instance

#: alpha values plotted by default; chosen here, not prescribed upstream
FIGURE_ALPHAS = (math.pi / 12, math.pi / 8, math.pi / 4)
FIGURE_EPSILONS = (0.0, 2.0)


#: kinds of number, the `_number_cells` index // 2 (its low bit is the
#: sign): 0 is a number that %.15g writes, 1 is 0, and k = X + 6 a number
#: of decimal exponent -4 <= X <= 14; by index, the text before its digits
_KINDS = [b"", b"0", b"0.000", b"0.00", b"0.0", b"0."] + [b""] * 15
_PREFIX = np.array([sign + text for text in _KINDS for sign in (b"", b"-")],
                   dtype="S8").view(np.uint64)
#: by index, r = SPLIT q + f splits the significand r into the integer part
#: q and the fraction f, whose digits f SHIFT take the place of r's after a
#: 0; by X + 5, 10^(14 - X).  Powers of ten up to 10^22 are exact doubles.
#: The tables are built in Python: each numpy operation first run at
#: import added to the peak RSS of every command
_SPLIT = np.array([10.0 ** min(20 - k, 15) for k in range(21) for _ in "+-"])
_SHIFT = np.array([10.0 ** max(k - 6, 0) for k in range(21) for _ in "+-"])
_SCALES = np.array([10.0 ** (19 - i) for i in range(20)])
#: the last three digits of a significand, their trailing zeros NUL, and
#: the end of the cell, for a column ending in "," and the last
_TAIL3 = numtext.digits(3)
_TAIL3[::10, 2] = _TAIL3[::100, 1] = _TAIL3[0, 0] = 0
_TAIL = {end: numtext.words([_TAIL3, np.full(1000, ord(end), np.uint8)]) for end in (",", "\n")}


def _number_cells(values: np.ndarray):
    """`_PREFIX` index and 15-digit significand r of each number in ``values``.

    A number v with 1e-4 <= |v| < 1e15 and decimal exponent X (that of |v|
    rounded to 15 digits) gets r = |v| 10^(14-X) rounded half to even
    (`numtext.rint_product`) and the index 2 (X + 6) + sign.  X is that of
    log10, less one where r would be 10^14 but is below 10^15 at X - 1,
    and plus one where r rounds up to 10^15.  A zero gets the index 2 +
    sign, every other number the index 0, and both r = 0.  Numbers out of
    range are replaced by 0.5 before any arithmetic, so nothing overflows
    or underflows."""
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e15)
    a = np.where(fast, a, 0.5)
    exp10 = np.clip(np.floor(np.log10(a)), -4, 14).astype(np.intp)
    r = numtext.rint_product(a, _SCALES[exp10 + 5])
    low = (r <= 1e14).nonzero()[0]   # log10 of 99999.9999999999 rounds to 5
    if low.size:
        lower = numtext.rint_product(a[low], _SCALES[exp10[low] + 4])   # r at X - 1
        fits = lower < 1e15
        r[low[fits]], exp10[low[fits]] = lower[fits], exp10[low[fits]] - 1
    carry = (r == 1e15).nonzero()[0]
    r[carry], exp10[carry] = 1e14, exp10[carry] + 1
    fast &= exp10 <= 14
    sign = np.signbit(values)
    index = 2 * exp10 + 12 + sign
    other = (~fast).nonzero()[0]
    index[other] = np.where(values[other] == 0, 2 + sign[other], 0)
    r[other] = 0.0
    return index, r


def _number_column(values: np.ndarray, end: str):
    """(slot width, fill) of a number column, for `numtext.table_text`.

    A slot of 24 bytes holds the prefix, the 15 digits of the significand r
    from `_number_cells` and ``end``.  When a number of the column has an
    integer part q = r // 10^(14-X), the 16 digits of q come first, 32
    bytes in all, and in place of r's digits come 0 and those of the
    fraction f, shifted left; that 0 becomes the ".".  The leading zeros of
    q and the trailing zeros of the 15 digits are NUL (`numtext.drop_zeros`,
    and `_TAIL` where the last three digits are not 000).  r and q are
    integers below 10^15, split by exact float steps (`numtext.put_groups`;
    r / 10^(14-X) too).  Numbers of index 0 are %.15g text."""
    index, r = _number_cells(values)
    slow = (index == 0).nonzero()[0]
    head = 16 if index.max() >= 12 else 8
    width = head + 16
    if slow.size:
        texts = np.array([NUMBER_FORMAT % v for v in values[slow].tolist()], dtype=bytes)
        width = max(width, numtext.slot_width(texts))

    def fill(slots):
        s = r
        if head == 16:
            split = _SPLIT[index]
            q = np.floor(r / split)
            s = (r - split * q) * _SHIFT[index]
            numtext.put_groups(slots[:, :16].view(np.uint32), q, 4)
            numtext.drop_zeros(slots[:, :16], 1)
        slots[:, :8].view(np.uint64)[:, 0] |= _PREFIX[index]
        top = np.floor(s / 1e3)
        last = (s - 1e3 * top).astype(np.intp)
        word = slots[:, head:head + 16].view(np.uint32)
        numtext.put_groups(word, top, 3)
        word[:, 3] = _TAIL[end][last]
        rows = (last == 0).nonzero()[0]
        if rows.size:
            digits = slots[rows, head:head + 15]
            numtext.drop_zeros(digits, -1)
            slots[rows, head:head + 15] = digits
        if head == 16:
            dot = slots[:, head]
            dot[dot == ord("0")] = ord(".")
        if slow.size:
            slots[slow] = 0
            numtext.put_text(slots, slow, texts, end)

    return width, fill


def _number_text(values: np.ndarray) -> np.ndarray:
    """The `fmt` text of each number, as a numpy bytes array: a column that
    several files share is encoded once and handed to `write_csv`."""
    text = b"".join(numtext.table_text(values.size,
                                       lambda rows: [_number_column(values[rows], "\n")]))
    return np.array(text.split(b"\n")[:-1], dtype=bytes)


#: the text of a 0/1 flag, as `fmt` writes 0 and 1, indexed by the flag
_FLAG_TEXT = np.array([b"0", b"1"])


def write_csv(path: Path, header: list[str], columns: list):
    """Header row, then one row per index of the equal-length ``columns``.

    A column is numbers, written as `fmt` writes them, or a numpy bytes
    array of UTF-8 text (`_number_text`, `_FLAG_TEXT`), whose bytes are
    copied as they are.  A ``ValueError`` names ``header`` when it does not
    name every column, and ``columns`` when there are none, their lengths
    differ, one is not 1-d or a bytes cell holds NUL; a ``TypeError`` names
    ``header`` or ``columns`` when it is not a list, and ``columns`` when
    one is neither kind (text as str, say).

    The body is built as bytes, `numtext.BLOCK_ROWS` rows at a time
    (`numtext.table_text`): each cell gets a slot (`_number_column`,
    `numtext.text_column`) and the rows are the slots' nonzero bytes.
    `fmt` of a number v with decimal exponent -4 <= X < 15 is its 15-digit
    significand r = |v| 10^(14-X), rounded half to even, with the "." after
    its first X + 1 digits (after "0." and -X-1 zeros when X < 0), less
    trailing zeros and a trailing ".".  The slots of such numbers and of
    zeros are filled with those bytes from digit tables, not by CPython's
    %.15g, which takes its slow bignum route for each number.  Every other
    number is %.15g text."""
    require_instance("header", header, list)
    require_instance("columns", columns, list)
    if len(header) != len(columns):
        raise ValueError(f"header must name each of the {len(columns)} columns, "
                         f"got {len(header)} names")
    if not columns:
        raise ValueError("columns must hold at least one column, got none")
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError(f"columns must have equal lengths, got {[len(c) for c in columns]}")
    columns = [_column(j, column) for j, column in enumerate(columns)]
    ends = [","] * (len(columns) - 1) + ["\n"]
    with path.open("wb") as out:
        out.write((",".join(header) + "\n").encode("utf-8"))
        out.writelines(numtext.table_text(n, lambda rows: [
            numtext.text_column(c[rows], end) if c.dtype.kind == "S"
            else _number_column(c[rows], end) for c, end in zip(columns, ends)]))


def _column(j: int, column) -> np.ndarray:
    """Column ``j`` of `write_csv` as a float array or a contiguous numpy
    bytes array, checked.  numpy drops a bytes cell's trailing NULs, so a
    NUL is held where a zero byte comes before a nonzero one."""
    values = np.asarray(column)
    if values.ndim != 1:
        raise ValueError(f"columns must be 1-d, got shape {values.shape} in column {j}")
    if values.dtype.kind == "S":
        values = np.ascontiguousarray(values)
        nonzero = values.view(np.uint8).reshape(values.size, values.itemsize) != 0
        if (nonzero[:, 1:] > nonzero[:, :-1]).any():
            raise ValueError(f"columns must hold no NUL in a bytes cell, got one in column {j}")
        return values
    if values.dtype.kind not in "biuf":
        raise TypeError(f"columns must be numbers or numpy bytes arrays, "
                        f"got {values.dtype} in column {j}")
    return values.astype(float, copy=False)


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
    require_instance("config", config, RunConfig)
    psi_family = config.family is Family.PSI
    prefix = "fig1" if psi_family else "fig2"
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    interval_rows, refined = [], []
    grid = config.grid
    T_text = _number_text(grid)
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
                in_window = np.zeros(grid.size, dtype=np.intp)
                for iv in trace_windows:
                    in_window[np.searchsorted(grid, iv.T_start, "left"):
                              np.searchsorted(grid, iv.T_end, "right")] = 1
                    interval_rows.append((alpha, eps, iv.T_start, iv.T_end, iv.length))
                    refined.append(iv.refined)
                header = ["T", "C", "x1_abs", "x2_abs", "x3_abs", "x5_abs",
                          "in_death_window"]
                columns = [T_text, trace.C, *amps[:3], amps[4], _FLAG_TEXT[in_window]]
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
                   _FLAG_TEXT[np.array(refined, dtype=np.intp)]])
        written.append(intervals_path)
    _write_metadata(out, config, f"{prefix} dataset; alpha values are a library default choice")
    return written
