"""Minimal SVG line charts, written as text with no plotting library.

Fixed 800x500 viewport, linear axes, one polyline per curve and a text
legend.  This is a viewing convenience; all regression surfaces are CSV.
"""

from __future__ import annotations

import math

import numpy as np

from . import numtext

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

#: "%3d." % u for u = 0 .. 999, with NUL for each leading blank
_WHOLE = numtext.digits(3)
_WHOLE[:100, 0] = _WHOLE[:10, 1] = 0
_WHOLE = numtext.words([_WHOLE, np.full(1000, ord("."), np.uint8)])
#: the two decimals of 0 .. 99, then the end of a coordinate and NUL
_CENTS = {end: numtext.words([numtext.digits(2), np.full(100, ord(end), np.uint8),
                              np.zeros(100, np.uint8)])
          for end in (",", " ")}


def _coordinate_column(values: np.ndarray, end: str):
    """(slot width, fill) of pixel coordinates for `numtext.table_text`.

    A slot of 8 bytes holds ``"%.2f" % v`` and ``end``: r = 100 v rounded
    half to even (`numtext.rint_product`) gives the whole part r // 100 and
    the two decimals.  A value that is negative (-0.0 too), not finite or
    has r >= 10^5 is "%.2f" text."""
    slow = ~((values >= 0.0) & (values < 1e3)) | np.signbit(values)
    r = numtext.rint_product(np.where(slow, 0.0, values), 100.0)
    slow |= r >= 1e5
    r[slow] = 0.0
    rows = slow.nonzero()[0]
    texts = np.array(["%.2f" % v for v in values[rows].tolist()], dtype=bytes)

    def fill(slots):
        whole = np.floor(r / 100.0)
        word = slots[:, :8].view(np.uint32)
        word[:, 0] = _WHOLE[whole.astype(np.intp)]
        word[:, 1] = _CENTS[end][(r - 100.0 * whole).astype(np.intp)]
        slots[rows] = 0
        numtext.put_text(slots, rows, texts, end)

    return max(8, numtext.slot_width(texts)), fill


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """The points attribute of a polyline: "x,y" pairs, "%.2f" each, joined
    by single blanks, built `numtext.BLOCK_ROWS` points at a time."""
    text = b"".join(numtext.table_text(xs.size, lambda rows: [
        _coordinate_column(xs[rows], ","), _coordinate_column(ys[rows], " ")]))
    return text[:-1].decode("ascii")


def _nice_ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-15 else t)
        t += step
    return ticks


def line_chart(curves, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Render curves [(label, xs, ys), ...] into an SVG document string.

    A point's pixel coordinates are written as ``"%.2f,%.2f"`` writes them,
    by the byte kernel of `_points`.  A ``ValueError`` names ``curves`` when
    they hold no point or a curve's xs and ys differ in shape."""
    curves = [(label, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
              for label, xs, ys in curves]
    for k, (_, xs, ys) in enumerate(curves):
        if xs.shape != ys.shape:
            raise ValueError(f"curves[{k}] must have xs and ys of one shape, "
                             f"got {xs.shape} and {ys.shape}")
    if not sum(xs.size for _, xs, _ in curves):
        raise ValueError("curves must hold at least one point, got none")
    xs_all = np.concatenate([xs for _, xs, _ in curves])
    ys_all = np.concatenate([ys for _, _, ys in curves])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = min(0.0, float(ys_all.min())), max(1.0, float(ys_all.max()))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    # pixel coordinates of a scalar tick or of a whole curve
    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>'
    )
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{HEIGHT - MARGIN_B}" x2="{x:.2f}" '
                     f'y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{HEIGHT - MARGIN_B + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{t:g}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 9}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="12">{t:g}</text>')
    parts.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 10}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="14">{xlabel}</text>')
    parts.append(f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14" '
                 f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>')

    for k, (label, xs, ys) in enumerate(curves):
        color = _PALETTE[k % len(_PALETTE)]
        points = _points(px(xs), py(ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        ly = MARGIN_T + 16 + 18 * k
        lx = WIDTH - MARGIN_R - 180
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
