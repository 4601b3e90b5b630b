"""Decimal text of float arrays, built as bytes in numpy.

A table is written `BLOCK_ROWS` rows at a time (`table_text`).  Each cell
of a block gets a slot of whole 8-byte words in one zeroed uint8 array, one
array row per table row, and holds its text, then its separator, then NUL
padding.  The array's nonzero bytes, in order, are the rows' text, so no
cell text may hold NUL.  A number's slot is filled from lookup tables of
digit bytes, indexed by the digit groups (`put_groups`) of an integer that
`rint_product` rounds exactly; zeros that the text drops are then NUL
(`drop_zeros`, or a table that holds them as NUL).  A number outside a
kernel's range is %-formatted and put in its slot as bytes, like a text
cell (`put_text`).  A text column is a numpy bytes array: one that several
tables share is encoded once.
"""

from __future__ import annotations

import numpy as np

#: table rows per block, which bounds the arrays of a long table
BLOCK_ROWS = 1 << 15
#: rows whose NUL bytes are dropped in one step: a 4,000-row block of six
#: columns took 0.96 ms at once and 0.50 ms in 1,024-row pieces
_PIECE_ROWS = 1024


def digits(width: int) -> np.ndarray:
    """ASCII digits of 0 .. 10**width - 1, zero-padded: uint8, shape (10**width, width)."""
    digit = np.arange(48, 58, dtype=np.uint8)
    table = digit[:, None]
    for _ in range(width - 1):
        table = np.column_stack([digit.repeat(len(table)), np.tile(table, (10, 1))])
    return table


def words(columns) -> np.ndarray:
    """The uint32 words of uint8 ``columns`` set side by side, 4 bytes a row.

    The tables are built from uint8 arrays only: int64 temporaries at
    import raised the peak RSS of every command by about 0.25 MB."""
    return np.column_stack(columns).view(np.uint32).ravel()


#: the four digits of 0 .. 9999, a uint32 word each
DIGITS4 = words([digits(4)])


def put_groups(word: np.ndarray, x: np.ndarray, groups: int):
    """Write the 4 ``groups`` digits of the integers x < 10^15 into the
    first ``groups`` columns of uint32 ``word``.  x / 10^4 is an integer or
    at least 1/x > 10^-15 of itself from one, more than its relative
    rounding error 2^-53, so each group is exact."""
    for i in range(groups - 1, 0, -1):
        high = np.floor(x / 1e4)
        word[:, i] = DIGITS4[(x - 1e4 * high).astype(np.intp)]
        x = high
    word[:, 0] = DIGITS4[x.astype(np.intp)]


def drop_zeros(digits: np.ndarray, step: int):
    """NUL in place of the run of "0" or NUL bytes that each row of uint8
    ``digits`` starts with (``step`` 1) or ends with (``step`` -1)."""
    digits[np.logical_and.accumulate(digits[:, ::step] <= 48, axis=1)[:, ::step]] = 0


def _split(a):
    """Veltkamp's split a = hi + lo, each part with at most 26 significant bits."""
    c = 134217729.0 * a   # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def rint_product(a, p):
    """The exact product a p rounded half to even, for finite a, p >= 0
    with a p < 2^52.

    hi = a p rounded is a multiple of ulp(hi) < 1, so unless hi is a tie
    (|hi - rint(hi)| = 0.5) it lies at most 0.5 - ulp(hi) from rint(hi),
    and the exact product, within ulp(hi)/2 of hi, rounds to rint(hi) too.
    Only at ties is Dekker's product (T. J. Dekker, Numer. Math. 18,
    224-242, 1971) on Veltkamp splits computed: hi + lo = a p exactly,
    and the sign of lo settles the tie."""
    hi = a * p
    r = np.rint(hi)
    half = hi - r
    tie = (np.abs(half) == 0.5).nonzero()[0]
    if tie.size:
        a_hi, a_lo = _split(a[tie])
        p_hi, p_lo = _split(np.broadcast_to(p, a.shape)[tie])
        lo = ((a_hi * p_hi - hi[tie]) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
        r[tie] += np.where(lo * half[tie] > 0, 2.0 * half[tie], 0.0)
    return r


def slot_width(cells: np.ndarray) -> int:
    """Bytes of a slot that holds any of the bytes ``cells`` and a separator."""
    return -(-(cells.itemsize + 1) // 8) * 8


def put_text(slots: np.ndarray, rows, cells: np.ndarray, sep: str):
    """Write ``cells[i]``, then ``sep``, into the zeroed slot ``rows[i]``."""
    width = cells.itemsize
    slots[rows, :width] = cells.view(np.uint8).reshape(cells.size, width)
    slots[rows, width] = ord(sep)


def text_column(cells: np.ndarray, sep: str):
    """(slot width, fill) of a column of numpy bytes ``cells``, for `table_text`."""
    return slot_width(cells), lambda slots: put_text(slots, slice(None), cells, sep)


def table_text(n: int, columns_of):
    """The text of ``n`` rows, as uint8 pieces, `BLOCK_ROWS` rows at a time.

    ``columns_of(rows)`` gives the (slot width, fill) of each column for the
    rows of the slice ``rows``; fill writes the column's slots into a zeroed
    view."""
    for start in range(0, n, BLOCK_ROWS):
        rows = slice(start, min(start + BLOCK_ROWS, n))
        columns = columns_of(rows)
        block = np.zeros((rows.stop - start, sum(width for width, _ in columns)), np.uint8)
        offset = 0
        for width, fill in columns:
            fill(block[:, offset:offset + width])
            offset += width
        for i in range(0, len(block), _PIECE_ROWS):
            piece = block[i:i + _PIECE_ROWS]
            yield piece[piece != 0]
