"""Exact ``%.17g`` text of a float table, computed for all cells at once.

A cell x with 1e-30 <= |x| < 1e30 and E = floor(log10 |x|) has the 17
significant digits N, the integer nearest |x| 10^(16 - E), ties to even; N
lies in [10^16, 10^17). Rounding needs the product to better than a double:
10^(16 - E) is the double-double hi + lo, and Dekker's two-product splits
|x| hi exactly into p + err. p is an integer above 2^53, so
N = p + round(err + |x| lo). These cells take a per-value ``%`` instead:
err + |x| lo within 1e-6 of a half (an exact tie such as 2^-25, or too near
one to round from doubles), E off by one from a log10 rounded across a power
of ten (N outside [10^16, 10^17)), and values out of range or not finite.

Each cell is laid out in _CELL bytes:

    0       '-'
    1-21    d0..d20, N as a 21-digit integer (d0..d3 are 0): the integer part
    22-42   d0..d20 again with '.' over d_t: the point and the fraction
    43-46   'e', the sign and two digits of E
    47      ',' or, after the last column, '\\n'

and one row of _KEEP masks the text out of it. The point follows d_t, with
t = E + 4 in fixed notation (-4 <= E < 17, where %g's exponent is E) and
t = 4 in exponent notation; the integer part is d_min(t,4)..d_t, and the
fraction d_t..d_last, d_last the last nonzero digit, is kept if last > t.

A table is formatted in blocks of rows, each cell of a block in one slot of
one buffer. The bytes 0, 1, 22 and 47 are written once per table: the point
of t = 0 overwrites byte 22, but it is kept only then, and a cell left to
the per-value ``%`` holds its text in bytes 23-46, which every block writes
again. Each other step writes one field of every slot as one element
(_FIELDS), or scatters the points over the flat buffer, so no numpy loop
runs over a short inner axis.
"""

from __future__ import annotations

import numpy as np

# Rows per block. Writing a 2000x9 fock-light table peaked under tracemalloc
# at 3.60 MB in one block, 1.05 MB in 512-row blocks and 0.61 MB in 256-row
# ones (1.01 MB for one `%` call). With 512-row blocks `write_csv` took
# 2.6-2.9 ms; 256-row blocks took up to 19 % longer, one block 32-48 %.
BLOCK_ROWS = 512
_CELL = 48
_E_MIN, _E_MAX = -31, 30  # log10 of [1e-30, 1e30), off by at most one
_VELTKAMP = 134217729.0  # 2^27 + 1
# the fields of a cell that every block writes: the two copies of d1..d20
# and the exponent text
_FIELDS = np.dtype({"names": ["integer", "fraction", "exponent"],
                    "formats": ["V20", "V20", "V4"],
                    "offsets": [2, 23, 43], "itemsize": _CELL})


def _split(a):
    """a = hi + lo, each with at most 26 significant bits (Veltkamp)."""
    c = _VELTKAMP * a
    hi = c - a
    np.subtract(c, hi, out=hi)
    np.subtract(a, hi, out=c)
    return hi, c


def _scales():
    """For each E, 10^(16 - E) = hi + lo, from integers: hi is their
    quotient and lo that of the remainder, both correctly rounded. Returns
    hi split in two, and lo."""
    his, los = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = (10**(16 - e), 1) if e <= 16 else (1, 10**(e - 16))
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * hi_den - hi_num * den) / (den * hi_den))
    return (*_split(np.array(his)), np.array(los))


def _keep_table():
    """The kept bytes of a cell for each (category, last - 4, negative):
    category t = 0..20 is fixed notation with the point after d_t, 21 is
    exponent notation (point after d4)."""
    keep = np.zeros((22, 17, 2, _CELL), dtype=bool)
    keep[:, :, 1, 0] = True
    keep[21, :, :, 43:47] = True
    keep[..., 47] = True
    for cat in range(22):
        t = cat if cat < 21 else 4
        keep[cat, :, :, 1 + min(t, 4):2 + t] = True
        for last in range(max(t + 1, 4), 21):
            keep[cat, last - 4, :, 22 + t:23 + last] = True
    return keep.reshape(-1, _CELL)


def _exponent_tables():
    """For each E: the first _KEEP row of its category less 8, so that
    2 * last + negative completes the index, the digit t that the point
    replaces, and the exponent text."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    category = np.where((e >= -4) & (e < 17), e + 4, 21)
    text = np.array([b"e%+03d" % v for v in e.tolist()], dtype="S4")
    return (category * 34 - 8, np.where(category < 21, category, 4),
            text.view("V4"))


def _quad_tables():
    """For each quad 0..9999: its four digits as one word of text, and the
    index (0..3) of its last nonzero digit, far below any other for 0."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    zeros = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    last = np.where(zeros == 4, -99, 3 - zeros).astype(np.int8)
    text = np.ascontiguousarray(digits + ord("0"))
    return text.view(np.uint32)[:, 0], last


_HI_HI, _HI_LO, _LO = _scales()
_KEEP = _keep_table()
_KEEP_AT, _POINT, _EXPONENT = _exponent_tables()
_QUAD_WORDS, _QUAD_LAST = _quad_tables()
_QUAD_START = np.arange(5, 21, 4, dtype=np.int8)[:, None]  # d5, d9, d13, d17


def _digits(x: np.ndarray):
    """For each cell of x: N as five quads of four digits (d1..d20, one row
    a quad), the row of E in the tables, and whether the digits are exact.
    Exact zeros get N = 0 and E = 0; the digits of the cells left to the
    per-value path are in range but meaningless.
    """
    a = np.abs(x)
    with np.errstate(invalid="ignore"):  # a nan compares false
        fast = a >= 1e-30
        fast &= a < 1e30
    np.copyto(a, 1.0, where=~fast)
    row = np.log10(a)
    np.floor(row, out=row)
    row = row.astype(np.intp)
    row -= _E_MIN
    hi_hi = _HI_HI.take(row)
    hi_lo = _HI_LO.take(row)
    lo = _LO.take(row)
    p = hi_hi + hi_lo
    p *= a
    # rest = ((a_hi hi_hi - p) + a_hi hi_lo + a_lo hi_hi) + a_lo hi_lo + a lo
    a_hi, a_lo = _split(a)
    rest = a_hi * hi_hi
    rest -= p
    a_hi *= hi_lo
    rest += a_hi
    hi_hi *= a_lo
    rest += hi_hi
    hi_lo *= a_lo
    rest += hi_lo
    lo *= a
    rest += lo
    floor = np.floor(rest)
    rest -= floor
    rest -= 0.5  # its sign is exact: round up where it is > 0
    big = p.astype(np.int64)
    big += floor.astype(np.int64)
    ok = np.abs(rest, out=floor) > 1e-6
    ok &= fast
    ok &= big >= 10**16
    big += rest > 0.0
    ok &= big < 10**17
    zero = x == 0.0
    np.copyto(big, 0, where=zero)
    ok |= zero
    high = big // 10**8
    low = (big - high * 10**8).astype(np.int32)
    high = high.astype(np.int32)
    quads = np.empty((5, x.size), dtype=np.int32)
    np.floor_divide(high, 10**8, out=quads[0])
    high -= quads[0] * 10**8
    np.floor_divide(high, 10**4, out=quads[1])
    np.subtract(high, quads[1] * 10**4, out=quads[2])
    np.floor_divide(low, 10**4, out=quads[3])
    np.subtract(low, quads[3] * 10**4, out=quads[4])
    return quads, row, ok


def _format_block(table, cells, fields, points):
    """The rows of ``table`` as CSV text, one uint8 array; ``cells`` holds
    one _CELL-byte slot per cell, its constant bytes in place, ``fields`` is
    its _FIELDS view and ``points`` the flat index of byte 22 of each
    slot."""
    x = table.ravel()
    n = x.size
    quads, row, ok = _digits(x)
    cells, fields = cells[:n], fields[:n]
    digits = np.empty((n, 5), dtype=np.uint32)
    digits.T[...] = _QUAD_WORDS.take(quads)
    digits = digits.view("V20")[:, 0]
    fields["integer"] = digits
    fields["fraction"] = digits
    fields["exponent"] = _EXPONENT.take(row)
    point = _POINT.take(row)
    point += points[:n]
    cells.put(point, ord("."))
    last = _QUAD_LAST.take(quads[1:])  # d4 leads: last is at least 4
    last += _QUAD_START
    index = _KEEP_AT.take(row)
    index += 2 * last.max(axis=0, initial=4)
    index += np.signbit(x)
    keep = _KEEP.take(index, axis=0)
    slow = np.flatnonzero(~ok)
    if slow.size:
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype="S24")
        text = text.view(np.uint8).reshape(slow.size, 24)
        cells[slow, 23:47] = text
        keep[slow, :23] = False
        keep[slow, 23:47] = text != 0
    return cells[keep]


def csv_rows(table: np.ndarray):
    """The rows of the 2-D float64 ``table`` as CSV text, each cell's
    ``%.17g`` and each row ended by a newline, in uint8 arrays of
    ``BLOCK_ROWS`` rows."""
    rows, cols = table.shape
    cells = np.empty((min(rows, BLOCK_ROWS) * cols, _CELL), dtype=np.uint8)
    cells[:, 0] = ord("-")
    cells[:, 1] = cells[:, 22] = ord("0")
    cells[:, 47] = ord(",")
    cells[cols - 1::cols, 47] = ord("\n")
    fields = cells.view(_FIELDS)[:, 0]
    points = np.arange(22, cells.size, _CELL)
    for start in range(0, rows, BLOCK_ROWS):
        yield _format_block(table[start:start + BLOCK_ROWS], cells, fields,
                            points)
