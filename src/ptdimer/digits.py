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
"""

from __future__ import annotations

import numpy as np

# Rows per block. Writing a 2000x9 fock-light table peaked under tracemalloc
# at 3.8 MB in one block, 1.08 MB in 512-row blocks and 0.62 MB in 256-row
# ones (1.16 MB for one `%` call); 256-row blocks took ~10 % longer.
BLOCK_ROWS = 512
_CELL = 48
_E_MIN, _E_MAX = -31, 30  # log10 of [1e-30, 1e30), off by at most one
_VELTKAMP = 134217729.0  # 2^27 + 1


def _split(a):
    """a = hi + lo, each with at most 26 significant bits (Veltkamp)."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


def _scales():
    """Rows (hi split in two, lo) of 10^(16 - E) = hi + lo for each E, from
    integers: hi is their quotient and lo that of the remainder, both
    correctly rounded."""
    rows = []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = (10**(16 - e), 1) if e <= 16 else (1, 10**(e - 16))
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        rows.append((*_split(hi), lo))
    return np.array(rows)


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
    """For each E: the cell's category and its exponent text."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    category = np.where((e >= -4) & (e < 17), e + 4, 21)
    text = np.array([b"e%+03d" % v for v in e.tolist()], dtype="S4")
    return category, text.view(np.uint8).reshape(-1, 4)


def _quad_tables():
    """For each quad 0..9999: its four digits, and the index (0..3) of its
    last nonzero digit, far below any other for 0."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    zeros = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    last = np.where(zeros == 4, -99, 3 - zeros).astype(np.int8)
    return np.ascontiguousarray(digits + ord("0")), last


_SCALES = _scales()
_KEEP = _keep_table()
_CATEGORY, _EXPONENT = _exponent_tables()
_QUAD_TEXT, _QUAD_LAST = _quad_tables()
_QUAD_START = np.arange(1, 21, 4, dtype=np.int32)[:, None]  # d1, d5, ..., d17


def _digits(x: np.ndarray):
    """For each cell of x: N as five quads of four digits (d1..d20, one row
    a quad), the row of E in the tables, and whether the digits are exact.
    Exact zeros, and the cells left to the per-value path, get N = 0, E = 0.
    """
    a = np.abs(x)
    with np.errstate(invalid="ignore"):  # a nan compares false
        fast = (a >= 1e-30) & (a < 1e30)
    a = np.where(fast, a, 1.0)
    row = np.floor(np.log10(a)).astype(np.intp) - _E_MIN
    hi_hi, hi_lo, lo = _SCALES.take(row, axis=0).T
    p = a * (hi_hi + hi_lo)
    a_hi, a_lo = _split(a)
    rest = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo \
        + a * lo
    floor = np.floor(rest)
    frac = rest - floor
    big = p.astype(np.int64) + floor.astype(np.int64)
    ok = fast & (np.abs(frac - 0.5) > 1e-6) & (big >= 10**16)
    big += frac > 0.5
    ok &= big < 10**17
    zero = x == 0.0
    big[~ok | zero] = 0
    row[~ok | zero] = -_E_MIN
    high = big // 10**8
    low = (big - high * 10**8).astype(np.int32)
    high = high.astype(np.int32)
    quads = np.empty((5, x.size), dtype=np.int32)
    quads[0] = high // 10**8
    high -= quads[0] * 10**8
    quads[1] = high // 10**4
    quads[2] = high - quads[1] * 10**4
    quads[3] = low // 10**4
    quads[4] = low - quads[3] * 10**4
    return quads, row, ok | zero


def _format_block(table: np.ndarray, cells: np.ndarray) -> bytes:
    """The rows of ``table`` as CSV text; ``cells`` holds one _CELL-byte
    layout per cell, the separators already in place."""
    x = table.ravel()
    n = x.size
    quads, row, ok = _digits(x)
    cells = cells[:n]
    digits = _QUAD_TEXT.take(quads.T, axis=0).reshape(n, 20)
    cells[:, 0] = ord("-")
    cells[:, 1] = cells[:, 22] = ord("0")
    cells[:, 2:22] = digits
    cells[:, 23:43] = digits
    category = _CATEGORY[row]
    point = np.where(category < 21, category, 4)
    cells[np.arange(n), 22 + point] = ord(".")
    cells[:, 43:47] = _EXPONENT.take(row, axis=0)
    last = np.maximum((_QUAD_LAST.take(quads) + _QUAD_START).max(axis=0), 4)
    keep = _KEEP.take((category * 17 + last - 4) * 2 + np.signbit(x), axis=0)
    slow = np.flatnonzero(~ok)
    if slow.size:
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype="S47")
        text = text.view(np.uint8).reshape(slow.size, 47)
        cells[slow, :47] = text
        keep[slow, :47] = text != 0
    return cells[keep].tobytes()


def csv_rows(table: np.ndarray):
    """The rows of the 2-D float64 ``table`` as CSV text, each cell's
    ``%.17g`` and each row ended by a newline, in byte chunks of
    ``BLOCK_ROWS`` rows."""
    rows, cols = table.shape
    cells = np.empty((min(rows, BLOCK_ROWS), cols, _CELL), dtype=np.uint8)
    cells[:, :, -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    cells = cells.reshape(-1, _CELL)
    for start in range(0, rows, BLOCK_ROWS):
        yield _format_block(table[start:start + BLOCK_ROWS], cells)
