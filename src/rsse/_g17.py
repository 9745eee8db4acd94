"""``'%.17g' % x`` for a whole float64 array at once, byte for byte.

:func:`g17_cells` lays the text of each value out in one row of four
little-endian uint64 words, NUL where a byte is unused, and
:func:`cells_text` joins rows of such cells and drops the NULs.  The text
is Python's own for every double.  It is built in blocks of values, in
four steps:

- Scale.  E = floor(log10|x|) guesses the decimal exponent, and one
  longdouble product s = |x| * 10**(16 - E) puts the 17 significant digits
  in its integer part.  The powers of ten are parsed from strings, so each
  is correctly rounded.  With the product's own rounding that leaves s
  within ``finfo(longdouble).eps * 1e17`` of the exact product.
- Digits.  Integer division splits N, the integer nearest s, into its
  leading digit and four quads, whose ASCII digits come from a table.
- Layout.  Word 0 holds the sign and the ``0.000`` lead of a fixed-point
  value below 1.  Words 1-3 hold the digits up to the point, a point slot,
  the digits after it up to the last nonzero one, the exponent and the end
  byte.  Table masks keyed by the point's place and the last digit pick
  those bytes.
- Fallback.  Python formats the rest, in one ``%`` over them: zeros
  (``-0`` among them), infs and nans, values whose exponent guess was
  wrong, and values whose s lies within twice that bound of a rounding
  tie, where the rounding of s could differ from that of the exact
  product (about 4% of values).  Where longdouble is a double that margin
  exceeds 0.5, so every value falls back and the text is still exact.
"""

from __future__ import annotations

import numpy as np

_LD = np.longdouble
# |x| runs from 4.9e-324 (E = -324) to 1.8e308 (E = 308); tables indexed by
# E start at _E_MIN
_E_MIN = -324
_E = range(_E_MIN, 309)
_POW10 = np.array([f"1e{16 - e}" for e in _E], dtype=_LD)
# patched to 0.5 in tests, which sends every value to the fallback
_TIE_MARGIN = 2.0 * float(np.finfo(_LD).eps) * 1e17
_TEXT = 31  # the bytes of a row before its end byte
_BLOCK = 2048


def _words(text: bytes, width: int) -> np.ndarray:
    """``text`` NUL-padded to ``width`` bytes, as little-endian uint64 words."""
    return np.frombuffer(text.ljust(width, b"\0"), dtype="<u8")


# the four ASCII digits of 0..9999
_QUADS = np.frombuffer("".join(f"{i:04d}" for i in range(10000)).encode(), dtype="<u4")
_QUADS = _QUADS.astype(np.uint64)
# for quad k of digits 1-16 (digits 4k + 1..4k + 4), the place of its last
# nonzero digit, 0 where it is 0000
_PLACES = np.array([len(f"{i:04d}".rstrip("0")) for i in range(10000)])
_ENDS = [np.where(_PLACES > 0, 4 * k + _PLACES, 0) for k in range(4)]


def _layout(point: int, keep: int) -> np.ndarray:
    """Masks of the 24-byte digit region: digits 0..``point``, digits past it
    up to ``keep`` moved up one byte, and the point between them."""
    before = b"\xff" * (point + 1)
    after = b"\0" * (point + 2) + b"\xff" * (keep - point)
    dot = b"\0" * (point + 1) + b"." * (0 <= point < keep)
    return np.concatenate([_words(before, 24), _words(after, 24), _words(dot, 24)])


# the digit the point follows for each E: -1 where the lead holds it
_POINT = np.array([max(e, -1) if -4 <= e < 17 else 0 for e in _E])
# column (point + 1) * 17 + keep: the point follows digit ``point`` and the
# digits end at ``keep``; one row per word of each mask
_LAYOUTS = np.stack(
    [_layout(point, keep) for point in range(-1, 17) for keep in range(17)], axis=1
)
# word 0 (after the sign byte) and word 3 (after two digit bytes) for each E:
# the lead of -4 <= E < 0, the exponent of E < -4 or E >= 17
_LEADS = np.concatenate([_words(b"\0" + b"0.000"[: 1 - e] * (-4 <= e < 0), 8) for e in _E])
_EXPONENTS = np.concatenate(
    [_words(b"\0\0" + b"e%+03d" % e * (not -4 <= e < 17), 8) for e in _E]
)


def g17_cells(values: np.ndarray, end: str) -> np.ndarray:
    """One row of 32 bytes per value: its ``'%.17g'`` text and ``end``, NUL-padded."""
    x = np.asarray(values, dtype=np.float64).ravel()
    cells = np.empty((x.size, 4), dtype="<u8")
    fast = np.empty(x.size, dtype=bool)
    # a block at a time keeps the temporaries small
    for block in range(0, x.size, _BLOCK):
        part = slice(block, block + _BLOCK)
        fast[part] = _fill(x[part], cells[part])
    out = cells.view(np.uint8)
    out[:, _TEXT] = ord(end)
    slow = np.flatnonzero(~fast)
    if slow.size:
        # %g text holds no space, so the padding becomes NUL
        text = ((f"%-{_TEXT}.17g" * slow.size) % tuple(x[slow].tolist())).encode()
        text = np.frombuffer(text, dtype=np.uint8).reshape(-1, _TEXT)
        out[slow, :_TEXT] = np.where(text == ord(" "), 0, text)
    return out


def _fill(x: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Lay out ``x`` in ``cells`` but for the end byte; True where that is its text."""
    a = np.abs(x)
    fast = (a > 0.0) & (a < np.inf)
    a[~fast] = 1.0
    row = np.floor(np.log10(a)).astype(np.intp) - _E_MIN  # E's row in the tables
    s = a.astype(_LD) * _POW10.take(row)
    big = s.astype(np.int64)
    frac = (s - big).astype(np.float64)
    big += frac > 0.5  # round to nearest; ties fall back
    fast &= (big > 10**16) & (big < 10**17) & (np.abs(frac - 0.5) > _TIE_MARGIN)

    # the leading digit, digits 1-8 and digits 9-16, each of those as two quads
    top = big // 10**8
    low = big - top * 10**8
    head = top // 10**8
    high = top - head * 10**8
    quads = []
    for half in (high, low):
        quad = half // 10**4
        quads += [quad, half - quad * 10**4]
    ends = [table.take(quad) for table, quad in zip(_ENDS, quads)]
    last = np.maximum(np.maximum(ends[0], ends[1]), np.maximum(ends[2], ends[3]))
    ascii = [_QUADS.take(quad) for quad in quads]
    high = ascii[0] | ascii[1] << 32
    low = ascii[2] | ascii[3] << 32
    lead = (head + ord("0")).astype(np.uint64)
    # the digit region as it is, and moved up one byte
    digits = (lead | high << 8, high >> 56 | low << 8, low >> 56)
    moved = (lead << 8 | high << 16, high >> 48 | low << 16, low >> 48)

    point = _POINT.take(row)
    layout = (point + 1) * 17 + np.maximum(last, point)
    for w in range(3):
        before, after, dot = (_LAYOUTS[w + 3 * k].take(layout) for k in range(3))
        cells[:, w + 1] = digits[w] & before | moved[w] & after | dot
    cells[:, 0] = _LEADS.take(row) | np.signbit(x) * np.uint64(ord("-"))
    cells[:, 3] |= _EXPONENTS.take(row)
    return fast


def cells_text(*columns: np.ndarray) -> str:
    """The rows of ``columns``' cells side by side, as one string without the NULs."""
    return np.hstack(columns).tobytes().translate(None, b"\0").decode("ascii")
