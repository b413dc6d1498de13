"""CSV text of float64 tables, byte for byte as ``'%.15g' % value`` writes it.

``format_rows(block)`` lays out a whole block of rows at once in numpy.  A
finite, nonzero value x gets its decimal exponent e = floor(log10|x|) and
its 15-digit mantissa m = rint(y), y = |x| 10^(14-e) taken in long double.
That m is the correctly rounded one unless y lies within the product's
error bound of a half-integer, or next to 1e14 or 1e15 (where log10 or the
rounding moves the exponent).  Those values, and inf and nan, are
formatted one at a time by Python's ``%``.  Where long double is no wider
than double, the error bound reaches 0.5 and every value goes that way.
Signed zeros are laid out like any other value.

Each value gets a 44-byte slot, filled from lookup tables:

    0      '-' or NUL
    1-15   integer digits, 10^14 .. 10^0, leading zeros NUL
    16     '.', NUL when no fraction digit follows
    17     NUL
    18-35  fraction digits, 10^-1 .. 10^-18, trailing zeros NUL
    36-40  exponent suffix 'e+XX' or 'e-XXX', or NULs
    41-42  NUL
    43     ',' or the row's '\\n'

and dropping the NULs of the block's slots leaves its text.  %.15g writes
fixed notation for -4 <= e < 15: the integer part m // 10^(14-e), then the
fraction below it; otherwise one integer digit, the fraction and the
suffix.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["format_rows"]

# a bound on the error of y, in units of long double's eps: the power
# table's (0.6 on x86-64; the tests hold it to 1) plus the product's 0.5
_MARGIN_EPS = 4.0
# decimal exponents of finite nonzero doubles, 5e-324 to 1.8e308
_E_MIN, _E_MAX = -324, 308
_SLOT = 44
# where each kind of digit chunk starts in the digit table
_LEAD, _TRAIL, _SIGNED, _POINT, _UNITS = 10_000, 20_000, 30_000, 32_000, 32_200
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _margin() -> float:
    """Distance from a half-integer inside which |x| 10^(14-e), near 1e15,
    might round either way; 0.5 or more sends every value to the fallback."""
    return _MARGIN_EPS * float(np.finfo(np.longdouble).eps) * 1e15


def _digit_table() -> np.ndarray:
    # the ASCII digits of 0..9999, four bytes in one uint32, in five kinds:
    # all four digits, leading zeros blanked (NUL), trailing zeros blanked,
    # the first integer chunk (below 1000) after its sign byte, the first
    # fraction chunk (below 100) after its point, then the lone units '0'
    table = np.zeros((_UNITS + 1, 4), dtype=np.uint8)
    full, lead, trail = (table[k : k + 10_000].reshape(10, 10, 10, 10, 4)
                         for k in (0, _LEAD, _TRAIL))
    for place in range(4):
        shape = [1, 1, 1, 1]
        shape[place] = 10
        full[..., place] = np.arange(48, 58, dtype=np.uint8).reshape(shape)
    lead[...] = full
    trail[...] = full
    for place in range(4):
        # lead blanks a digit where it and every digit before it is 0,
        # trail where it and every digit after it is 0
        lead[(0,) * (place + 1) + (Ellipsis, place)] = 0
        trail[(Ellipsis,) + (0,) * (4 - place) + (place,)] = 0
    signed = table[_SIGNED : _SIGNED + 2000]
    signed[:1000] = signed[1000:] = table[_LEAD : _LEAD + 1000]
    signed[1000:, 0] = ord("-")
    # the point goes unless every fraction digit is 0: offset 100 marks a
    # chunk with only zeros after it
    point = table[_POINT : _POINT + 200]
    point[:100] = table[:100]
    point[100:] = table[_TRAIL : _TRAIL + 100]
    point[:, 0:2] = (ord("."), 0)
    point[100, 0] = 0
    table[_UNITS, 3] = ord("0")
    return table.view(np.uint32)[:, 0]


@functools.cache
def _tables():
    """The lookup tables, built on first use (about 1 ms): 10^k in long
    double for k = 14 - e, the digit chunks, and the exponent suffixes."""
    powers = np.longdouble(10) ** np.arange(14 - _E_MAX, 15 - _E_MIN).astype(np.longdouble)
    # bytes 36-43 by e - _E_MIN, then the blank suffix of fixed notation:
    # 'e', the exponent's sign and 2 or 3 digits, NULs, ','
    suffix = b"".join(
        [(b"e%+03d" % k).ljust(7, b"\0") + b"," for k in range(_E_MIN, _E_MAX + 1)]
        + [b"\0" * 7 + b","]
    )
    return powers, _digit_table(), np.frombuffer(suffix, dtype=np.uint64)


def _mantissas(x: np.ndarray, powers: np.ndarray):
    """(m, e, exact, fixed): the 15-digit mantissa m and the decimal
    exponent e = floor(log10 |x|) of each value, where exact (m is 0
    elsewhere), and whether e is one of fixed notation's."""
    a = np.abs(x)
    exact = (a > 0) & (a < np.inf)
    a[~exact] = 1.0
    e = np.log10(a)
    e = np.floor(e, out=e)
    fixed = (e >= -4) & (e < 15)
    e = e.astype(np.int64)
    y = a.astype(np.longdouble)
    y *= powers[_E_MAX - e]
    m = np.rint(y)
    y -= m
    off = y.astype(np.float64)
    m = m.astype(np.float64)
    delta = _margin()
    # m is the rounding of y where y is clear of a half-integer; it keeps e
    # as the result's exponent below 1e15 (at 1e15 the rounding carried,
    # or e is one too small) and where y is not below 1e14 by more than
    # delta (log10 rounded up, just below a power of ten: e is one too big)
    exact &= (np.abs(off) < 0.5 - delta) & (m < 1e15) & (
        (m > 1e14) | ((m == 1e14) & (off >= -delta))
    )
    m[~exact] = 0.0
    return m.astype(np.int64), e, exact, fixed


def _quads(value: np.ndarray):
    # the four 4-digit chunks of a value below 10^16, most significant first
    high = value // 10**8
    low = value - high * 10**8
    q0 = high // 10**4
    q2 = low // 10**4
    return q0, high - q0 * 10**4, q2, low - q2 * 10**4


def _integer_digits(whole, negative, digits, slot) -> None:
    # bytes 0-15: sign, then the 15 integer digits with leading zeros
    # blanked, down to the units digit
    quads = _quads(whole)
    slot[:, 0] = digits[quads[0] + np.where(negative, _SIGNED + 1000, _SIGNED)]
    lead = ~quads[0].astype(bool)
    for col in (1, 2, 3):
        slot[:, col] = digits[np.where(lead, quads[col] + _LEAD, quads[col])]
        lead &= ~quads[col].astype(bool)
    # a zero integer part keeps its units '0'
    slot[lead, 3] = digits[_UNITS]


def _fraction_digits(frac, digits, slot) -> None:
    # bytes 16-35: the point, a NUL, then 18 fraction digits with trailing
    # zeros blanked
    head = frac // 10**16
    trail = np.ones(len(frac), dtype=bool)
    for col, quad in zip((8, 7, 6, 5), _quads(frac - head * 10**16)[::-1]):
        slot[:, col] = digits[np.where(trail, quad + _TRAIL, quad)]
        trail &= ~quad.astype(bool)
    slot[:, 4] = digits[np.where(trail, head + (_POINT + 100), head + _POINT)]


def _fallback_text(values: np.ndarray) -> np.ndarray:
    # the values the kernel cannot vouch for, one at a time by Python's %
    return np.array(["%.15g" % v for v in values.tolist()], dtype="S24")


def _slots(block: np.ndarray) -> np.ndarray:
    # each value's 44-byte slot, NUL where no byte is written
    powers, digits, suffix = _tables()
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    mant, e, exact, fixed = _mantissas(x, powers)
    slot = np.empty((len(x), _SLOT // 4), dtype=np.uint32)
    expo = np.where(exact & ~fixed, e - _E_MIN, _E_MAX - _E_MIN + 1)
    slot[:, 9:11] = suffix[expo].view(np.uint32).reshape(-1, 2)
    # fixed notation splits m at its units digit, the other at its first
    shift = np.where(exact & fixed, e, 0)
    scale = _POW10[14 - shift]
    whole = mant // scale
    _integer_digits(whole, np.signbit(x), digits, slot)
    _fraction_digits((mant - whole * scale) * _POW10[shift + 4], digits, slot)

    text = slot.view(np.uint8)
    text.reshape(-1, block.shape[-1], _SLOT)[:, -1, -1] = ord("\n")
    fallback = np.flatnonzero(~exact & (x != 0))
    if len(fallback):
        text[fallback, :24] = _fallback_text(x[fallback]).view(np.uint8).reshape(-1, 24)
        text[fallback, 24:-1] = 0
    return text


def format_rows(block: np.ndarray) -> np.ndarray:
    """The CSV lines of a (rows, cols) float block as uint8 text: each value
    as ``'%.15g' % value`` writes it, ',' between values, '\\n' after each
    row."""
    # _slots' temporaries are freed before the compaction, which holds the
    # slots, their mask and the text
    text = _slots(block)
    return text[text != 0]
