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

Each value gets a 32-byte slot, four uint64 words:

    0-7    '-' or NUL, then '0.' to '0.000' where e is -1 to -4, NULs
    8-23   the digits of m, the first in byte 8, with '.' after the units
           digit (fixed notation, e >= 0) or after the first digit (the
           others) where a nonzero digit follows; trailing zeros NUL
    24-30  exponent suffix 'e+XX' or 'e-XXX', or NULs
    31     ',' or the row's '\\n'

and dropping the NULs of the block's slots leaves its text.  %.15g writes
fixed notation for -4 <= e < 15, otherwise one digit before the point and
the suffix.  Every word but the digits comes from a table row per e.

The digits need no division (Warren, Hacker's Delight, ch. 10): m // 10^7
and (m % 10^7) 10 are each below 10^8, and each v becomes 8 digit bytes in
one uint64.  v // 10^4 and v % 10^4 go in its two 32-bit lanes, then every
lane is split by x // 100 = (x 10486) >> 20, and every 16-bit lane by
x // 10 = (x 103) >> 10.  A nonzero digit byte z sets bit 7 of z + 0x7F;
shifting those flags down to the lower bytes marks every digit that some
nonzero digit follows, and the others are trailing zeros.
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
_BYTES = 0x0101_0101_0101_0101


def _margin() -> float:
    """Distance from a half-integer inside which |x| 10^(14-e), near 1e15,
    might round either way; 0.5 or more sends every value to the fallback."""
    return _MARGIN_EPS * float(np.finfo(np.longdouble).eps) * 1e15


def _layout_row(e: int) -> bytes:
    # the slot with NULs for its sign and digits, then two masks over the
    # digits: 0xFF up to the one the point follows (the integer digits of
    # fixed notation), and '.' in the byte after it.  Where e < 0 the point
    # is in the prefix, and both masks are NUL.
    if -4 <= e < 0:
        return (b"\0" + b"0." + b"0" * (-1 - e)).ljust(31, b"\0") + b"," + b"\0" * 32
    fixed = 0 <= e < 15
    units = e if fixed else 0
    suffix = b"" if fixed else b"e%+03d" % e
    return (b"\0" * 24 + suffix.ljust(7, b"\0") + b"," + (b"\xff" * (units + 1)).ljust(16, b"\0")
            + (b"\0" * (units + 1) + b".").ljust(16, b"\0")[:16])


@functools.cache
def _tables():
    """The lookup tables, built on first use: 10^k in long double for
    k = 14 - e; by e, the slot's words around its digits; and by e, the
    digits' two masks."""
    powers = np.longdouble(10) ** np.arange(14 - _E_MAX, 15 - _E_MIN).astype(np.longdouble)
    rows = np.frombuffer(b"".join(_layout_row(e) for e in range(_E_MIN, _E_MAX + 1)),
                         dtype=np.uint64).reshape(-1, 8)
    masks = np.ascontiguousarray(rows[:, 4:].reshape(-1, 2, 2).swapaxes(0, 1))
    return powers, rows[:, :4].copy(), masks


def _mantissas(x: np.ndarray, powers: np.ndarray):
    """(m, e, exact): the 15-digit mantissa m and the decimal exponent
    e = floor(log10 |x|) of each value, where exact (m is 0 elsewhere)."""
    a = np.abs(x)
    exact = (a > 0) & (a < np.inf)
    a[~exact] = 1.0
    e = np.log10(a)
    e = np.floor(e, out=e)
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
    return m.astype(np.int64), e, exact


def _digit_bytes(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each uint64 v below 10^8, as byte values
    0-9 of a uint64, the most significant in the lowest byte."""
    high = v * 109_951_163 >> 40  # v // 10^4, exact below 4.9e8
    x = high | (v - high * 10_000) << 32
    q = x * 10_486 >> 20 & 0x7F_0000_007F
    x = q | (x - q * 100) << 16
    q = x * 103 >> 10 & 0x000F_000F_000F_000F
    return q | (x - q * 10) << 8


def _digit_text(mant: np.ndarray, keep: np.ndarray, point: np.ndarray) -> np.ndarray:
    # bytes 8-23 of each slot, as two uint64 words per value: the digits of
    # m, trailing zeros blanked but for those keep holds, and the point
    high = mant // 10**7
    digits = _digit_bytes(np.stack((high, (mant - high * 10**7) * 10), axis=1).view(np.uint64))
    # a digit is kept where a nonzero digit follows it (in the second word,
    # for every digit of the first), or where keep has it
    kept = digits + 0x7F * _BYTES
    kept &= 0x80 * _BYTES
    for shift in (8, 16, 32):
        kept |= kept >> shift
    kept[:, 0] |= (kept[:, 1] & 0x80) * _BYTES
    kept >>= 7
    kept *= 0xFF
    kept |= keep
    digits |= 0x30 * _BYTES
    digits &= kept
    # the point takes the byte after the digit it follows, where that byte
    # is kept, and the digits after it move up by one, across the two words
    after = digits & ~keep
    digits &= keep
    digits |= kept & point
    digits[:, 1] |= after[:, 0] >> 56
    after <<= 8
    digits |= after
    return digits


def _fallback_text(values: np.ndarray) -> np.ndarray:
    # the values the kernel cannot vouch for, one at a time by Python's %
    return np.array(["%.15g" % v for v in values.tolist()], dtype="S24")


def _slots(block: np.ndarray) -> np.ndarray:
    # each value's 32-byte slot, as four uint64 words
    powers, words, masks = _tables()
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    mant, e, exact = _mantissas(x, powers)
    e -= _E_MIN
    digits = _digit_text(mant, *np.take(masks, e, axis=1))
    del mant
    slot = np.take(words, e, axis=0)
    text = slot.view(np.uint8)
    text[:, 8:24].view("V16")[:] = digits.view("V16")
    slot[:, 0] |= np.signbit(x) * np.uint64(ord("-"))
    text.reshape(-1, block.shape[-1], 32)[:, -1, -1] = ord("\n")
    fallback = np.flatnonzero(~exact & (x != 0))
    if len(fallback):
        text[fallback, :24] = _fallback_text(x[fallback]).view(np.uint8).reshape(-1, 24)
        text[fallback, 24:-1] = 0
    return slot


def format_rows(block: np.ndarray) -> np.ndarray:
    """The CSV lines of a (rows, cols) float block as uint8 text: each value
    as ``'%.15g' % value`` writes it, ',' between values, '\\n' after each
    row."""
    text = _slots(block).tobytes()
    return np.frombuffer(text.translate(None, b"\0"), dtype=np.uint8)
