"""The exact ``'%.17g'`` text of float64 arrays, formatted in numpy.

Python formats a float one at a time, through correctly rounded big-integer
arithmetic.  Where ``'%.17g'`` writes fixed notation, ``1e-4 <= |v| < 1e17``,
the same digits follow from 64-bit integer arithmetic over whole arrays:

1. ``|v| = m * 2**e`` with ``m < 2**53``, and ``X = floor(log10 |v|)`` is
   estimated in floating point.
2. ``N = round(m * 5**k * 2**(e + k))`` with ``k = 16 - X``, half to even,
   from a 128-bit product of 32-bit limbs.  Where N falls outside
   ``[10**16, 10**17)`` the estimate was one off (or the rounding carried
   up to ``10**17``), and those values are done again with X corrected.
3. A zero digit goes where the point will be, and the digits are scaled so
   that the text starts in the first byte of 24 (the second, after a sign).
   They are split into three eight-digit groups, each expanded to eight
   BCD bytes.
4. One table, keyed by (sign, X, last nonzero byte), gives the ASCII to add:
   the sign, the point, and digits up to the last significant one or the
   point.  Bytes after the text stay zero, which ``tolist`` strips.

Every other value (zeros, ``|v| < 1e-4``, ``|v| >= 1e17``, inf and nan)
is formatted by Python's ``'%.17g' %``, so the output has one definition.
"""

from __future__ import annotations

import numpy as np

# Values formatted per pass of the array code; it bounds the temporaries.
BLOCK_VALUES = 4096

_U = np.uint64
_POW5 = np.array([5**k for k in range(21)], _U)
_POW10 = np.array([10**k for k in range(19)], _U)
_E4, _E8, _E16, _E17 = _POW10[4], _POW10[8], _POW10[16], _POW10[17]
_LOW32 = _U(0xFFFFFFFF)
_HALF = _U(1 << 63)
_BYTE_SCALE = np.array([1.0, 2.0**64, 2.0**128])


def _ascii_table() -> np.ndarray:
    """ASCII to add to the BCD text, by (sign, max(X, 0), last nonzero byte)."""
    byte = np.arange(24)
    # the point's byte: after the sign and max(X, 0) + 1 digits
    point = np.arange(2)[:, None, None, None] + np.arange(1, 18)[:, None, None]
    text = np.where(byte == point, ord("."), ord("0")).astype(np.uint8)
    text[1, ..., 0] = ord("-")
    # the text ends at the last nonzero byte, or before the point
    end = np.maximum(np.arange(24)[:, None], point - 1)
    text = np.where(byte <= end, text, np.uint8(0))
    return text.reshape(-1, 24).view("<u8").astype(_U)


_ASCII = _ascii_table()


def _rounded(m: np.ndarray, e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``round(m * 2**e * 10**(16 - x))``, half to even, computed exactly."""
    k = 16 - x
    f = _POW5.take(k)
    m_lo, m_hi = m & _LOW32, m >> _U(32)
    f_lo, f_hi = f & _LOW32, f >> _U(32)
    # m * f = hi * 2**64 + lo
    mid = m_hi * f_lo
    mid += m_lo * f_hi
    lo = m_lo * f_lo
    hi = m_hi * f_hi
    hi += mid >> _U(32)
    mid <<= _U(32)
    mid += lo
    hi += mid < lo
    lo = mid
    shift = e + k
    right = np.maximum(-shift, 0).astype(_U)
    n = lo >> right
    n |= hi << (_U(64) - right)  # numpy shifts by 64 give 0
    n <<= np.maximum(shift, 0).astype(_U)
    rest = lo << (_U(64) - right)  # the bits shifted out, at the top
    n += (rest > _HALF) | ((rest == _HALF) & (n & _U(1)).astype(bool))
    return n


def _bcd(g: np.ndarray) -> np.ndarray:
    """The eight BCD digits of each g < 10**8, first digit in the lowest byte."""
    q = g // _E4
    g -= q * _E4
    g <<= _U(32)
    g |= q  # two four-digit lanes
    q = g * _U(10486)
    q >>= _U(20)
    q &= _U(0x0000007F0000007F)  # each lane // 100
    g -= q * _U(100)
    g <<= _U(16)
    g += q  # four two-digit lanes
    q = g * _U(103)
    q >>= _U(10)
    q &= _U(0x000F000F000F000F)  # each lane // 10
    g -= q * _U(10)
    g <<= _U(8)
    g += q
    return g


def _digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which values are in range, and for those the 17 digits N and X."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)
    np.copyto(a, 1.0, where=~fast)
    mantissa, e = np.frexp(a)
    mantissa *= 2.0**53
    m = mantissa.astype(_U)
    e -= 53
    x = np.floor(np.log10(a, out=a), out=a).astype(np.intp)
    np.maximum(x, -4, out=x)
    np.minimum(x, 16, out=x)
    n = _rounded(m, e, x)
    while True:
        off = np.flatnonzero((n < _E16) | (n >= _E17))
        if not len(off):
            break
        x[off] += np.where(n[off] < _E16, -1, 1)
        n[off] = _rounded(m[off], e[off], x[off])
    return fast, n, x


def _text_words(n: np.ndarray, x: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The text of each value, 24 bytes as three little-endian words."""
    # a zero digit after the integer part, which a value below 1 has none of
    p = _POW10.take(16 - np.maximum(x, -1))
    n += n // p * p * _U(9)
    # scale to 24 digits: a sign digit, then the text from its first digit
    scale = np.minimum(x, 0)
    scale += 6
    scale -= sign
    scale = _POW10.take(scale)
    hi = n // _E8
    n -= hi * _E8
    n *= scale
    hi *= scale
    groups = np.empty((len(n), 3), _U)
    carry = n // _E8
    groups[:, 2] = n - carry * _E8
    hi += carry
    top = hi // _E8
    groups[:, 0] = top
    groups[:, 1] = hi - top * _E8
    words = _bcd(groups)
    # the float keeps the top byte's position: each BCD byte is at most 9
    _, last = np.frexp(words.astype(np.float64) @ _BYTE_SCALE)
    last -= 1
    last >>= 3
    key = np.maximum(x, 0)
    key += 17 * sign
    key *= 24
    key += last
    words += _ASCII.take(key, axis=0)
    return words.astype("<u8", copy=False)


def _block_texts(v: np.ndarray) -> list[bytes]:
    """The texts of a 1-D block of values."""
    fast, n, x = _digits(v)
    texts = _text_words(n, x, np.signbit(v)).view("S24").ravel().tolist()
    for i in np.flatnonzero(~fast):
        texts[i] = b"%.17g" % v[i]
    return texts


def g17_texts(values: np.ndarray) -> list[bytes]:
    """``b'%.17g' % v`` for every value of a float64 array, in C order."""
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    texts: list[bytes] = []
    for start in range(0, flat.size, BLOCK_VALUES):
        texts += _block_texts(flat[start : start + BLOCK_VALUES])
    return texts
