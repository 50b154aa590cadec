"""Shortest round-trip decimals of doubles, byte for byte as ``repr`` writes them, in numpy.

``lines(values)`` yields ``"".join(repr(v) + "\\n" for v in values)``
as ASCII bytes for any float64 array, one bytes object per block of
``_BLOCK`` values.  A block takes three steps; every step is a few
dozen whole-array uint64 operations and table lookups, so no Python
code runs per value.

Digits.  A positive normal double is v = c * 2**q with a 53-bit c.
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020)
finds the shortest decimal f * 10**k in v's rounding interval, and the
one closest to v among them, ties to an even f.  Here
k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) at a power of two,
whose interval is asymmetric; then f has 16 or 17 digits, trailing
zeros included.  It scales 4c and the interval's ends 4c -/+ 2 (4c - 1
below a power of two) by 10**-k through g, 10**-k rounded up to 126
bits, and rounds each product to odd, its fraction read to 2**-63 with
the product's low word dropped, as Schubfach's rop does: g's excess
then stays below what is read, so a tie such as 907306321823538.25
stays a tie.  The three products are one 126 x 60-bit product, made of
32-bit limbs in uint64 arrays, plus per-exponent constants for the
ends.  g is built with Python ints on import, for k in [-324, 292].

Layout.  CPython's ``repr`` writes the digits in fixed notation when the
decimal point position decpt (v = 0.d1d2... * 10**decpt) satisfies
-4 < decpt <= 16, with ".0" after a whole number and "0.", "0.0"... in
front of a value below 1; otherwise as d.ddde+XX, with at least two
exponent digits and no "." after a single digit.

Assembly.  Each line is built in three 64-bit words, little-endian, of
digit values 0-9 and of other bytes xored with "0", so that bytes shifted
in as zeros read as "0" once every word is xored with "0" at the end:
the digits, then the exponent suffix or newline after the last digit
shown, then, for a value below 1, a shift that prepends zeros, then the
point.  One boolean mask keeps each line's bytes.

Zero, subnormals, and negative or non-finite values (``sample`` draws
none of the last two) are not computed: ``repr`` writes each of their
lines.
"""

import numpy as np

_BLOCK = 4096  # values a step works on: its uint64 arrays stay in L2

_U = np.uint64
_M32, _M52, _M63 = _U(2**32 - 1), _U(2**52 - 1), _U(2**63 - 1)
_M64 = 2**64 - 1
_ZEROS = _U(0x3030303030303030)  # "0" in each byte
_P0 = 330  # offset of decpt in the layout table; a normal double's is in [-307, 309]


def _exponent_table():
    """Per biased exponent e (+ 2048 for a power of two, one row each):
    2**(h + 2) that scales c, g's two words, the upper end's offset in
    three parts (whole, 2**-63 fraction, complement of the low word) and
    the lower end's (whole, fraction, low word), and k + 17 + _P0."""
    powers = []  # (g, r): 10**-k is below g * 2**r, 2**125 <= g < 2**126
    for k in range(-324, 293):
        if k <= 0:
            r = (10**-k).bit_length() - 126
            g = 10**-k >> r if r >= 0 else 10**-k << -r
        else:
            r = -(10**k).bit_length() - 125
            g = (1 << -r) // 10**k
        powers.append((g + 1, r))
    j = np.arange(4096)
    q, irregular = np.clip(j & 2047, 1, 2046) - 1075, j >> 11
    k = (q * 1262611 - irregular * 524031) >> 22  # floor(log10 of 2**q or 3/4 * 2**q)
    h = q + np.array([r for _, r in powers]).take(k + 324) + 127  # 2..5: see _shortest
    g1 = np.array([g >> 64 for g, _ in powers], np.uint64).take(k + 324)
    g0 = np.array([g & _M64 for g, _ in powers], np.uint64).take(k + 324)
    # The ends are 4c -/+ 2, or 4c - 1 below a power of two: g << h + 1
    # in words, then that >> 1 for a power of two.
    s, i = (h + 1).astype(np.uint64), irregular.astype(np.uint64)
    up = (g1 >> (_U(64) - s), (g1 << s) | (g0 >> (_U(64) - s)), g0 << s)
    down = (up[0] >> i, (up[1] >> i) | (up[0] << (_U(64) - i)),
            (up[2] >> i) | (up[1] << (_U(64) - i)))
    return (_U(1) << (h + 2).astype(np.uint64), g0, g1,
            (up[0] << _U(1)) | (up[1] >> _U(63)), up[1] & _M63, ~up[2],
            (down[0] << _U(1)) | (down[1] >> _U(63)), down[1] & _M63, down[2],
            (k + 17 + _P0).astype(np.uint64))


def _layout_table():
    """Per decpt + _P0: the point's position if fixed and at least 1,
    bytes after max(n, it) digits, 2 if in exponent notation, 2**(8 * the
    zeros a value below 1 prepends), 64 - 8 * those zeros, where the
    point goes, and the xored suffix."""
    rows = []
    for p in range(-_P0, _P0):
        if p <= -4 or p > 16:
            suffix = f"e{p - 1:+03d}\n"
            rows.append((0, 1 + len(suffix), 2, 1, 64, 1, suffix))
        elif p <= 0:
            rows.append((0, 3 - p, 0, 1 << 8 * (1 - p), 64 - 8 * (1 - p), 1, "\n"))
        else:
            rows.append((p + 1, 2, 0, 1, 64, p, "\n"))
    return np.array([(*row[:6], int.from_bytes(bytes(b ^ 0x30 for b in row[6].encode()), "little"))
                     for row in rows], np.uint64).T.copy()


def _words(value):
    return [(value >> 64 * i) & _M64 for i in range(3)]


(_SCALE, _G0, _G1, _UP, _UP_FRACTION, _UP_LOW_COMPLEMENT, _DOWN, _DOWN_FRACTION, _DOWN_LOW,
 _DECPT) = _exponent_table()
_FIXED, _TAIL, _EXPONENT_FORM, _PAD, _PAD_RS, _POINT_AT, _SUFFIX = _layout_table()
_BELOW = np.array([_words((1 << 8 * min(d, 24)) - 1) for d in range(32)], np.uint64).T.copy()
_POINT = np.array([_words((ord(".") ^ 0x30) << 8 * d) for d in range(32)], np.uint64).T.copy()
_KEEP = np.arange(24) < np.arange(25)[:, None]
_DIGITS = sum((np.arange(10000, dtype=np.uint64) // _U(10**(3 - i)) % _U(10)) << _U(8 * i)
              for i in range(4))  # a 4-digit group's digit bytes
_TRAILING = sum((np.arange(10000) % 10**i == 0).astype(np.uint8) for i in range(1, 5))


def _mulhi(a, b0, b1):
    """The high word of a * b, for b = b1 * 2**32 + b0 below 2**60."""
    a0, a1 = a & _M32, a >> _U(32)
    p00, p10 = a0 * b0, a1 * b0
    mid = (p00 >> _U(32)) + (p10 & _M32) + a0 * b1
    return a1 * b1 + (p10 >> _U(32)) + (mid >> _U(32))


def _odd(whole, fraction):
    """Round to odd: ``whole`` with its last bit set if ``fraction`` (< 2**63) is not 0."""
    return whole | ((fraction + _M63) >> _U(63))


def _shortest(bits):
    """Schubfach's f for the normal doubles ``bits``, with 17 digits, and
    decpt + _P0.  Each array is dropped or reused once it is spent: a
    block's peak is a dozen of them."""
    c = bits & _M52
    row = (((bits >> _U(52)) & _U(2047)) | ((c == 0).astype(np.uint64) << _U(11))).view(np.int64)
    c |= _U(2**52)
    cp = c * _SCALE.take(row)  # 4c * 2**h, below 2**60: g * cp / 2**127 is 4v * 10**-k
    cp0, cp1 = cp & _M32, cp >> _U(32)
    g = _G0.take(row)
    low = g * cp  # g * cp = high:mid:low, in words
    mid = _mulhi(g, cp0, cp1)
    g = _G1.take(row)
    cp *= g
    mid += cp
    high = _mulhi(g, cp0, cp1) + (mid < cp)
    del g, cp, cp0, cp1
    whole = (high << _U(1)) | (mid >> _U(63))  # in units of 2**127
    mid &= _M63  # the fraction, in units of 2**64; the low word is dropped
    fraction = mid
    m = fraction + _UP_FRACTION.take(row) + (low > _UP_LOW_COMPLEMENT.take(row))
    vbr = _odd(whole + _UP.take(row) + (m >> _U(63)), m & _M63)
    m = fraction - _DOWN_FRACTION.take(row) - (low < _DOWN_LOW.take(row))
    vbl = _odd(whole - _DOWN.take(row) - (m >> _U(63)), m & _M63)
    vb = _odd(whole, fraction)
    del high, whole, mid, fraction, low, m
    # s = vb // 4 and its multiple of 10 below: which are in the interval,
    # narrowed by one unit for an odd c, as 0/1 from the sign of a difference.
    c &= _U(1)
    vbl += c  # lowest
    vbr -= c  # highest
    s = vb >> _U(2)
    s4 = vb & ~_U(3)
    u_out, w_out = (s4 - vbl) >> _U(63), (vbr - s4 - _U(4)) >> _U(63)
    s4 //= _U(40)
    s4 *= _U(10)
    sp = s4  # s rounded down to a multiple of 10
    up_out, wp_out = ((sp << _U(2)) - vbl) >> _U(63), (vbr - (sp << _U(2)) - _U(40)) >> _U(63)
    del vbl, vbr
    f = (vb + _U(1) + (s & _U(1))) >> _U(2)  # both s and s + 1 are in: the nearer, ties to even
    s += u_out
    s -= f
    f += (u_out ^ w_out) * s  # only one is
    up_out *= _U(10)
    sp += up_out
    sp -= f
    f += (up_out // _U(10) ^ wp_out) * sp  # only one of sp and sp + 10 is
    short = (f - _U(10**16)) >> _U(63)
    f *= _U(1) + _U(9) * short
    return f, _DECPT.take(row) - short


def _block(values):
    """The lines of a block's values, as ASCII bytes."""
    bits = values.view(np.uint64)
    f, p = _shortest(bits)  # f's digits: a, then the 4-digit groups h1 h2 l1 l2
    a = f // _U(10**16)
    f -= a * _U(10**16)
    eights = np.empty((2, len(f)), np.uint64)
    np.floor_divide(f, _U(10**8), out=eights[0])
    np.subtract(f, eights[0] * _U(10**8), out=eights[1])
    del f
    fours = eights // _U(10**4)
    eights -= fours * _U(10**4)
    ones = eights
    zeros = _TRAILING.take(ones[1].view(np.int64))
    more = np.flatnonzero(ones[1] == 0)  # l2 is 0000: count on into l1, h2, h1
    for group in (fours[1], ones[0], fours[0]):
        if not more.size:
            break
        zeros[more] += _TRAILING.take(group[more].view(np.int64))
        more = more[group[more] == 0]
    hi8, lo8 = _DIGITS.take(fours.view(np.int64)) | (_DIGITS.take(ones.view(np.int64)) << _U(32))
    del eights, ones, fours
    n = _U(17) - zeros  # significant digits
    p = p.view(np.int64)  # the digits, then the suffix after the ones shown
    single = (n - _EXPONENT_FORM.take(p)) >> _U(63)  # d e+XX: no point
    n = np.maximum(n, _FIXED.take(p))  # digits shown
    length = n + _TAIL.take(p) - single
    n <<= _U(3)
    suffix = _SUFFIX.take(p)
    x0 = a | (hi8 << _U(8)) | (suffix << n)
    x1 = (hi8 >> _U(56)) | (lo8 << _U(8)) | (suffix << (n - _U(64))) | (suffix >> (_U(64) - n))
    x2 = (lo8 >> _U(56)) | (suffix << (n - _U(128))) | (suffix >> (_U(128) - n))
    del a, hi8, lo8, suffix, n
    pad, pad_rs = _PAD.take(p), _PAD_RS.take(p)  # then zeros in front of a value below 1
    words = (x0 * pad, x1 * pad | (x0 >> pad_rs), x2 * pad | (x1 >> pad_rs))
    del x0, x1, x2, pad, pad_rs
    point = (_POINT_AT.take(p) + single * _U(24)).view(np.int64)
    out = np.empty((len(values), 3), np.uint64)
    carry = _U(0)
    for i, word in enumerate(words):  # bytes from the point on move up one
        below = word & _BELOW[i].take(point)
        word ^= below
        np.bitwise_xor(below | (word << _U(8)) | carry | _POINT[i].take(point), _ZEROS,
                       out=out[:, i])
        carry = word >> _U(56)
    del words, below, carry
    special = (bits >> _U(52)) - _U(1) >= _U(2046)  # not positive, normal and finite
    left = special.any()
    if left:
        length[special] = 0
    text = out.view(np.uint8).reshape(-1, 24)[_KEEP.take(length.view(np.int64), axis=0)].tobytes()
    if not left:
        return text
    ends, pieces, start = np.cumsum(length), [], 0
    for i in np.flatnonzero(special):
        pieces += [text[start:ends[i]], f"{float(values[i])!r}\n".encode()]
        start = ends[i]
    return b"".join([*pieces, text[start:]])


def lines(values):
    """``"".join(repr(v) + "\\n" for v in values)`` for a float64 array, as
    ASCII bytes, one bytes object per block of ``_BLOCK`` values."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    return (_block(values[i:i + _BLOCK]) for i in range(0, len(values), _BLOCK))
