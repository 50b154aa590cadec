"""Shortest round-trip decimals of doubles, byte for byte as ``repr`` writes them, in numpy.

``lines(values)`` yields ``"".join(repr(v) + "\\n" for v in values)``
as ASCII bytes for any float64 array, one bytes object per block of
``_BLOCK`` values; ``stream(chunks)`` does so for each array of a
sequence, as one stream.  A block takes three steps; every step is a
few dozen whole-array uint64 operations and table lookups, so no Python
code runs per value, and each writes into the stream's work arrays, so
a block allocates little besides its text.

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

_BLOCK = 8192  # values a step works on: its work arrays, 1.3 MB, stay in L2

_U = np.uint64
_M32, _M52, _M63 = _U(2**32 - 1), _U(2**52 - 1), _U(2**63 - 1)
# The kernel's other uint64 operands, built once.
_0, _1, _2, _3, _4, _8, _9, _10, _11, _17, _24 = map(_U, (0, 1, 2, 3, 4, 8, 9, 10, 11, 17, 24))
_32, _40, _52, _56, _63, _64, _128 = map(_U, (32, 40, 52, 56, 63, 64, 128))
_2046, _2047, _HIDDEN, _NOT3 = _U(2046), _U(2047), _U(2**52), ~_U(3)
_E4, _E8, _E16 = _U(10**4), _U(10**8), _U(10**16)
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
_TRAILING = sum((np.arange(10000) % 10**i == 0).astype(np.uint64) for i in range(1, 5))


class _Work:
    """One stream's work arrays: every step of a block writes into them.
    They grow only for a block larger than any before; a block of m values
    takes the first m words of each row, so its rows are contiguous
    whatever m is."""

    _ROWS = 14

    def __init__(self):
        self._size = -1

    def arrays(self, m):
        """For a block of m values: (rows, m), a flag row, each line's three
        words (m, 3) and the mask of its bytes (m, 24)."""
        if m > self._size:
            self._size = m
            self._rows = np.empty(self._ROWS * m, np.uint64)
            self._flag = np.empty(m, bool)
            self._text = np.empty(3 * m, np.uint64)
            self._keep = np.empty(24 * m, bool)
        return (self._rows[:self._ROWS * m].reshape(self._ROWS, m), self._flag[:m],
                self._text[:3 * m].reshape(m, 3), self._keep[:24 * m].reshape(m, 24))


def _mulhi(a, b0, b1, out, t0, t1, t2):
    """``out`` = the high word of a * b, for b = b1 * 2**32 + b0 below 2**60."""
    np.bitwise_and(a, _M32, out=t0)  # a0
    np.multiply(t0, b0, out=out)
    out >>= _32
    out += np.multiply(t0, b1, out=t0)
    np.right_shift(a, _32, out=t1)  # a1
    np.multiply(t1, b0, out=t0)  # p10
    t1 *= b1
    out += np.bitwise_and(t0, _M32, out=t2)  # the middle column: a0 b1, p10's low, p00's high
    out >>= _32
    out += np.right_shift(t0, _32, out=t0)
    out += t1


def _odd(whole, fraction):
    """Round to odd in place: set ``whole``'s last bit if ``fraction``
    (< 2**63, spent) is not 0."""
    fraction += _M63
    fraction >>= _63
    whole |= fraction


def _shortest(bits, rows, flag):
    """Schubfach's f for the normal doubles ``bits``, with 17 digits, and
    decpt + _P0, as ``rows[0]`` and ``rows[1]``; rows 2-11 are spent."""
    c, cp, r, cp0, cp1, g, low, mid, high, t0, t1, t2 = rows[:12]
    np.bitwise_and(bits, _M52, out=c)
    np.right_shift(bits, _52, out=r)
    r &= _2047
    np.subtract(c, _1, out=t0)
    t0 >>= _63
    r |= np.left_shift(t0, _11, out=t0)  # + 2048 for a power of two, c == 0
    row = r.view(np.int64)
    c |= _HIDDEN
    _SCALE.take(row, out=cp, mode="clip")
    cp *= c  # 4c * 2**h, below 2**60: g * cp / 2**127 is 4v * 10**-k
    np.bitwise_and(cp, _M32, out=cp0)
    np.right_shift(cp, _32, out=cp1)
    np.multiply(_G0.take(row, out=g, mode="clip"), cp, out=low)  # g * cp = high:mid:low, in words
    _mulhi(g, cp0, cp1, mid, t0, t1, t2)
    _G1.take(row, out=g, mode="clip")
    mid += np.multiply(cp, g, out=cp)
    _mulhi(g, cp0, cp1, high, t0, t1, t2)
    high += np.less(mid, cp, out=flag)
    whole, fraction = high, mid
    np.right_shift(fraction, _63, out=t0)
    whole <<= _1
    whole |= t0  # in units of 2**127
    fraction &= _M63  # in units of 2**64; the low word is dropped
    vbr, vbl, m = g, cp0, cp  # the interval's ends, each rounded to odd
    np.add(fraction, _UP_FRACTION.take(row, out=m, mode="clip"), out=m)
    m += np.greater(low, _UP_LOW_COMPLEMENT.take(row, out=t0, mode="clip"), out=flag)
    np.add(whole, _UP.take(row, out=vbr, mode="clip"), out=vbr)
    vbr += np.right_shift(m, _63, out=t0)
    m &= _M63
    _odd(vbr, m)
    np.subtract(fraction, _DOWN_FRACTION.take(row, out=t0, mode="clip"), out=m)
    m -= np.less(low, _DOWN_LOW.take(row, out=t0, mode="clip"), out=flag)
    np.subtract(whole, _DOWN.take(row, out=t0, mode="clip"), out=vbl)
    vbl -= np.right_shift(m, _63, out=t0)
    m &= _M63
    _odd(vbl, m)
    vb = whole
    _odd(vb, fraction)
    # s = vb // 4 and its multiple of 10 below: which are in the interval,
    # narrowed by one unit for an odd c, as 0/1 from the sign of a difference.
    c &= _1
    vbl += c  # lowest
    vbr -= c  # highest
    s, sp, u_out, w_out, up_out, t = cp1, mid, low, t0, t1, t2
    np.right_shift(vb, _2, out=s)
    np.bitwise_and(vb, _NOT3, out=sp)
    np.subtract(sp, vbl, out=u_out)
    u_out >>= _63
    np.subtract(vbr, sp, out=w_out)
    w_out -= _4
    w_out >>= _63
    sp //= _40
    sp *= _10  # s rounded down to a multiple of 10
    np.subtract(np.left_shift(sp, _2, out=t), vbl, out=up_out)
    up_out >>= _63
    wp_out = vbr
    wp_out -= t
    wp_out -= _40
    wp_out >>= _63
    f = c
    np.bitwise_and(s, _1, out=f)
    f += vb
    f += _1
    f >>= _2  # both s and s + 1 are in: the nearer, ties to even
    s += u_out
    s -= f
    u_out ^= w_out
    u_out *= s
    f += u_out  # only one is
    sp += np.multiply(up_out, _10, out=t)
    sp -= f
    up_out ^= wp_out
    up_out *= sp
    f += up_out  # only one of sp and sp + 10 is
    short = t0
    np.subtract(f, _E16, out=short)
    short >>= _63
    np.multiply(short, _9, out=t)
    t += _1
    f *= t
    p = _DECPT.take(row, out=cp, mode="clip")
    p -= short
    return f, p


def _block(values, work):
    """The lines of a block's values, as ASCII bytes, made in ``work``."""
    rows, flag, out, keep = work.arrays(len(values))
    bits = values.view(np.uint64)
    f, p = _shortest(bits, rows, flag)  # f's digits: a, then the 4-digit groups h1 h2 l1 l2
    a, t, zeros, n, single, length = rows[2:8]
    ones, fours, words = rows[8:10], rows[10:12], rows[12:14]
    f -= np.multiply(np.floor_divide(f, _E16, out=a), _E16, out=t)
    np.subtract(f, np.multiply(np.floor_divide(f, _E8, out=ones[0]), _E8, out=t), out=ones[1])
    ones -= np.multiply(np.floor_divide(ones, _E4, out=fours), _E4, out=words)
    _TRAILING.take(ones[1].view(np.int64), out=zeros, mode="clip")
    more = np.flatnonzero(np.equal(ones[1], _0, out=flag))  # l2 is 0000: count on into l1, h2, h1
    for group in (fours[1], ones[0], fours[0]):
        if not more.size:
            break
        zeros[more] += _TRAILING.take(group[more].view(np.int64))
        more = more[group[more] == 0]
    _DIGITS.take(fours.view(np.int64), out=words, mode="clip")
    _DIGITS.take(ones.view(np.int64), out=fours, mode="clip")
    words |= np.left_shift(fours, _32, out=fours)
    hi8, lo8 = words
    p = p.view(np.int64)  # the digits, then the suffix after the ones shown
    np.subtract(_17, zeros, out=n)  # significant digits
    np.subtract(n, _EXPONENT_FORM.take(p, out=t, mode="clip"), out=single)
    single >>= _63  # d e+XX: no point
    np.maximum(n, _FIXED.take(p, out=t, mode="clip"), out=n)  # digits shown
    _TAIL.take(p, out=length, mode="clip")
    length += n
    length -= single
    n <<= _3
    suffix, shift, x0, x1, x2 = f, zeros, a, lo8, ones[0]
    _SUFFIX.take(p, out=suffix, mode="clip")
    np.right_shift(lo8, _56, out=x2)
    x2 |= np.left_shift(suffix, np.subtract(n, _128, out=shift), out=t)
    x2 |= np.right_shift(suffix, np.subtract(_128, n, out=shift), out=t)
    x1 <<= _8
    x1 |= np.right_shift(hi8, _56, out=t)
    x1 |= np.left_shift(suffix, np.subtract(n, _64, out=shift), out=t)
    x1 |= np.right_shift(suffix, np.subtract(_64, n, out=shift), out=t)
    hi8 <<= _8
    x0 |= hi8
    x0 |= np.left_shift(suffix, n, out=t)
    pad, pad_rs, point, carry, below = ones[1], fours[0], fours[1], hi8, n
    _PAD.take(p, out=pad, mode="clip")  # then zeros in front of a value below 1
    _PAD_RS.take(p, out=pad_rs, mode="clip")
    x2 *= pad
    x2 |= np.right_shift(x1, pad_rs, out=t)
    x1 *= pad
    x1 |= np.right_shift(x0, pad_rs, out=t)
    x0 *= pad
    _POINT_AT.take(p, out=point, mode="clip")
    point += np.multiply(single, _24, out=single)
    point = point.view(np.int64)
    for i, word in enumerate((x0, x1, x2)):  # bytes from the point on move up one
        _BELOW[i].take(point, out=below, mode="clip")
        below &= word
        word ^= below
        np.left_shift(word, _8, out=t)
        t |= below
        if i:
            t |= carry
        t |= _POINT[i].take(point, out=below, mode="clip")
        np.bitwise_xor(t, _ZEROS, out=out[:, i])
        np.right_shift(word, _56, out=carry)
    np.right_shift(bits, _52, out=t)
    t -= _1
    special = np.greater_equal(t, _2046, out=flag)  # not positive, normal and finite
    left = special.any()
    if left:
        length[special] = 0
    _KEEP.take(length.view(np.int64), axis=0, out=keep, mode="clip")
    text = out.view(np.uint8).reshape(-1, 24)[keep].tobytes()
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
    return stream([values])


def stream(chunks):
    """``lines`` of each array of ``chunks`` in turn, taken as they are
    wanted, every block made in one set of work arrays."""
    work = _Work()
    for values in chunks:
        values = np.ascontiguousarray(values, dtype=np.float64)
        for i in range(0, len(values), _BLOCK):
            yield _block(values[i:i + _BLOCK], work)
