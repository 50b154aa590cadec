"""Text sample lines read in numpy: ``float()``'s value of each plain decimal line.

``blocks`` reads a file or stream in order, into one reused buffer, as
blocks of whole lines, each ended by ``\\n``.  ``Work.values`` reads each
line of 2 to 24 bytes made of digits and one "." (what ``repr`` writes
in fixed notation) in whole-array operations, written into one stream's
work arrays, and leaves every other line to the caller.

A line is three little-endian 64-bit words, the 24 bytes up to its end,
each shifted together from two aligned words of the block's buffer; the
bytes before its start are cleared and each byte is xored with "0".
SWAR tests find the "." and any byte that is not a digit, and three
multiply-shift steps (simdjson's eight-digit parse) turn each word's
eight digits, the point read as a 0, into a number below 10**8.  The
words make N, which must be below 10**19 (a first word below 1000).
With f digits after the point, F = N mod 10**f and m = (N - F) / 10 + F
are the digits without the point, and the value is m / 10**f.

m and 10**f (f <= 23) are exact in the x87 80-bit ``longdouble``, whose
division rounds once, to 64 bits; rounding that to a double gives the
double nearest m / 10**f, as ``float()`` does, unless the 64-bit
quotient is a double's midpoint (low 11 bits 0x400), which is left to
the caller.  This is Clinger's exact division ("How to read floating
point numbers accurately", PLDI 1990) in a wider type.  Where
``longdouble`` is not the x87 type, the division is in float64 and
takes only Clinger's exact case, m <= 2**53 and f <= 22.
"""

import os

import numpy as np

_BLOCK = 1 << 16  # bytes read at a time: about 3,600 sampled lines

_PAD = 24  # zero bytes in front of a block: a line's three words end at its end
_TAIL = 8  # bytes after a block, read with its last word
_U = np.uint64
_0, _1, _3, _7, _10, _56, _64 = map(_U, (0, 1, 3, 7, 10, 56, 64))
_1000, _E8, _E16, _EXACT = _U(1000), _U(10**8), _U(10**16), _U(2**53)
_POINT, _LOW11, _HALF = _U(0x1E), _U(0x7FF), _U(0x400)  # "." xor "0"; a midpoint's low 11 bits
_NEXT, _NEWLINE = np.array([[1], [2], [3]]), np.uint8(10)
_ZEROS = _U(0x3030303030303030)  # "0" in each byte
_POINTS = _U(0x1E1E1E1E1E1E1E1E)  # "." xor "0" in each byte
_ONES, _HIGH = _U(0x0101010101010101), _U(0x8080808080808080)
_LOW7, _TEN_UP = _U(0x7F7F7F7F7F7F7F7F), _U(0x7676767676767676)
# Each step joins pairs of digit lanes: x * (scale * 2**shift + 1) >> shift
# puts 10*a + b in lane a's place, and the mask drops the lanes between.
_LANES = [(_U(10 << 8 | 1), _U(8), _U(0x00FF00FF00FF00FF)),
          (_U(100 << 16 | 1), _U(16), _U(0x0000FFFF0000FFFF)), (_U(10000 << 32 | 1), _U(32), None)]
# _KEEP[k, size]: the mask that clears word k's 24 - 8k - size bytes
# before the start of a line of ``size`` bytes (any size >= 24 keeps all).
_KEEP = np.array([[2**64 - (1 << 8 * min(max(24 - 8 * k - size, 0), 8)) for size in range(25)]
                  for k in range(3)], np.uint64)
# A point at byte j of word k has f = 23 - 8k - j digits after it: the
# word's one bit there, times _AFTER[k], has f + 1 in its top byte.
_AFTER = np.array([[sum((17 - 8 * k + i) << 8 * i for i in range(8))] for k in range(3)],
                  np.uint64)
_POW10 = np.array([10**min(f, 19) for f in range(24)], np.uint64)  # 10**19 > any N
_X87 = np.finfo(np.longdouble).nmant == 63
_POW10_WIDE = np.cumprod(np.r_[1, np.full(23, 10)].astype(np.longdouble))  # exact to 10**27
_POW10_F64 = np.array([float(10**f) for f in range(24)])  # exact to 10**22


def blocks(fd):
    """The bytes of file or stream ``fd`` from its offset on, in order, as
    blocks of whole lines, the last of which may lack its line ending.

    Each block is ``(text, size)``: the block is ``text[24:24 + size]``,
    behind 24 zero bytes and before at least 8 more, in one buffer that
    every read reuses, so a block is spent once the next is asked for.
    Each read of ``_BLOCK`` bytes goes in after the carried bytes of a
    line not yet ended, and is cut after its last line ending; a long
    line doubles the buffer.  No block holds half of a ``\\r\\n``, so each
    one's ``\\r\\n`` and lone ``\\r`` can be read as ``\\n`` in place before
    it is yielded.
    """
    text, have = bytearray(_PAD + _BLOCK + _TAIL), 0  # have: the carried bytes, from _PAD on
    while True:
        end = _PAD + have
        if len(text) < end + _BLOCK + _TAIL:
            text = text[:end] + bytearray(max(len(text), end + _BLOCK + _TAIL))
        got = os.readv(fd, [memoryview(text)[end:end + _BLOCK]])
        if not got:
            break
        # A final \r may be the first half of \r\n: not an ending yet.
        cut = max(text.rfind(b"\n", end, end + got), text.rfind(b"\r", end, end + got - 1)) + 1
        end += got
        if cut:
            yield text, _ended(text, cut - _PAD)
            text[_PAD:_PAD + end - cut] = text[cut:end]
            end -= cut - _PAD
        have = end - _PAD
    if have:
        yield text, _ended(text, have)


def _newlines(block):
    """``block`` with each ``\\r\\n``, then each lone ``\\r``, read as ``\\n``."""
    return block.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in block else block


def _ended(text, size):
    """The size of block ``text[24:24 + size]`` once ``_newlines`` has
    read its line endings, in place."""
    if text.find(b"\r", _PAD, _PAD + size) < 0:
        return size
    block = _newlines(text[_PAD:_PAD + size])
    text[_PAD:_PAD + len(block)] = block
    return len(block)


class Work:
    """One stream's work arrays: the kernel writes every step of a block
    into them, so what ``values`` returns is spent by the next call.
    They grow, to an eighth more than a block needs, only for a block of
    more lines or bytes than any before; a block of n lines takes their
    first n words of each row, so its rows are contiguous whatever n is."""

    def __init__(self):
        self._newline = np.empty(0, bool)
        self._grow(0)

    def _grow(self, lines):
        self._u64 = np.empty(11 * lines, np.uint64)
        self._i64 = np.empty(2 * lines, np.int64)
        self._bool = np.empty(2 * lines, bool)
        self._got = np.empty(lines, np.float64)
        self._wide = np.empty(2 * lines, np.longdouble)

    def values(self, text, size):
        """``(got, left, starts, ends)`` for the block ``text[24:24 + size]``,
        behind 24 zero bytes and before 8 more of any value: line j is
        ``block[starts[j]:ends[j]]``, and ``got[j]`` is its ``float()``
        value unless ``left[j]``, a line ``values`` does not take.  All four
        are spent by the next call."""
        if size > self._newline.size:
            self._newline = np.empty(size + size // 8, bool)
        newline = self._newline[:size]
        np.equal(np.frombuffer(text, np.uint8, size, _PAD), _NEWLINE, out=newline)
        ends = np.flatnonzero(newline)
        if not size or not newline[-1]:
            ends = np.append(ends, size)
        n = ends.size
        if n > self._got.size:
            self._grow(n + n // 8)
        u64 = self._u64[:11 * n].reshape(11, n)
        x, one, t, (r, fraction) = u64[0:3], u64[3:6], u64[6:9], u64[9:11]
        starts, length = self._i64[:2 * n].reshape(2, n)
        taken, test = self._bool[:2 * n].reshape(2, n)
        got = self._got[:n]
        starts[0] = 0
        np.add(ends[:-1], 1, out=starts[1:])
        np.subtract(ends, starts, out=length)
        # Word k of a line ending at e is text's 8 bytes from e + 8k: the
        # aligned words e // 8 + k and the next, shifted together.
        words, at, right, left = u64[3:7], u64[7:11].view(np.intp), r, fraction
        np.right_shift(ends, 3, out=at[0])
        np.add(at[0], _NEXT, out=at[1:])
        np.frombuffer(text, np.uint64, len(text) // 8).take(at, out=words, mode="clip")
        np.bitwise_and(ends.view(np.uint64), _7, out=right)
        right <<= _3
        np.subtract(_64, right, out=left)
        np.right_shift(words[:3], right, out=x)
        x |= np.left_shift(words[1:], left, out=words[1:])
        x ^= _ZEROS
        x &= _KEEP.take(length, axis=1, out=t, mode="clip")
        np.bitwise_xor(x, _POINTS, out=one)
        np.bitwise_and(one, _LOW7, out=t)
        t += _LOW7
        t |= one
        np.invert(t, out=one)
        one &= _HIGH
        one >>= _7  # a 1 in each ".", a 0 elsewhere
        x ^= np.multiply(one, _POINT, out=t)  # the point reads as a 0 digit
        np.bitwise_and(x, _LOW7, out=t)
        t += _TEN_UP
        t |= x
        t &= _HIGH  # the high bit of each byte above 9
        # Digits and one point, in 2 to 24 bytes.
        np.equal(np.maximum.reduce(t, axis=0, out=r), _0, out=taken)
        np.add.reduce(one, axis=0, out=r)
        r *= _ONES
        r >>= _56
        taken &= np.equal(r, _1, out=test)
        taken &= np.greater_equal(length, 2, out=test)
        taken &= np.less_equal(length, 24, out=test)
        one *= _AFTER
        np.add.reduce(one, axis=0, out=r)
        r >>= _56
        r -= _1
        f = r.view(np.intp)
        for scale, shift, mask in _LANES:  # 8 digits a word, then 4, 2, 1 numbers
            x *= scale
            x >>= shift
            if mask is not None:
                x &= mask
        digits, m = x[0], x[0]
        taken &= np.less(digits, _1000, out=test)  # N < 10**19
        digits *= _E16
        digits += np.multiply(x[1], _E8, out=fraction)
        digits += x[2]
        np.remainder(digits, _POW10.take(f, out=fraction, mode="clip"), out=fraction)
        m -= fraction
        m //= _10
        m += fraction
        if _X87:
            q, d = self._wide[:2 * n].reshape(2, n)
            np.copyto(q, m)
            q /= _POW10_WIDE.take(f, out=d, mode="clip")
            # Each 80-bit value's low 64 bits, its mantissa.
            mantissa = np.ndarray(q.shape, "<u8", q, 0, (q.itemsize,))
            np.bitwise_and(mantissa, _LOW11, out=fraction)
            taken &= np.not_equal(fraction, _HALF, out=test)
            np.copyto(got, q, casting="same_kind")
        else:
            taken &= np.less_equal(m, _EXACT, out=test)
            taken &= np.less_equal(f, 22, out=test)
            np.copyto(got, m)
            got /= _POW10_F64.take(f, out=t[0].view(np.float64), mode="clip")
        return got, np.logical_not(taken, out=taken), starts, ends


def values(block):
    """``Work().values`` of one block of bytes on its own."""
    return Work().values(bytes(_PAD) + block + bytes(_TAIL), len(block))
