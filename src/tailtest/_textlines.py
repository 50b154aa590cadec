"""Text sample lines read in numpy: ``float()``'s value of each plain decimal line.

``blocks`` reads a file or stream in order as blocks of whole lines,
each ended by ``\\n``.  ``values`` reads each line of 2 to 24 bytes made
of digits and one "." (what ``repr`` writes in fixed notation) in
whole-array operations, and leaves every other line to the caller.

A line is three little-endian 64-bit words, the 24 bytes up to its end,
loaded unaligned; the bytes before its start are cleared and each byte
is xored with "0".  SWAR tests find the "." and any byte that is not a
digit, and three multiply-shift steps turn each word's eight digits,
the point read as a 0, into a number below 10**8.  The words make N,
which must be below 10**19 (a first word below 1000).  With f digits
after the point, F = N mod 10**f and m = (N - F) / 10 + F are the
digits without the point, and the value is m / 10**f.

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

_BLOCK = 1 << 15  # bytes read at a time: about 1,800 sampled lines

_U = np.uint64
_ZEROS = _U(0x3030303030303030)  # "0" in each byte
_POINTS = _U(0x1E1E1E1E1E1E1E1E)  # "." xor "0" in each byte
_ONES, _HIGH = _U(0x0101010101010101), _U(0x8080808080808080)
_LOW7, _TEN_UP = _U(0x7F7F7F7F7F7F7F7F), _U(0x7676767676767676)
_LANES = [(_U(10), _U(8), _U(0x00FF00FF00FF00FF)), (_U(100), _U(16), _U(0x0000FFFF0000FFFF)),
          (_U(10000), _U(32), _U(0xFFFFFFFF))]
_WORDS = np.array([[0], [8], [16]])  # word k of a line starts 24 - 8k bytes before its end
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

    Each read of ``_BLOCK`` bytes is cut after its last line ending.
    What follows is carried to the next cut as a list of reads, joined
    once, so a long line is not copied over and over.  No block holds
    half of a ``\\r\\n``, so ``_newlines`` can end its lines with ``\\n``.
    """
    rest = []
    while block := os.read(fd, _BLOCK):
        # A final \r may be the first half of \r\n: not an ending yet.
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1)) + 1
        if cut:
            yield _newlines(b"".join([*rest, block[:cut]]))
            rest = []
        rest.append(block[cut:])
    if tail := b"".join(rest):
        yield _newlines(tail)


def _newlines(block):
    """``block`` with each ``\\r\\n``, then each lone ``\\r``, read as ``\\n``."""
    return block.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in block else block


def values(block):
    """``(got, left, starts, ends)`` for a block that ``blocks`` yields:
    line j is ``block[starts[j]:ends[j]]``, and ``got[j]`` is its
    ``float()`` value unless ``left[j]``, a line ``values`` does not take.
    """
    ends = np.flatnonzero(np.frombuffer(block, np.uint8) == 10)
    if not block.endswith(b"\n"):
        ends = np.append(ends, len(block))
    starts = np.concatenate(([0], ends[:-1] + 1))
    size = ends - starts
    padded = bytes(24) + block  # word k of a line ending at e is at e + 8k here
    # Indexing the unaligned view copies 3 words a line; take would copy all of it first.
    x = np.ndarray((len(padded) - 7,), "<u8", padded, 0, (1,))[ends + _WORDS] ^ _ZEROS
    x &= _KEEP.take(size, axis=1, mode="clip")
    one = x ^ _POINTS
    one = (~(((one & _LOW7) + _LOW7) | one) & _HIGH) >> _U(7)  # a 1 in each ".", a 0 elsewhere
    x ^= one * _U(0x1E)  # the point reads as a 0 digit
    not_digit = (((x & _LOW7) + _TEN_UP) | x) & _HIGH  # the high bit of each byte above 9
    # Digits and one point, in 2 to 24 bytes.
    taken = ((not_digit.max(axis=0) == 0) & ((one.sum(axis=0) * _ONES) >> _U(56) == 1)
             & (size >= 2) & (size <= 24))
    f = ((one * _AFTER).sum(axis=0) >> _U(56)).astype(np.intp) - 1
    for scale, shift, mask in _LANES:  # 8 digits a word, then 4, 2, 1 numbers
        x = (x * scale + (x >> shift)) & mask
    taken &= x[0] < 1000  # N < 10**19
    digits = x[0] * _U(10**16) + x[1] * _U(10**8) + x[2]
    fraction = digits % _POW10.take(f, mode="clip")
    m = (digits - fraction) // _U(10) + fraction
    if _X87:
        q = m.astype(np.longdouble) / _POW10_WIDE.take(f, mode="clip")
        mantissa = np.ndarray(q.shape, "<u8", q, 0, (q.itemsize,))  # each 80-bit value's low 64
        taken &= mantissa & _U(0x7FF) != 0x400
        got = q.astype(np.float64)
    else:
        taken &= (m <= _U(2**53)) & (f <= 22)
        got = m.astype(np.float64) / _POW10_F64.take(f, mode="clip")
    return got, ~taken, starts, ends
