"""The text reader's kernel, ``_textlines.values``, bit for bit against ``float()``."""

import decimal

import numpy as np
import pytest

import tailtest as tt
from tailtest import _textlines
from tailtest._textlines import Work, _newlines, blocks, values


def _taken(block: bytes) -> np.ndarray:
    """Which lines of ``block`` the kernel takes, as a mask; it cuts
    the lines ``bytes.splitlines`` cuts, and each value it takes is
    ``float()``'s, bit for bit."""
    lines, normal = block.splitlines(), _newlines(block)
    got, left, starts, ends = values(normal)
    assert [normal[s:e] for s, e in zip(starts.tolist(), ends.tolist())] == lines
    taken = np.flatnonzero(~left)
    want = np.array([float(lines[j]) for j in taken.tolist()])
    wrong = np.flatnonzero(got[taken].view(np.uint64) != want.view(np.uint64))
    if wrong.size:
        j = taken[wrong[0]]
        pytest.fail(f"{lines[j]!r}: {got[j]!r}, not {float(lines[j])!r}")
    return ~left


def _repr_block(values) -> bytes:
    return "".join(f"{v!r}\n" for v in np.asarray(values, np.float64).tolist()).encode()


def test_random_bit_patterns():
    # Every positive finite double alike, then those of the biased
    # exponents that repr writes in fixed notation, 1e-4 <= v < 1e16.
    # Every fixed-notation line is one the kernel reads; with the x87
    # type it leaves a line only on a midpoint of its 64-bit quotient,
    # about 1 in 2,048.
    rng = np.random.default_rng(20261020)
    everywhere = rng.integers(1, 0x7FF0000000000000, 200_000, dtype=np.uint64)
    fixed = rng.integers(1009 << 52, 1077 << 52, 200_000, dtype=np.uint64)
    for bits in (everywhere, fixed):
        block = _repr_block(bits.view(np.float64))
        taken = _taken(block)
        plain = np.array([b"e" not in line for line in block.splitlines()])
        assert not (taken & ~plain).any()
        assert (plain & ~taken).sum() <= plain.sum() / (500 if _textlines._X87 else 1)


@pytest.mark.parametrize("name, params", [
    ("exponential", {"lambda": 1.0}),
    ("exponential", {"lambda": 1e-300}),
    ("lomax", {"a": 1.0, "lambda": 1.0}),
    ("lomax", {"a": 0.05, "lambda": 1.0}),
    ("halfgaussian", {"sigma": 1.0}),
    ("halfgaussian", {"sigma": 1e-310}),  # every value subnormal
    ("stretchedexponential", {"gamma": 1.0, "m": 0.5}),
    ("stretchedexponential", {"gamma": 1.0, "m": 0.1}),
])
def test_each_familys_samples(name, params):
    _taken(_repr_block(tt.sample(tt.model_from_name(name, params), 20_000, seed=3)))


def test_decimals_next_to_midpoints():
    # The decimals of 17, 18 and 19 digits just below and above the
    # midpoint between a double and the next, and exact midpoints that
    # are short decimals: where a 64-bit quotient can be the midpoint,
    # which the kernel leaves.
    rng = np.random.default_rng(7)
    doubles = 10.0 ** rng.uniform(-3.0, 5.0, 3000)
    lines = [b"9007199254740993.0", b"9007199254740995.0", b"4503599627370496.5"]
    wide = decimal.Context(prec=800)
    for d in doubles.tolist():
        mid = wide.divide(wide.add(decimal.Decimal(d), decimal.Decimal(np.nextafter(d, 2 * d))), 2)
        for digits in (17, 18, 19):
            for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
                near = decimal.Context(prec=digits, rounding=rounding).plus(mid)
                lines.append(format(near, "f").encode())
    taken = _taken(b"\n".join(lines))
    assert not taken[:3].any()
    assert taken.sum() < len(lines) and (taken.any() or not _textlines._X87)


def test_random_digit_strings():
    # Two to 24 bytes of digits with one point anywhere, the digits
    # uniform or mostly zeros, so every count of digits after the point
    # and every size of integer is met.
    rng = np.random.default_rng(11)
    n = 60_000
    sizes = rng.integers(2, 25, n)
    points = (rng.random(n) * sizes).astype(int)
    digits = np.where(rng.random((n, 24)) < np.where(np.arange(n) % 2, 0.8, 0.1)[:, None],
                      0, rng.integers(0, 10, (n, 24))) + ord("0")
    digits[np.arange(n), points] = ord(".")
    rows = digits.astype(np.uint8)
    block = b"".join(rows[j, :sizes[j]].tobytes() + b"\n" for j in range(n))
    taken = _taken(block)
    assert taken.mean() > 0.5


@pytest.mark.parametrize("line, taken", [
    (b"1.5", True),
    (b"5.", True),
    (b".5", True),
    (b"0.0", True),
    (b"000000000000000000001.0", True),
    (b"0.0000000000000000000001", True),  # 24 bytes, 22 digits after the point
    (b"99999999999999999.9", _textlines._X87),  # the largest first word, 999; m > 2**53
    (b"999999999999999999.9", False),  # a first word of 9999
    (b"18446744073709551.616", False),  # 2**64 / 1000
    (b"0.00000000000000000000001", False),  # 25 bytes
    (b"123", False),  # no point
    (b"1.2.3", False),
    (b".", False),
    (b"", False),
    (b"+1.5", False),
    (b"-1.5", False),
    (b"1.5e3", False),
    (b"1e5", False),
    (b"inf", False),
    (b" 1.5", False),
    (b"1.5 ", False),
    (b"\t1.5", False),
    (b"1.5\x0b", False),
    (b"1_0.5", False),
    ("١.5".encode(), False),  # an Arabic-Indic digit one
    (b"1.5\x00", False),
    (b"\x001.5", False),
    (b"# 1.5", False),
])
def test_each_line_the_kernel_reads_or_leaves(line, taken):
    # Between two plain lines, so that the bytes before it are a line's.
    assert list(_taken(b"22.75\n" + line + b"\n3.5\n")) == [True, taken, True]


@pytest.mark.parametrize("block", [b"1.5\r\n2.5\r\n", b"1.5\r2.5\r", b"1.5\n2.5", b"1.5\r\n\r2.5"])
def test_line_endings(block):
    # \r\n, a lone \r and no final line ending end lines as splitlines does.
    assert list(_taken(block)) == [line != b"" for line in block.splitlines()]


def test_without_the_x87_type_only_exact_quotients_are_taken(monkeypatch):
    # Where longdouble is not the 80-bit type, the quotient is one float64
    # division of exact operands: m <= 2**53 and f <= 22.
    monkeypatch.setattr(_textlines, "_X87", False)
    block = _repr_block(tt.sample(tt.Lomax(1.0, 1.0), 20_000, seed=3))
    block += b"1.5\n0.30000000000000004\n900719925474099.2\n900719925474099.3\n"
    block += b"0.0000000000000000000001\n.00000000000000000000001\n"  # f = 22, 23
    taken = _taken(block)
    assert list(taken[-6:]) == [True, False, True, False, True, False]
    assert 0 < taken.sum() < 20_000


@pytest.mark.parametrize("x87", sorted({_textlines._X87, False}))
def test_a_stream_reuses_its_work_arrays_at_every_size(tmp_path, monkeypatch, x87):
    # Short lines, then long ones, then short ones again: the blocks'
    # line counts shrink and then grow, so one stream's work arrays are
    # reused at several sizes and grown once more.  Each block gives
    # what a fresh kernel gives it, and float()'s values.
    monkeypatch.setattr(_textlines, "_X87", x87)
    monkeypatch.setattr(_textlines, "_BLOCK", 4096)
    rng = np.random.default_rng(5)
    short = _repr_block(rng.integers(1, 100, 3000) / 4)  # 4-6 bytes a line
    wide = _repr_block(10.0 ** rng.uniform(-4, 15, 1500))  # up to 24 bytes a line
    p = tmp_path / "lines.txt"
    p.write_bytes(short + wide + short + short)
    work, counts = Work(), []
    with p.open("rb", buffering=0) as fh:
        for text, size in blocks(fh.fileno()):
            block = bytes(text[24:24 + size])
            got, left, starts, ends = work.values(text, size)
            fresh = values(block)
            assert np.array_equal(starts, fresh[2]) and np.array_equal(ends, fresh[3])
            assert np.array_equal(left, fresh[1])
            assert got[~left].tobytes() == fresh[0][~fresh[1]].tobytes()
            assert list(~left) == list(_taken(block))
            counts.append(starts.size)
    assert max(counts[:5]) > min(counts) < max(counts[-5:])
