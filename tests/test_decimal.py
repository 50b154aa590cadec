"""The text writer's kernel, ``_decimal.lines``, byte for byte against ``repr``."""

import math

import numpy as np
import pytest

import tailtest as tt
from tailtest._decimal import _BLOCK, lines, stream

_TINY = 2.2250738585072014e-308  # the smallest normal double


def _assert_repr_lines(values):
    values = np.asarray(values, dtype=np.float64)
    got = b"".join(lines(values))
    expected = "".join(f"{v!r}\n" for v in values.tolist()).encode("ascii")
    if got != expected:
        pairs = zip(values.tolist(), got.splitlines(), expected.splitlines())
        v, line, want = next((v, a, b) for v, a, b in pairs if a != b)
        pytest.fail(f"{v!r} ({v.hex()}): {line!r}, not {want!r}")


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, math.inf)])


def test_random_bit_patterns():
    # Every positive finite double is as likely as any other, so 1 in
    # 2,048 is subnormal.
    bits = np.random.default_rng(20261020).integers(1, 0x7FF0000000000000, 1_000_000,
                                                    dtype=np.uint64)
    _assert_repr_lines(bits.view(np.float64))


def test_powers_of_two_and_ten_and_their_neighbours():
    # A power of two's interval is asymmetric; a power of ten's is the
    # shortest decimal there is.
    _assert_repr_lines(_with_neighbours([2.0**e for e in range(-1074, 1024)]))
    _assert_repr_lines(_with_neighbours([float(f"1e{e}") for e in range(-323, 309)]))


def test_notation_seams_and_edges():
    # Fixed notation holds for 1e-4 <= v < 1e16; then the neighbours of
    # 2**53, the normal range's ends, zero and subnormals.
    _assert_repr_lines(_with_neighbours([1e-4, 1e-5, 1e15, 1e16, 0.1, 1.0, 10.0,
                                         9.999999999999999e-05, 9999999999999998.0,
                                         2.0**53 - 1, 2.0**53, 2.0**53 + 2, _TINY]))
    largest = 1.7976931348623157e308
    _assert_repr_lines([largest, np.nextafter(largest, 0.0), 0.0, 5e-324, 1e-323, _TINY / 2])


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
    _assert_repr_lines(tt.sample(tt.model_from_name(name, params), 20_000, seed=3))


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_block_edges(n):
    values = tt.sample(tt.Lomax(1.0, 1.0), n, seed=5)
    _assert_repr_lines(values)
    texts = list(lines(values))
    assert [t.count(b"\n") for t in texts] == [len(b) for b in np.split(
        values, range(_BLOCK, n, _BLOCK))]


def test_a_stream_reuses_its_work_arrays_at_every_size():
    # Blocks of _BLOCK values, then fewer, then _BLOCK again, made in one
    # set of work arrays: every block's bytes are its own, unchanged by
    # the blocks made after it.
    values = tt.sample(tt.Lomax(1.0, 1.0), 3 * _BLOCK + 17, seed=7)
    sizes = [_BLOCK + 5, 3, 1, 2 * _BLOCK + 1, 7]
    chunks = np.split(values, np.cumsum(sizes)[:-1])
    texts = list(stream(chunks))
    assert [t.count(b"\n") for t in texts] == [_BLOCK, 5, 3, 1, _BLOCK, _BLOCK, 1, 7]
    assert texts == [text for chunk in chunks for text in lines(chunk)]
    _assert_repr_lines(values)
    assert b"".join(texts) == b"".join(lines(values))


def test_no_values_are_no_blocks():
    assert list(lines(np.empty(0))) == []


def test_values_it_does_not_compute_are_written_by_repr():
    # Zero, subnormals, and negative or non-finite values, alone, in runs
    # and at both ends of a block, among values the kernel writes.
    values = tt.sample(tt.Lomax(1.0, 1.0), 2 * _BLOCK + 3, seed=6)
    odd = [0.0, -0.0, 5e-324, _TINY / 3, -1.5, -_TINY, math.inf, -math.inf, math.nan,
           -1e300]
    for at in (0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 2):
        values[at] = odd[at % len(odd)]
    values[100:100 + len(odd)] = odd
    _assert_repr_lines(values)
    _assert_repr_lines(odd)
    _assert_repr_lines(np.full(_BLOCK + 1, 5e-324))
