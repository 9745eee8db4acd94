"""The bulk ``'%.17g'`` kernel of the wavefunction dumps is byte-exact.

Every case compares the kernel's text with Python's own ``'%.17g' % x``,
value by value, over the doubles where a fast path is most likely to slip:
arbitrary floats and bit patterns, the neighbours of every power of ten
(where the exponent guess and the fixed/exponent switch turn), and the
fallback alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsse import _g17


def kernel_lines(values, end="\n"):
    cells = _g17.g17_cells(np.asarray(values, dtype=np.float64), end)
    return _g17.cells_text(cells).split(end)[:-1]


def python_lines(values):
    return ["%.17g" % x for x in np.asarray(values, dtype=np.float64).tolist()]


def assert_exact(values):
    got, expected = kernel_lines(values), python_lines(values)
    assert len(got) == len(expected)
    mismatches = [(x, e, g) for x, e, g in zip(np.ravel(values), expected, got) if e != g]
    assert mismatches == []


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_any_single_float(x):
    assert kernel_lines([x]) == ["%.17g" % x]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=50))
def test_any_array_of_floats(values):
    assert_exact(np.array(values, dtype=np.float64))


def test_every_power_of_ten_and_its_neighbours():
    powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
    assert_exact(np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)]))


def test_a_million_random_bit_patterns():
    bits = np.random.default_rng(20261020).integers(0, 2**64, size=10**6, dtype=np.uint64)
    assert_exact(bits.view(np.float64))


def test_the_fallback_alone_gives_the_same_bytes(monkeypatch):
    rng = np.random.default_rng(7)
    values = np.concatenate([
        rng.standard_normal(2000) * 10.0 ** rng.integers(-30, 30, 2000),
        rng.integers(0, 2**64, size=2000, dtype=np.uint64).view(np.float64),
    ])
    fast = _g17.cells_text(_g17.g17_cells(values, " "), _g17.g17_cells(-values, "\n"))
    monkeypatch.setattr(_g17, "_TIE_MARGIN", 0.5)  # no value is far enough from a tie
    slow = _g17.cells_text(_g17.g17_cells(values, " "), _g17.g17_cells(-values, "\n"))
    assert slow == fast
    assert slow == "".join(f"{'%.17g' % x} {'%.17g' % -x}\n" for x in values.tolist())


@pytest.mark.parametrize("size", [0, 1, _g17._BLOCK - 1, _g17._BLOCK, 2 * _g17._BLOCK + 1])
def test_arrays_across_block_boundaries(size):
    assert_exact(np.random.default_rng(size).standard_normal(size) * 1e-3)
