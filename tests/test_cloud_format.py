"""The cloud export's row formatter writes every double as "%.17g" does."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import printf_rows
from veronese.cli import _format_rows


def assert_formats_like_printf(block):
    got, want = _format_rows(block).split("\n"), printf_rows(block).split("\n")
    assert len(got) == len(want)
    # the first row that differs, not a diff of the whole text
    assert next(((g, w) for g, w in zip(got, want) if g != w), None) is None


def as_rows(values, k):
    values = np.asarray(values, dtype=np.float64)
    return values[: values.size // k * k].reshape(-1, k)


def ulps_around(value, count):
    """The 2 * count + 1 doubles nearest to value (a positive normal double)."""
    center = np.array(value, dtype=np.float64).view(np.int64)
    return (center + np.arange(-count, count + 1)).view(np.float64)


# the kernel's own path covers 1e-4 <= |x| < 1; printf itself writes the rest
FAST_BAND = st.floats(1e-4, 1.0, exclude_max=True)
VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   FAST_BAND, FAST_BAND.map(lambda v: -v))


@given(st.integers(1, 8).flatmap(
    lambda k: st.lists(st.lists(VALUES, min_size=k, max_size=k), min_size=1, max_size=8)))
@example([[0.1, -0.1, 1e-4, -1e-4, 0.9999999999999999]])
@example([[0.0, -0.0, 1.0, -1.0, 5e-324, 1.7976931348623157e308]])
@example([[0.10000228881835938, 0.10000991821289062]])
@settings(max_examples=300, deadline=None)
def test_format_rows_matches_printf(rows):
    assert_formats_like_printf(np.array(rows, dtype=np.float64))


def test_the_fast_band_has_exactly_17_digits():
    # the kernel counts the zeros after the point of |x| by comparing it with
    # these doubles: each lies above its power of ten, so no double falls
    # between the two, and |x| 10^(17 + zeros) lies in [1e16, 1e17)
    for k, threshold in enumerate([0.1, 0.01, 0.001, 1e-4], start=1):
        assert Fraction(threshold) > Fraction(1, 10**k)
    # the largest double below each 10^-zeros stays below 10^17 - 1/2 when
    # scaled, so none rounds up to 18 digits
    for zeros in range(4):
        below = np.nextafter(10.0**-zeros, 0.0)
        assert Fraction(float(below)) * 10 ** (17 + zeros) < 10**17 - Fraction(1, 2)


@pytest.mark.parametrize("k", [1, 7])
def test_format_rows_near_powers_of_ten_and_one(k):
    near = np.concatenate([ulps_around(10.0**-e, 2000) for e in range(1, 6)]
                          + [ulps_around(1.0, 2000)])
    assert_formats_like_printf(as_rows(np.concatenate([near, -near]), k))


def test_format_rows_on_zeros_subnormals_and_non_finite_values():
    subnormal = np.random.default_rng(3).integers(1, 2**52, 1000).view(np.float64)
    values = np.concatenate([[0.0, -0.0, 5e-324, 2.225073858507201e-308,
                              np.inf, -np.inf, np.nan], subnormal])
    assert_formats_like_printf(as_rows(np.concatenate([values, -values]), 5))


def test_format_rows_rounds_ties_half_to_even():
    # j / 2**(18 + z) for odd j has 18 significant digits, the last a 5, when it
    # lies in [10**-(1 + z), 10**-z): an exact tie at 17 digits
    ties = []
    for z in range(4):
        scale = 2.0 ** (18 + z)
        lo, hi = int(np.ceil(10.0 ** -(1 + z) * scale)), int(10.0**-z * scale)
        ties.append(np.arange(lo | 1, hi, 2) / scale)
    ties = np.concatenate(ties)
    assert ties.size > 140_000
    assert_formats_like_printf(as_rows(np.concatenate([ties, -ties]), 9))


def test_format_rows_on_random_bit_patterns():
    rng = np.random.default_rng(20181224)
    bits = rng.integers(0, 2**64, size=2_000_000, dtype=np.uint64)
    # and random doubles of every binade from 2**-14 to 2**-1, either sign
    band = (rng.integers(0, 2, 500_000, dtype=np.uint64) << np.uint64(63)
            | rng.integers(1023 - 14, 1023, 500_000, dtype=np.uint64) << np.uint64(52)
            | rng.integers(0, 2**52, 500_000, dtype=np.uint64))
    values = np.concatenate([bits, band]).view(np.float64).reshape(-1, 10)
    for start in range(0, len(values), 10_000):
        assert_formats_like_printf(values[start:start + 10_000])
