from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from veronese import constants
from veronese.constants import (ambient_dims, radius_pow4, rational_str,
                                step_constants)


def test_radius_base_values():
    assert radius_pow4(1) == 1
    assert radius_pow4(2) == Fraction(9, 4)  # r_2^2 = 3/2
    assert radius_pow4(3) == 8               # r_3 = 2^(3/4)


@given(st.integers(min_value=1, max_value=constants.MAX_LEVEL))
def test_radius_closed_equals_recursive(n):
    assert radius_pow4(n, "closed") == radius_pow4(n, "recursive")


def test_step_constants_values():
    assert step_constants(2) == (Fraction(4), Fraction(1, 3))
    assert step_constants(3) == (Fraction(4, 3), Fraction(1, 18))


@pytest.mark.parametrize("n", range(2, constants.MAX_LEVEL + 1))
def test_step_constant_ratio(n):
    a_sq, b_sq = step_constants(n)
    assert a_sq == 2 * n * (n + 1) * b_sq
    if n == 5:
        assert a_sq / b_sq == 60


def test_ambient_dims_values():
    assert ambient_dims(1) == (1, 2)
    assert ambient_dims(2) == (4, 7)
    assert ambient_dims(3) == (8, 14)


def test_ambient_dims_recursions():
    n_prev, m_prev = ambient_dims(1)
    for n in range(2, constants.MAX_LEVEL + 1):
        n_cur, m_cur = ambient_dims(n)
        assert n_cur == n_prev + n + 1
        assert m_cur == m_prev + 2 * n + 1
        # the new coordinate block of the complex step has 2n + 2 entries
        assert m_cur + 1 == (m_prev + 1) + 2 * n + 1
        n_prev, m_prev = n_cur, m_cur


@pytest.mark.parametrize("n", range(1, constants.MAX_LEVEL + 1))
def test_component_count_is_harmonic_dimension(n):
    # N_n + 1 coordinates = dimension of the degree-2 harmonics on the n-sphere
    n_dim, _ = ambient_dims(n)
    assert n_dim + 1 == n * (n + 3) // 2
    assert n_dim + 1 == (n + 1) * (n + 2) // 2 - 1


@pytest.mark.parametrize("bad", [0, -1, constants.MAX_LEVEL + 1])
def test_level_domain_errors(bad):
    with pytest.raises(ValueError):
        radius_pow4(bad)
    with pytest.raises(ValueError):
        ambient_dims(bad)


def test_radius_is_cached_and_still_rejects_non_integer_levels():
    for n in range(1, constants.MAX_LEVEL + 1):
        assert constants.radius(n) == float(radius_pow4(n)) ** 0.25
        assert constants.radius(n) is constants.radius(n)
    for bad in [2.0, True, 0, constants.MAX_LEVEL + 1]:
        for _ in range(2):  # a raised error is not cached
            with pytest.raises(ValueError):
                constants.radius(bad)


def test_step_constants_rejects_base_level():
    with pytest.raises(ValueError):
        step_constants(1)


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        radius_pow4(2, mode="symbolic")


def test_rational_serialization():
    assert rational_str(Fraction(9, 4)) == "9/4"
    assert rational_str(Fraction(1)) == "1/1"
    assert rational_str(Fraction(-3, 6)) == "-1/2"
