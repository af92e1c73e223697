"""The sampling stream against its oracles: the words in Python ints, the
normals in math.log1p, math.cos and math.sin, block splits, and moments."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from veronese import constants, sampling
from veronese.sampling import complex_sphere_points, sphere_points

from oracles import box_muller_normals, splitmix64_words

KEYS = [0, 1, 5, 0x9E3779B9, 2**63, 2**64 - 1]


@pytest.mark.parametrize("key", KEYS)
def test_the_words_equal_the_python_int_reference(key):
    # the words of pairs first .. first + pairs - 1, even words in row 0, odd in row 1
    for first, pairs in ((0, 32), (1, 31), (2**40 + 7, 5)):
        words = sampling._pair_words(key, first, pairs)
        assert words.dtype == np.uint64 and words.shape == (2, pairs)
        assert [int(w) for w in words.T.ravel()] == splitmix64_words(key, 2 * first, 2 * pairs)


def test_only_the_low_64_bits_of_a_key_count():
    for key in (5, 2**64 - 1):
        assert np.array_equal(sampling._pair_words(key + 2**64, 0, 4),
                              sampling._pair_words(key, 0, 4))
        assert np.array_equal(sphere_points(3, 4, key + 2**64), sphere_points(3, 4, key))


@pytest.mark.parametrize("key", KEYS)
def test_each_normal_lies_within_four_ulps_of_the_reference(key):
    # an odd first normal: the block opens and closes inside a Box-Muller pair
    first, count = 2 * key % 1001 + 1, 20_001
    normals = sampling._normals(key, first, count)
    reference = np.array(box_muller_normals(key, first, count))
    assert normals.shape == (count,)
    assert np.all(np.abs(normals - reference) <= 4 * np.spacing(np.abs(reference)))


DRAWS = {
    "real-3": lambda count, start: sphere_points(3, count, 17, radius=1.3, start=start),
    "real-4": lambda count, start: sphere_points(4, count, 17, start=start),
    "complex-3": lambda count, start: complex_sphere_points(3, count, 17, start=start),
    "complex-4": lambda count, start: complex_sphere_points(4, count, 17, radius=0.7, start=start),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(DRAWS)), total=st.integers(1, 80), data=st.data())
def test_any_split_into_blocks_draws_the_same_rows(name, total, data):
    # rows of odd width put a Box-Muller pair across two rows, and so across two blocks
    cuts = sorted(data.draw(st.sets(st.integers(1, total - 1), max_size=8)) if total > 1
                  else set())
    bounds = [0, *cuts, total]
    draw = DRAWS[name]
    blocks = [draw(stop - start, start) for start, stop in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(blocks), draw(total, 0))


@pytest.mark.parametrize("m", [3, 4])
def test_sphere_point_moments(m):
    # mean 0 and covariance r^2 / m I, each entry within 5 standard errors of its
    # sample mean
    r, rows = constants.radius(3), 100_000
    x = sphere_points(m, rows, 2024, radius=r)
    assert np.allclose(np.linalg.norm(x, axis=1), r, rtol=1e-14)
    products = (x[:, :, None] * x[:, None, :]).reshape(rows, m * m)
    for values, expected in ((x, np.zeros(m)), (products, (r * r / m * np.eye(m)).ravel())):
        error = values.std(axis=0) / np.sqrt(rows)
        assert np.all(np.abs(values.mean(axis=0) - expected) <= 5 * error)


def test_a_negative_start_is_rejected():
    with pytest.raises(ValueError, match="start must be non-negative"):
        sphere_points(3, 4, 0, start=-1)
