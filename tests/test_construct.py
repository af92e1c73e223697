import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from veronese.constants import LEVEL_CAPS, ambient_dims
from veronese.construct import build, hopf
from veronese.quadmap import evaluate, real_restriction
from veronese.sampling import complex_sphere_points, sphere_points


def test_base_real_matrices():
    m = build(1, "real")
    assert m.component_count == 2
    assert_allclose(m.components[0], [[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(m.components[1], [[1.0, 0.0], [0.0, -1.0]])


def test_base_complex_matrices():
    m = build(1, "complex")
    assert m.field == "complex" and m.components.dtype == complex
    expected = [[[0, 1], [1, 0]], [[0, 1j], [-1j, 0]], [[1, 0], [0, -1]]]
    assert np.array_equal(m.components, expected)
    # the base keeps the signed zero of the literal -1j it was first written with
    assert math.copysign(1.0, m.components[1, 1, 0].real) == -1.0
    assert math.copysign(1.0, m.components[1, 0, 1].real) == 1.0


def test_field_follows_dtype():
    assert build(2, "real").field == "real"
    assert build(2, "real").components.dtype == float


def test_level2_matches_hand_formula():
    m = build(2, "real")
    pts = sphere_points(3, 25, seed=9, radius=1.3)
    inv3 = 1.0 / math.sqrt(3.0)
    for x in pts:
        x0, x1, x2 = x
        expected = inv3 * np.array([
            2 * x0 * x1,
            x0 * x0 - x1 * x1,
            2 * x0 * x2,
            2 * x1 * x2,
            (x0 * x0 + x1 * x1 - 2 * x2 * x2) / math.sqrt(3.0),
        ])
        assert_allclose(evaluate(m, x), expected, atol=1e-15)


@pytest.mark.parametrize("n", range(1, 9))
def test_real_component_counts(n):
    assert build(n, "real").component_count == ambient_dims(n)[0] + 1


def test_level5_component_count():
    # N_5 = 19, so the map has 20 coordinates
    assert ambient_dims(5)[0] == 19
    assert build(5, "real").component_count == 20


@pytest.mark.parametrize("n", range(1, 7))
def test_complex_component_counts(n):
    assert build(n, "complex").component_count == ambient_dims(n)[1] + 1
    assert build(n, "complex").component_count == (n + 1) ** 2 - 1


def test_complex_base_point_value():
    z = np.array([1.0 + 0j, 1.0 + 0j]) / math.sqrt(2.0)
    assert_allclose(evaluate(build(1, "complex"), z), [1.0, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("n", range(2, 8))
def test_prefix_components_are_scaled_previous(n):
    cur, prev = build(n, "real"), build(n - 1, "real")
    inv = 1.0 / math.sqrt(n + 1.0)
    kp = prev.component_count
    block = cur.components[:kp]
    assert np.array_equal(block[:, :n, :n], prev.components * inv)
    assert np.all(block[:, n, :] == 0.0) and np.all(block[:, :, n] == 0.0)


@pytest.mark.parametrize("n", range(2, 6))
def test_prefix_components_complex(n):
    cur, prev = build(n, "complex"), build(n - 1, "complex")
    inv = 1.0 / math.sqrt(n + 1.0)
    kp = prev.component_count
    assert np.array_equal(cur.components[:kp, :n, :n], prev.components * inv)


@pytest.mark.parametrize("n", range(1, 5))
def test_restriction_succeeds_through_level4(n):
    sigma, zero_set = real_restriction(build(n, "complex"), build(n, "real"))
    assert len(sigma) == ambient_dims(n)[0] + 1


def test_hopf_poles():
    assert_allclose(hopf(np.array([1.0 + 0j, 0j])), [0.0, 0.0, 1.0])
    assert_allclose(hopf(np.array([0j, 1.0 + 0j])), [0.0, 0.0, -1.0])


def test_hopf_is_the_level1_complex_map():
    z = complex_sphere_points(2, 100, seed=23)
    values = hopf(z)
    assert np.max(np.abs(np.linalg.norm(values, axis=1) - 1.0)) < 1e-14
    assert np.max(np.abs(values - evaluate(build(1, "complex"), z))) < 1e-14


def test_level_caps():
    caps = LEVEL_CAPS["build"]
    assert (caps["real"], caps["complex"]) == (12, 8)
    with pytest.raises(ValueError):
        build(13, "real")
    with pytest.raises(ValueError):
        build(9, "complex")
    with pytest.raises(ValueError):
        build(0, "real")
    with pytest.raises(ValueError):
        build(2, "quaternionic")
    build(2, "real")
    with pytest.raises(ValueError):
        build(2.0, "real")
    with pytest.raises(ValueError):
        build(True, "real")


def test_builders_memoize():
    assert build(3, "real") is build(3, "real")
    assert not build(3, "real").components.flags.writeable
