import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from veronese import construct
from veronese.audit import diagram_check
from veronese.constants import (LEVEL_CAPS, ambient_dims, radius, radius_pow4,
                                step_constants)
from veronese.construct import build, hopf
from veronese.quadmap import QuadMap, evaluate
from veronese.sampling import complex_sphere_points, quotient_samples, sphere_points


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
    # diagram_check raises unless the components that survive on real points are as
    # many as the real components, and the matched forms agree exactly
    assert diagram_check(n)["restriction_residual"] == 0.0


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


@pytest.mark.parametrize("field", ["real", "complex"])
def test_a_patched_build_leaves_no_level_in_the_cache(field, monkeypatch):
    # a level asked for through a patched construct.build, or while construct.stacks
    # is patched, must still be built from the base by the real pass, so no changed
    # level is cached under the real builder
    expected = [build(k, field).components.copy() for k in (1, 2, 3)]
    original_build, original_stacks = construct.build, construct.stacks
    doubled = {
        "build": lambda n, f: QuadMap(n=n, components=2.0 * original_build(n, f).components),
        "stacks": lambda n, f: (2.0 * comps for comps in original_stacks(n, f)),
    }
    for name, patched in doubled.items():
        construct.build.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(construct, name, patched)
            construct.build(3, field)
        for k, comps in zip((1, 2, 3), expected):
            assert np.array_equal(construct.build(k, field).components, comps), (name, k)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_each_stack_of_the_pass_is_the_built_level_bit_for_bit(field):
    cap = LEVEL_CAPS["build"][field]
    levels = list(construct.stacks(cap, field))
    assert len(levels) == cap
    for k, comps in enumerate(levels, 1):
        built = build(k, field).components
        assert comps.dtype == built.dtype and comps.shape == built.shape
        assert comps.tobytes() == built.tobytes(), k
        assert not comps.flags.writeable


def test_stacks_checks_its_arguments_at_the_first_draw():
    for n, field in ((0, "real"), (13, "real"), (9, "complex"), (2.0, "real"),
                     (2, "quaternionic")):
        levels = construct.stacks(n, field)
        with pytest.raises(ValueError):
            next(levels)


@pytest.mark.parametrize("field,n", [("real", n) for n in range(2, 13)]
                         + [("complex", n) for n in range(2, 9)])
def test_each_level_extends_the_previous_map_to_the_attaching_cell(field, n):
    # F_n(x r_n / r_{n-1}, 0) = (sqrt(n^2 - 1)/n F_{n-1}(x), 0, ..., 0, 1/n) for x on
    # the level-(n-1) sphere; measured worst deviation 3.3e-16 (real 2)
    x = quotient_samples(n - 1, field, 200, seed=200 + n)
    lifted = np.concatenate([x * (radius(n) / radius(n - 1)), np.zeros((len(x), 1))], axis=1)
    prev = evaluate(build(n - 1, field), x)
    expected = np.zeros((len(x), build(n, field).component_count))
    expected[:, :prev.shape[1]] = math.sqrt(n * n - 1) / n * prev
    expected[:, -1] = 1.0 / n
    assert_allclose(evaluate(build(n, field), lifted), expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", range(2, 13))
def test_the_telescopic_scales_are_exact(n):
    # the squares of the extension's two scales, with the level's 1/sqrt(n+1):
    # the previous map's (r_n / r_{n-1})^4 / (n+1) = (n^2-1)/n^2, and the balance
    # component's b^2 r_n^4 / (n+1) = 1/n^2
    assert radius_pow4(n) / radius_pow4(n - 1) / (n + 1) == Fraction(n * n - 1, n * n)
    assert step_constants(n)[1] * radius_pow4(n) / (n + 1) == Fraction(1, n * n)
