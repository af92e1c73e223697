import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from veronese import constants, quadmap
from veronese.construct import build
from veronese.quadmap import (QuadMap, evaluate, harmonicity_traces, norm_identity_residual,
                              to_json)
from veronese.sampling import complex_sphere_points, quotient_samples, sphere_points

from oracles import (dense_evaluate, exact_norm_identity_deviation, exact_quartic_residual,
                     fd_jacobian, jacobian, json_payload, per_point_evaluate,
                     real_restriction_indices, sampled_norm_identity_residual)

coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)
LEVELS = [(field, n) for field, cap in constants.LEVEL_CAPS["build"].items()
          for n in range(1, cap + 1)]


def test_evaluate_real_base():
    assert_allclose(evaluate(build(1, "real"), [1.0, 0.0]), [0.0, 1.0])


def test_evaluate_complex_base_pole():
    assert_allclose(evaluate(build(1, "complex"), np.array([1.0 + 0j, 0j])), [0.0, 0.0, 1.0])


def test_evaluate_real_level2_pole():
    x = np.array([math.sqrt(1.5), 0.0, 0.0])
    val = evaluate(build(2, "real"), x)
    assert_allclose(val, [0.0, math.sqrt(3) / 2, 0.0, 0.0, 0.5], atol=1e-15)
    assert_allclose(np.linalg.norm(val), 1.0, atol=1e-14)


def test_evaluate_batches():
    m = build(2, "real")
    pts = sphere_points(3, 7, seed=3, radius=1.2)
    batch = evaluate(m, pts)
    assert batch.shape == (7, 5)
    assert_allclose(batch[4], evaluate(m, pts[4]))


@pytest.mark.parametrize("field,n", LEVELS)
def test_evaluate_matches_dense_oracle(field, n):
    m = build(n, field)
    on_sphere = quotient_samples(n, field, 50, 200 + n)
    x = np.random.default_rng(300 + n).uniform(-2.0, 2.0, (2, 50, n + 1))
    off_sphere = x[0] if field == "real" else x[0] + 1j * x[1]
    for pts in (on_sphere, off_sphere):
        ref = dense_evaluate(m, pts)
        # relative to the largest image coordinate; measured worst 2.7e-16
        # (sphere, complex n=2) and 2.1e-16 (off the sphere, complex n=8)
        assert_allclose(evaluate(m, pts), ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))


@pytest.mark.parametrize("field,n", LEVELS)
def test_evaluate_does_not_depend_on_chunking(field, n, monkeypatch):
    m = build(n, field)
    pts = quotient_samples(n, field, 12, 400 + n)
    whole = evaluate(m, pts)
    assert whole.shape == (12, m.component_count)
    assert np.array_equal(np.stack([evaluate(m, p) for p in pts]), whole)
    # more than one leading axis
    assert np.array_equal(evaluate(m, pts.reshape(3, 4, n + 1)),
                          whole.reshape(3, 4, m.component_count))
    with monkeypatch.context() as patch:
        patch.setattr(quadmap, "CHUNK_BYTES", 1)  # one point per chunk
        assert np.array_equal(evaluate(m, pts), whole)


@pytest.mark.parametrize("field,n", LEVELS)
def test_evaluate_equals_the_per_point_products_bit_for_bit(field, n):
    m = build(n, field)
    length = quadmap.CHUNK_BYTES // quadmap.evaluate_point_bytes(m)
    pts = quotient_samples(n, field, 2 * length + 7, 500 + n)  # three chunks
    for batch in (pts[:1], pts[1:8], pts):
        assert np.array_equal(evaluate(m, batch), per_point_evaluate(m, batch)), len(batch)


@pytest.mark.parametrize("field,n", LEVELS)
def test_a_budget_sized_evaluate_chunk_stays_within_chunk_bytes(field, n):
    # the tracemalloc peak of one evaluate call on as many points as one chunk
    # holds, after a warm-up call
    m = build(n, field)
    length = quadmap.CHUNK_BYTES // quadmap.evaluate_point_bytes(m)
    pts = quotient_samples(n, field, length, seed=600 + n)
    evaluate(m, pts[:1])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        evaluate(m, pts)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= quadmap.CHUNK_BYTES, (len(pts), peak)


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError, match="^point dimension 2 does not match domain dimension 3$"):
        evaluate(build(2, "real"), [1.0, 0.0])
    with pytest.raises(ValueError, match="^point dimension 0 does not match domain dimension 3$"):
        evaluate(build(2, "real"), 1.0)
    with pytest.raises(ValueError, match="^real map expects real coordinates$"):
        evaluate(build(1, "real"), np.array([1.0 + 1j, 0j]))


def test_jacobian_real_base():
    assert_allclose(jacobian(build(1, "real"), np.array([1.0, 0.0])), [[0.0, 2.0], [2.0, 0.0]])


@given(st.lists(coord, min_size=3, max_size=3), st.floats(min_value=0.25, max_value=3.0))
@example(xs=[0.3, -1.2, 0.8], t=3.0)
@settings(max_examples=30, deadline=None)
def test_jacobian_degree_one_homogeneity(xs, t):
    m = build(2, "real")
    x = np.array(xs)
    assert_allclose(jacobian(m, t * x), t * jacobian(m, x), atol=1e-12)


@pytest.mark.parametrize("field,n", [("real", 2), ("real", 3), ("complex", 2)])
def test_jacobian_matches_finite_differences(field, n):
    m = build(n, field)
    if field == "real":
        pts = sphere_points(n + 1, 20, seed=11, radius=1.0)
    else:
        pts = complex_sphere_points(n + 1, 20, seed=11, radius=1.0)
    for p in pts:
        assert_allclose(jacobian(m, p), fd_jacobian(m, p), atol=1e-9)


@given(st.lists(coord, min_size=8, max_size=8))
@settings(max_examples=30, deadline=None)
def test_hermitian_values_are_real(xs):
    m = build(3, "complex")
    z = np.array(xs[:4]) + 1j * np.array(xs[4:])
    raw = np.einsum("i,kij,j->k", np.conj(z), m.components, z)
    assert np.max(np.abs(raw.imag)) < 1e-15 * max(1.0, np.max(np.abs(raw.real)))


def test_harmonicity_single_components():
    # last component of the level-2 real map is proportional to x0^2 + x1^2 - 2 x2^2
    assert abs(np.trace(build(2, "real").components[-1])) < 1e-16
    assert abs(np.trace(build(3, "complex").components[-1]).real) < 1e-16


HARMONICITY_CASES = [(field, n) for field in ("real", "complex") for n in range(1, 7)]


@pytest.mark.parametrize("field,n", HARMONICITY_CASES,
                         ids=[f"build_{field}-{n}" for field, n in HARMONICITY_CASES])
def test_harmonicity_all_components(field, n):
    assert np.max(np.abs(harmonicity_traces(build(n, field)))) < 1e-12


def test_norm_identity_at_zero_and_scaling():
    m = build(2, "real")
    assert_allclose(evaluate(m, np.zeros(3)), np.zeros(5))
    x = np.array([0.3, -1.1, 0.7])
    v1 = np.sum(evaluate(m, x) ** 2)
    v2 = np.sum(evaluate(m, 2 * x) ** 2)
    assert_allclose(v2, 16 * v1, rtol=1e-13)


AUDITED = [(field, n) for field, cap in constants.LEVEL_CAPS["audit"].items()
           for n in range(1, cap + 1)]


@pytest.mark.parametrize("field,n", AUDITED)
def test_norm_identity_sampled(field, n):
    m = build(n, field)
    assert norm_identity_residual(m) < 1e-12
    assert sampled_norm_identity_residual(m, 1000, seed=5 * n) < 1e-12


def _nudged(n, field, bump):
    """The level-n map with one symmetric (real) or Hermitian (complex) pair of
    component 0 moved by bump."""
    components = build(n, field).components.copy()
    components[0, 0, 1] += bump
    components[0, 1, 0] += np.conj(bump)
    return QuadMap(n, components)


@pytest.mark.parametrize("field,n,bump", [("real", 3, 1e-9), ("complex", 2, 1e-9j)])
def test_norm_identity_catches_a_nudged_coefficient_pair(field, n, bump):
    # a pair moved by 1e-9 breaks the quartic identity; the certificate reads about
    # 7.5e-9 (real) and 6e-9 (complex), the sampled residual about 9e-9 for both
    nudged = _nudged(n, field, bump)
    assert norm_identity_residual(nudged) > 1e-12
    assert sampled_norm_identity_residual(nudged, 1000, seed=5 * n) > 1e-12


@pytest.mark.parametrize("count", [0, -3])
def test_norm_identity_rejects_an_empty_sample(count):
    # an empty sample would read 0.0 and pass the sampled check vacuously
    with pytest.raises(ValueError, match="sample_count"):
        sampled_norm_identity_residual(build(2, "real"), count, seed=0)


@pytest.mark.parametrize("field,n", [("real", 2), ("real", 3), ("complex", 2)])
def test_norm_identity_certificate_matches_exact_rationals(field, n):
    # the Frobenius norm, on the built map and on one with a pair moved by 1e-9,
    # where the largest entry of the symmetrized tensor reads less than half of it
    for m in (build(n, field), _nudged(n, field, 1e-9 if field == "real" else 1e-9j)):
        exact = math.sqrt(exact_quartic_residual(m))
        assert abs(norm_identity_residual(m) - exact) < 1e-15


@pytest.mark.parametrize("field,n", [("real", 2), ("real", 3), ("complex", 2)])
def test_norm_identity_exact_rational_oracle(field, n):
    # independent of floating evaluation: exact arithmetic on the stored
    # coefficients at rational points; only coefficient rounding remains
    m = build(n, field)
    if field == "real":
        points = [[Fraction(1, 2), Fraction(-3, 4), Fraction(1, 8), Fraction(2)][: n + 1]
                  for _ in range(1)]
        points.append([Fraction(k - 2, 3) for k in range(n + 1)])
    else:
        points = [[(Fraction(1, 2), Fraction(1, 4)), (Fraction(-1, 3), Fraction(1)),
                   (Fraction(2, 5), Fraction(-1, 2)), (Fraction(0), Fraction(1, 7))][: n + 1]]
    dev = exact_norm_identity_deviation(m, points)
    assert float(dev) < 1e-13


# the index maps of the restriction to real points: the j-th real component is the
# j-th complex component whose real part is not zero, and the others vanish there
def test_real_restriction_base():
    survivors, zero_set = real_restriction_indices(build(1, "complex"))
    assert dict(enumerate(survivors)) == {0: 0, 1: 2}
    assert zero_set == [1]


def test_real_restriction_level2():
    survivors, zero_set = real_restriction_indices(build(2, "complex"))
    assert dict(enumerate(survivors)) == {0: 0, 1: 2, 2: 3, 3: 5, 4: 7}
    assert zero_set == [1, 4, 6]


@pytest.mark.parametrize("n", range(1, 5))
def test_real_restriction_pointwise(n, rng=np.random.default_rng(17)):
    cmap, rmap = build(n, "complex"), build(n, "real")
    survivors, zero_set = real_restriction_indices(cmap)
    assert len(survivors) == rmap.component_count
    x = rng.standard_normal((50, n + 1))
    vc = evaluate(cmap, x.astype(complex))
    vr = evaluate(rmap, x)
    if zero_set:
        assert np.max(np.abs(vc[:, zero_set])) < 1e-15
    assert np.max(np.abs(vc[:, survivors] - vr)) < 1e-14


@given(st.lists(coord, min_size=4, max_size=4))
@settings(max_examples=30, deadline=None)
def test_antipodal_values_identical(xs):
    m = build(3, "real")
    x = np.array(xs)
    assert np.array_equal(evaluate(m, x), evaluate(m, -x))


@pytest.mark.parametrize("level", [2.0, np.int64(2), True, 0, 13])
def test_level_checked_on_construction(level):
    # rejected where the map takes it in, not later in evaluate or to_json
    with pytest.raises(ValueError, match="level must be"):
        QuadMap(level, build(2, "real").components)


def test_symmetry_enforced_on_construction():
    with pytest.raises(ValueError):
        QuadMap(n=1, components=np.array([[[0.0, 1.0], [0.0, 0.0]]]))
    # real entries must be exactly symmetric, however small the defect
    with pytest.raises(ValueError):
        QuadMap(n=1, components=np.array([[[0.0, 1.0], [1.0 + 2.0**-52, 0.0]]]))


def test_hermitian_bound_on_construction():
    ok = np.array([[[0.0, 1j], [-1j + 5e-15, 0.0]]])
    assert QuadMap(n=1, components=ok).field == "complex"
    with pytest.raises(ValueError):
        QuadMap(n=1, components=np.array([[[0.0, 1j], [-1j + 2e-14, 0.0]]]))
    with pytest.raises(ValueError):
        QuadMap(n=2, components=np.zeros((1, 2, 2), dtype=complex))


def test_hermitian_bound_near_the_largest_double():
    # the modulus of 1.7e308 + 1.7e308j overflows; the bound must not
    with pytest.raises(ValueError, match="Hermitian"):
        QuadMap(n=1, components=[[[0, 1.7e308 + 1.7e308j], [5.0, 0.0]]])
    big = 1.7e308 * np.array([[[0, 1 + 1j], [1 - 1j, 0]], [[0, 1j], [-1j, 0]], [[1, 0], [0, -1]]])
    assert QuadMap(n=1, components=big).field == "complex"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [float, complex])
def test_non_finite_coefficients_are_rejected(bad, dtype):
    comps = np.zeros((1, 2, 2), dtype=dtype)
    comps[0, 0, 0] = bad  # on the diagonal, so symmetric and Hermitian alike
    with pytest.raises(ValueError, match="must be finite"):
        QuadMap(n=1, components=comps)


def test_json_export_real():
    payload = json.loads(to_json(build(1, "real")))
    assert payload["field"] == "real"
    assert payload["ambient_dim"] == 1
    assert payload["radius_pow4"] == "1/1"
    assert payload["components"] == [[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, -1.0]]


def test_json_export_complex():
    payload = json.loads(to_json(build(1, "complex")))
    assert payload["field"] == "complex"
    assert payload["ambient_dim"] == 2
    # row-major [re, im] pairs; second component is the imaginary-part form
    assert payload["components"][1] == [[0.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]]


def _assert_json_is_exact(map_):
    text = to_json(map_)
    # as lines: pytest's diff of two long strings on failure takes minutes
    assert text.split("\n") == json.dumps(json_payload(map_), indent=2).split("\n")
    loaded = np.array(json.loads(text)["components"])
    comps = map_.components.reshape(map_.component_count, -1)
    if map_.field == "complex":
        comps = np.stack([comps.real, comps.imag], axis=-1)
    assert loaded.tobytes() == comps.tobytes()  # every bit, the sign of zero too


@pytest.mark.parametrize("field,n", LEVELS)
def test_to_json_matches_json_dumps(field, n):
    _assert_json_is_exact(build(n, field))


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def hermitian_stacks(draw, field):
    """Exactly symmetric (real) or Hermitian (complex) stacks of finite doubles."""
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, 3))
    size = (count, n + 1, n + 1)
    parts = 2 if field == "complex" else 1
    values = draw(st.lists(finite, min_size=parts * math.prod(size),
                           max_size=parts * math.prod(size)))
    # a view, not re + 1j * im, which would turn a real part -0.0 into 0.0
    comps = np.array(values).view(complex if parts == 2 else float).reshape(size)
    upper = np.triu(np.ones((n + 1, n + 1), bool), 1)
    comps = np.where(upper, comps, np.conj(np.swapaxes(comps, 1, 2)))
    diag = np.arange(n + 1)
    comps[:, diag, diag] = comps[:, diag, diag].real
    return QuadMap(n=n, components=comps)


@given(st.sampled_from(["real", "complex"]).flatmap(hermitian_stacks))
@example(QuadMap(n=1, components=np.array([[[-0.0, 5e-324], [5e-324, 1e300]],
                                           [[-1e300, 2.2e-308], [2.2e-308, 0.1]]])))
@example(QuadMap(n=1, components=np.array([[[-0.0, -1e300 + 5e-324j],
                                            [-1e300 - 5e-324j, 1e300]]])))
@settings(max_examples=60, deadline=None)
def test_to_json_matches_json_dumps_on_drawn_stacks(map_):
    _assert_json_is_exact(map_)
