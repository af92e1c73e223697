import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from numpy.testing import assert_allclose

from veronese import constants, geometry, quadmap
from veronese.construct import build
from veronese.geometry import (curvature_field, second_fundamental_form,
                               tangent_bases)
from veronese.quadmap import QuadMap, StructuralError, evaluate
from veronese.sampling import quotient_samples, sphere_points

from oracles import (dense_curvature, exact_canonical_curvature, fd_pullback, jacobian,
                     laplace_residual, pullback_factor, tangent_images)


def closed_form_lambda(n):
    # pullback factor 2(n+1) / (n r_n^2), equal to 4 / (n sqrt((n-1)!))
    return 2.0 * (n + 1) / (n * constants.radius(n) ** 2)


def ladder(n, field, d):
    """The closed forms of |alpha|^2 and s = d(d-1) - |alpha|^2 of the level-n image
    of dimension d, exact: n(n-1)(n+2) / (2(n+1)) (real) and 2n(n-1) (complex)."""
    a2 = (Fraction(n * (n - 1) * (n + 2), 2 * (n + 1)) if field == "real"
          else Fraction(2 * n * (n - 1)))
    return a2, d * (d - 1) - a2


def real_gram(u, v):
    """Euclidean inner products of the rows, reading complex rows as real ones."""
    return np.real(np.conj(u) @ v.T)


def test_frame_at_real_pole():
    r = constants.radius(2)
    basis = tangent_bases(build(2, "real"), np.array([[r, 0.0, 0.0]]))[0]
    assert_allclose(basis, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], atol=1e-15)


def test_frame_at_complex_pole():
    basis = tangent_bases(build(1, "complex"), np.array([[1.0 + 0j, 0j]]))[0]
    assert basis.shape == (2, 2)
    assert_allclose(basis[0], [0.0, 1.0], atol=1e-15)
    assert_allclose(basis[1], [0.0, 1j], atol=1e-15)


@pytest.mark.parametrize("field,n_max", [("real", 4), ("complex", 4)])
def test_frame_invariants_random_points(field, n_max):
    for n in range(1, n_max + 1):
        r = constants.radius(n)
        pts = quotient_samples(n, field, 25, seed=100 + n)
        for p, basis in zip(pts, tangent_bases(build(n, field), pts)):
            d = basis.shape[0]
            assert np.max(np.abs(real_gram(basis, basis) - np.eye(d))) < 1e-13
            assert np.max(np.abs(real_gram(basis, p[None]))) < 1e-13 * r
            if field == "complex":
                assert np.max(np.abs(real_gram(basis, 1j * p[None]))) < 1e-13 * r


@pytest.mark.parametrize("n", range(1, 5))
def test_complex_frame_follows_the_map_not_the_point_dtype(n):
    m = build(n, "complex")
    x = sphere_points(n + 1, 6, seed=20 + n, radius=constants.radius(n))
    bases = tangent_bases(m, x)
    assert bases.shape == (6, 2 * n, n + 1)
    assert np.array_equal(bases, tangent_bases(m, x.astype(complex)))


def test_frame_rejects_off_sphere_points():
    m = build(2, "real")
    with pytest.raises(ValueError):
        tangent_bases(m, np.array([[1.0, 0.0, 0.0]]))  # level-2 radius is sqrt(3/2)
    with pytest.raises(ValueError):
        tangent_bases(m, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        tangent_bases(m, np.zeros((0, 3)))
    with pytest.raises(ValueError, match="real coordinates"):
        tangent_bases(m, np.array([[constants.radius(2), 0.0, 0j]]))


def test_pullback_level1_speed():
    lam, anis = pullback_factor(build(1, "real"), quotient_samples(1, "real", 10, seed=4))
    assert_allclose(lam, 4.0, rtol=0, atol=1e-12)
    assert np.max(anis) < 1e-12


def test_pullback_level2_pole():
    r = constants.radius(2)
    lam, anis = pullback_factor(build(2, "real"), np.array([[r, 0, 0.0]]))
    assert lam[0] == pytest.approx(2.0, abs=1e-12)
    assert anis[0] < 1e-12


def test_pullback_level3_value():
    lam, anis = pullback_factor(build(3, "real"), quotient_samples(3, "real", 20, seed=6))
    assert_allclose(lam, 2.0 * math.sqrt(2.0) / 3.0, rtol=0, atol=1e-10)
    assert np.max(anis) < 1e-10


@pytest.mark.parametrize("field,n_max", [("real", 6), ("complex", 4)])
def test_pullback_closed_form_and_fd_oracle(field, n_max):
    for n in range(1, n_max + 1):
        m = build(n, field)
        pts = quotient_samples(n, field, 5, seed=31 * n)
        lams, anis = pullback_factor(m, pts)
        assert np.max(anis / lams) < 1e-8
        for p, basis, lam in zip(pts, tangent_bases(m, pts), lams):
            assert lam == pytest.approx(fd_pullback(m, p, basis), abs=1e-8)
        assert np.ptp(lams) < 1e-8
        assert lams[0] == pytest.approx(closed_form_lambda(n), rel=1e-10)


def test_alpha_vanishes_in_codimension_zero():
    # level-1 real and complex images fill their spheres
    alpha = second_fundamental_form(build(1, "real"), quotient_samples(1, "real", 1, seed=8))[0]
    assert np.max(np.abs(alpha)) < 1e-13
    alphac = second_fundamental_form(build(1, "complex"),
                                     quotient_samples(1, "complex", 1, seed=8))[0]
    assert np.max(np.abs(alphac)) < 1e-12


def test_alpha_symmetry_and_tangency():
    m = build(2, "real")
    pts = quotient_samples(2, "real", 10, seed=12)
    for x, basis, alpha in zip(pts, tangent_bases(m, pts), second_fundamental_form(m, pts)[0]):
        assert np.max(np.abs(alpha - np.transpose(alpha, (1, 0, 2)))) < 1e-8
        p = evaluate(m, x)
        t = basis @ jacobian(m, x).T  # analytic image tangents
        for i in range(basis.shape[0]):
            for j in range(basis.shape[0]):
                assert abs(alpha[i, j] @ p) < 1e-8
                assert np.max(np.abs(t @ alpha[i, j])) < 1e-8


@pytest.mark.parametrize("n", range(2, 6))
def test_gauss_relation_consistency(n):
    # the Gauss-relation scalar curvature must equal the round value of the
    # measured induced metric, d(d-1) / (lambda r^2)
    geo = curvature_field(build(n, "real"), quotient_samples(n, "real", 5, seed=70 + n))
    round_value = n * (n - 1) / (geo["lambda"] * constants.radius(n) ** 2)
    assert_allclose(geo["scalar_curvature_gauss"], round_value, rtol=0, atol=1e-6)


def test_curvature_field_matches_pointwise():
    # the batched reduction against plain sums over each point's own alpha
    m = build(3, "real")
    pts = quotient_samples(3, "real", 6, seed=91)
    batch = curvature_field(m, pts)
    for i, p in enumerate(pts):
        alpha = second_fundamental_form(m, p[None])[0][0]
        alpha_sq = float(np.sum(alpha * alpha))
        h_norm = float(np.linalg.norm(np.einsum("aak->k", alpha)))
        assert batch["lambda"][i] == pytest.approx(pullback_factor(m, p[None])[0][0], abs=1e-13)
        assert batch["alpha_norm_sq"][i] == pytest.approx(alpha_sq, abs=1e-12)
        assert batch["scalar_curvature_gauss"][i] == pytest.approx(
            3 * 2 + h_norm * h_norm - alpha_sq, abs=1e-12)


@pytest.mark.parametrize("field,n", [("real", 1), ("real", 2), ("real", 3),
                                     ("complex", 1), ("complex", 2), ("complex", 3)])
def test_laplace_eigenvalue_residual(field, n):
    m = build(n, field)
    for p in quotient_samples(n, field, 5, seed=15 + n):
        assert laplace_residual(m, p) < 1e-4


def test_laplace_level2_eigenvalue_is_four():
    # explicit second difference against the eigenvalue 2(2+1)/r^2 = 4
    m = build(2, "real")
    r = constants.radius(2)
    assert abs(2.0 * 3.0 / r**2 - 4.0) < 1e-15
    x = sphere_points(3, 1, seed=3, radius=r)[0]
    h = 1e-3
    lap = np.zeros(m.component_count)
    for v in tangent_bases(m, x[None])[0]:
        plus = math.cos(h / r) * x + math.sin(h / r) * r * v
        minus = math.cos(h / r) * x - math.sin(h / r) * r * v
        lap += (evaluate(m, plus) - 2 * evaluate(m, x) + evaluate(m, minus)) / h**2
    assert np.max(np.abs(lap + 4.0 * evaluate(m, x))) < 1e-4


def test_laplace_zero_component_is_exact():
    flat = QuadMap(n=1, components=np.zeros((1, 2, 2)))
    assert laplace_residual(flat, np.array([1.0, 0.0])) == 0.0


def test_laplace_rejects_off_sphere_point():
    with pytest.raises(ValueError):
        laplace_residual(build(2, "real"), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="real coordinates"):
        laplace_residual(build(2, "real"), np.array([constants.radius(2), 0.0, 1e-3j]))


@pytest.mark.parametrize("field,cap", [("real", 12), ("complex", 8)])
def test_pullback_factor_is_the_batched_pipeline_at_the_canonical_point(field, cap):
    for n in range(1, cap + 1):
        m = build(n, field)
        base = geometry.canonical_point(m)
        assert base.dtype == m.components.dtype
        assert_allclose(base, [constants.radius(n)] + [0.0] * n, rtol=0, atol=0)
        lam, anis = pullback_factor(m, base[None, :])
        batch = curvature_field(m, base[None, :])
        assert (lam[0], anis[0]) == (batch["lambda"][0], batch["anisotropy"][0])


@pytest.mark.parametrize("field,n", [("real", 3), ("complex", 2)])
def test_tangent_images_match_jacobian(field, n):
    m = build(n, field)
    pts = quotient_samples(n, field, 4, seed=40 + n)
    images = tangent_images(m, pts)
    for p, basis, t in zip(pts, tangent_bases(m, pts), images):
        coords = basis if field == "real" else np.concatenate([basis.real, basis.imag], axis=1)
        assert t.shape == (basis.shape[0], m.component_count)
        assert_allclose(t, coords @ jacobian(m, p).T, atol=1e-12)


@pytest.mark.parametrize("entry", [geometry.curvature_field, tangent_images,
                                   geometry.second_fundamental_form, pullback_factor],
                         ids=lambda entry: entry.__name__)
def test_entry_points_reject_off_sphere_and_wrong_width(entry):
    m = build(2, "real")
    with pytest.raises(ValueError, match="off the level-2 sphere"):
        entry(m, np.ones((3, 3)))
    with pytest.raises(ValueError, match=r"\(count, 3\)"):
        entry(m, quotient_samples(3, "real", 3, seed=1))
    nan_row = quotient_samples(2, "real", 2, seed=1)
    nan_row[1, 2] = np.nan
    with pytest.raises(ValueError, match="off the level-2 sphere"):
        entry(m, nan_row)


def test_curvature_rejects_images_off_the_unit_sphere():
    # on-sphere domain points, but a map that does not land on the unit sphere
    half = QuadMap(n=1, components=0.5 * build(1, "real").components)
    with pytest.raises(StructuralError, match="off the unit sphere"):
        curvature_field(half, quotient_samples(1, "real", 2, seed=3))


def cross_term_map(*scales):
    """The level-2 real map I/r^2 beside the cross terms 2 c_j x_0 x_j, j = 1, 2, ..."""
    comps = [np.eye(3) / constants.radius(2) ** 2]
    for j, scale in enumerate(scales, start=1):
        cross = np.zeros((3, 3))
        cross[0, j] = cross[j, 0] = scale
        comps.append(cross)
    return QuadMap(n=2, components=np.stack(comps))


@pytest.mark.parametrize("scales, points", [
    # one cross term: tangent images of rank 1, whose Gram matrix has no
    # Cholesky factor
    ((1e-6,), quotient_samples(2, "real", 5, seed=3)),
    # two: at the base point the Gram matrix is diag(4 r^2 c_j^2), whose
    # factor has pivots 1e-11 apart
    ((1e-3, 1e-14), np.array([[constants.radius(2), 0.0, 0.0]])),
], ids=["rank-1", "pivot-ratio"])
def test_rank_deficient_tangent_images_raise(scales, points):
    with pytest.raises(StructuralError, match="rank deficient"):
        curvature_field(cross_term_map(*scales), points)


@pytest.mark.parametrize("field,cap", [("real", 12), ("complex", 8)])
def test_planned_kernel_matches_dense_oracle(field, cap):
    for n in range(1, cap + 1):
        m = build(n, field)
        pts = quotient_samples(n, field, 3, seed=120 + n)
        alpha_ref, lam_ref, anis_ref = dense_curvature(m, pts)
        assert_allclose(lam_ref, closed_form_lambda(n), rtol=1e-10, atol=0)
        alpha, lam, anis = second_fundamental_form(m, pts)
        assert_allclose(lam, lam_ref, rtol=1e-13, atol=0)
        assert_allclose(anis, anis_ref, rtol=0, atol=1e-13 * np.max(lam_ref))
        assert alpha.shape == alpha_ref.shape
        # level 1 has codimension 0, where alpha is rounding noise
        scale = float(np.max(np.abs(alpha_ref))) if n > 1 else 1.0
        assert_allclose(alpha, alpha_ref, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_minimality_rounding_floor(field):
    # every level is minimal, so |H| is pure rounding; measured worst 2.8e-15
    # (complex n=3)
    for n in range(2, constants.LEVEL_CAPS["build"][field] + 1):
        geo = curvature_field(build(n, field), quotient_samples(n, field, 300, seed=7))
        assert np.max(geo["mean_curvature_norm"]) <= 5e-15, n


@pytest.mark.parametrize("field,cap", [("real", 12), ("complex", 8)])
def test_curvature_field_does_not_depend_on_chunk_size(field, cap, monkeypatch):
    for n in range(1, cap + 1):
        m = build(n, field)
        pts = quotient_samples(n, field, 8, seed=140 + n)
        whole = curvature_field(m, pts)
        with monkeypatch.context() as patch:
            patch.setattr(quadmap, "CHUNK_BYTES", 1)  # one point per chunk
            single = curvature_field(m, pts)
        for key, value in whole.items():
            assert np.array_equal(single[key], value), (n, key)


@pytest.mark.parametrize("field,cap", [("real", 12), ("complex", 8)])
def test_a_budget_sized_chunk_stays_within_chunk_bytes(field, cap):
    # the tracemalloc peak of one curvature_field call on as many points as one
    # chunk holds, after a warm-up call
    for n in range(1, cap + 1):
        m = build(n, field)
        length = quadmap.CHUNK_BYTES // geometry.curvature_point_bytes(m)
        pts = quotient_samples(n, field, length, seed=160 + n)
        curvature_field(m, pts[:1])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            curvature_field(m, pts)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= quadmap.CHUNK_BYTES, (n, len(pts), peak)
        # and the count is not so loose that chunks run short: measured 0.69-0.92
        # of the budget from level 2 up (level 1 has too small a kernel to fill it)
        if n > 1:
            assert peak >= quadmap.CHUNK_BYTES // 2, (n, len(pts), peak)


@pytest.mark.parametrize("field,cap", [("real", 12), ("complex", 8)])
def test_the_kernel_reads_no_work_entry_it_did_not_write(field, cap, monkeypatch):
    # the kernel's arrays filled with NaN, sized for the call and for more points:
    # any entry read before it is written would turn a result into NaN
    for n in range(1, cap + 1):
        m = build(n, field)
        pts = quotient_samples(n, field, 5, seed=190 + n)
        expected = second_fundamental_form(m, pts)
        for room in (len(pts), 3 * len(pts)):
            work = geometry._work(m, room)
            for array in work:
                array.fill(np.nan)
            with monkeypatch.context() as patch:
                patch.setattr(geometry, "_work", lambda map_, count: work)
                got = second_fundamental_form(m, pts)
            for key, a, b in zip(("alpha", "lambda", "anisotropy"), got, expected):
                assert np.array_equal(a, b), (n, room, key)


@pytest.mark.parametrize("field,n", [("real", n) for n in range(1, 13)]
                         + [("complex", n) for n in range(1, 9)])
def test_the_curvature_ladder_at_every_build_level(field, n):
    # measured worst deviations, relative to max(1, |value|): 1.2e-15 (|alpha|^2),
    # 1.4e-15 (s), 7.8e-16 (lambda) and 2.2e-15 (|H|)
    m = build(n, field)
    pts = np.concatenate([geometry.canonical_point(m)[None],
                          quotient_samples(n, field, 5, seed=180 + n)])
    geo = curvature_field(m, pts)
    a2, s = ladder(n, field, m.quotient_dim)
    for key, value in [("lambda", closed_form_lambda(n)), ("alpha_norm_sq", float(a2)),
                       ("scalar_curvature_gauss", float(s)), ("mean_curvature_norm", 0.0)]:
        assert_allclose(geo[key], value, rtol=0, atol=1e-12 * max(1.0, abs(value)),
                        err_msg=key)


# (|alpha|^2, s) in the image metric, worked by hand: the ladder's cross-check
EXPECTED_CURVATURE = {
    ("real", 1): (Fraction(0), Fraction(0)),
    ("real", 2): (Fraction(4, 3), Fraction(2, 3)),
    ("real", 3): (Fraction(15, 4), Fraction(9, 4)),
    ("real", 4): (Fraction(36, 5), Fraction(24, 5)),
    ("real", 5): (Fraction(35, 3), Fraction(25, 3)),
    ("complex", 1): (Fraction(0), Fraction(2)),
    ("complex", 2): (Fraction(4), Fraction(8)),
    ("complex", 3): (Fraction(12), Fraction(18)),
}


def test_the_ladder_reproduces_the_hand_worked_table():
    for (field, n), expected in EXPECTED_CURVATURE.items():
        assert ladder(n, field, build(n, field).quotient_dim) == expected, (field, n)


@pytest.mark.parametrize("field,n", [(field, n) for field in ("real", "complex")
                                     for n in range(1, constants.LEVEL_CAPS["audit"][field] + 1)])
def test_curvature_at_the_canonical_point_is_the_exact_value(field, n):
    # lambda, |alpha|^2 and |H|^2 in sympy; 0.4 s at complex n=4
    lam, a2, h2 = exact_canonical_curvature(n, field)
    m = build(n, field)
    a2_ladder, s = ladder(n, field, m.quotient_dim)
    r_sq = sympy.sqrt(sympy.Rational(constants.radius_pow4(n)))
    assert (lam, a2, h2) == (2 * (n + 1) / (n * r_sq), a2_ladder, 0)
    geo = curvature_field(m, geometry.canonical_point(m)[None])
    for key, value in [("lambda", float(lam)), ("alpha_norm_sq", float(a2)),
                       ("scalar_curvature_gauss", float(s)), ("mean_curvature_norm", 0.0)]:
        assert_allclose(geo[key], value, rtol=0, atol=1e-12 * max(1.0, abs(value)),
                        err_msg=key)


@pytest.mark.parametrize("field,cap", [("real", 12), ("complex", 8)])
def test_the_quotient_dimension_is_the_width_of_the_tangent_bases(field, cap):
    for n in range(1, cap + 1):
        m = build(n, field)
        assert m.quotient_dim == (n if field == "real" else 2 * n)
        assert tangent_bases(m, geometry.canonical_point(m)[None]).shape[1] == m.quotient_dim


@pytest.mark.parametrize("entry", [evaluate, tangent_bases, second_fundamental_form,
                                   curvature_field], ids=lambda entry: entry.__name__)
def test_a_real_map_rejects_complex_points(entry):
    with pytest.raises(ValueError, match="^real map expects real coordinates$"):
        entry(build(2, "real"), np.array([[constants.radius(2), 0.0, 0j]]))
