import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from veronese import constants, geometry
from veronese.construct import build
from veronese.geometry import (GeometryReport, curvature_field,
                               curvature_invariants, frame, geometry_report,
                               laplace_residual, pullback_factor, real_inner,
                               second_fundamental_form)
from veronese.quadmap import QuadMap, evaluate, jacobian
from veronese.sampling import complex_sphere_points, sphere_points


def closed_form_lambda(n):
    # pullback factor 2(n+1) / (n r_n^2), equal to 4 / (n sqrt((n-1)!))
    return 2.0 * (n + 1) / (n * constants.radius(n) ** 2)


def sample_frames(n, field, count, seed):
    r = constants.radius(n)
    if field == "real":
        pts = sphere_points(n + 1, count, seed, radius=r)
    else:
        pts = complex_sphere_points(n + 1, count, seed, radius=r)
    return [frame(p, field) for p in pts]


def fd_pullback(map_, frm, h=1e-5):
    """Metric pullback through central-difference directional derivatives."""
    x = frm.base_point
    cols = [(evaluate(map_, x + h * v) - evaluate(map_, x - h * v)) / (2 * h)
            for v in frm.basis]
    t = np.stack(cols)
    gram = t @ t.T
    return float(np.trace(gram)) / frm.dim


def test_frame_at_real_pole():
    r = constants.radius(2)
    frm = frame(np.array([r, 0.0, 0.0]), "real")
    assert_allclose(frm.basis, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], atol=1e-15)
    assert frm.radius == pytest.approx(r)


def test_frame_at_complex_pole():
    frm = frame(np.array([1.0 + 0j, 0j]), "complex")
    assert frm.dim == 2
    assert_allclose(frm.basis[0], [0.0, 1.0], atol=1e-15)
    assert_allclose(frm.basis[1], [0.0, 1j], atol=1e-15)


@pytest.mark.parametrize("field,n_max", [("real", 4), ("complex", 4)])
def test_frame_invariants_random_points(field, n_max):
    for n in range(1, n_max + 1):
        for frm in sample_frames(n, field, 25, seed=100 + n):
            gram = np.array([[real_inner(u, v) for v in frm.basis] for u in frm.basis])
            assert np.max(np.abs(gram - np.eye(frm.dim))) < 1e-13
            for v in frm.basis:
                assert abs(real_inner(v, frm.base_point)) < 1e-13 * frm.radius
                if field == "complex":
                    assert abs(real_inner(v, 1j * frm.base_point)) < 1e-13 * frm.radius


def test_frame_rejects_off_sphere_points():
    with pytest.raises(ValueError):
        frame(np.array([1.0, 0.0, 0.0]), "real")  # level-2 radius is sqrt(3/2)
    with pytest.raises(ValueError):
        frame(np.zeros(3), "real")
    with pytest.raises(ValueError):
        frame(np.array([1.0, 0.0]), "imaginary")


def test_pullback_level1_speed():
    m = build(1, "real")
    for frm in sample_frames(1, "real", 10, seed=4):
        lam, anis = pullback_factor(m, frm)
        assert lam == pytest.approx(4.0, abs=1e-12)
        assert anis < 1e-12


def test_pullback_level2_pole():
    r = constants.radius(2)
    lam, anis = pullback_factor(build(2, "real"), frame(np.array([r, 0, 0.0]), "real"))
    assert lam == pytest.approx(2.0, abs=1e-12)
    assert anis < 1e-12


def test_pullback_level3_value():
    m = build(3, "real")
    for frm in sample_frames(3, "real", 20, seed=6):
        lam, anis = pullback_factor(m, frm)
        assert lam == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-10)
        assert anis < 1e-10


@pytest.mark.parametrize("field,n_max", [("real", 6), ("complex", 4)])
def test_pullback_closed_form_and_fd_oracle(field, n_max):
    for n in range(1, n_max + 1):
        m = build(n, field)
        frames = sample_frames(n, field, 5, seed=31 * n)
        lams = []
        for frm in frames:
            lam, anis = pullback_factor(m, frm)
            lams.append(lam)
            assert anis / lam < 1e-8
            assert lam == pytest.approx(fd_pullback(m, frm), abs=1e-8)
        assert np.ptp(lams) < 1e-8
        assert lams[0] == pytest.approx(closed_form_lambda(n), rel=1e-10)


def test_alpha_vanishes_in_codimension_zero():
    # level-1 real and complex images fill their spheres
    frm = sample_frames(1, "real", 1, seed=8)[0]
    alpha = second_fundamental_form(build(1, "real"), frm)
    assert np.max(np.abs(alpha)) < 1e-13
    frmc = sample_frames(1, "complex", 1, seed=8)[0]
    alphac = second_fundamental_form(build(1, "complex"), frmc)
    assert np.max(np.abs(alphac)) < 1e-12


def test_alpha_symmetry_and_tangency():
    m = build(2, "real")
    for frm in sample_frames(2, "real", 10, seed=12):
        alpha = second_fundamental_form(m, frm)
        assert np.max(np.abs(alpha - np.transpose(alpha, (1, 0, 2)))) < 1e-8
        p = evaluate(m, frm.base_point)
        jac = jacobian(m, frm.base_point)
        t = np.stack([jac @ v for v in frm.basis])  # analytic image tangents
        for i in range(frm.dim):
            for j in range(frm.dim):
                assert abs(alpha[i, j] @ p) < 1e-8
                assert np.max(np.abs(t @ alpha[i, j])) < 1e-8


EXPECTED_CURVATURE = {
    # field, n: (alpha_norm_sq, scalar_curvature) in the image metric
    ("real", 1): (0.0, 0.0),
    ("real", 2): (4.0 / 3.0, 2.0 / 3.0),
    ("real", 3): (15.0 / 4.0, 9.0 / 4.0),
    ("real", 4): (36.0 / 5.0, 24.0 / 5.0),
    ("real", 5): (35.0 / 3.0, 25.0 / 3.0),
    ("complex", 1): (0.0, 2.0),
    ("complex", 2): (4.0, 8.0),
    ("complex", 3): (12.0, 18.0),
}


@pytest.mark.parametrize("field,n", sorted(EXPECTED_CURVATURE))
def test_curvature_invariants_values(field, n):
    m = build(n, field)
    a2_expected, s_expected = EXPECTED_CURVATURE[(field, n)]
    a2s, ss = [], []
    for frm in sample_frames(n, field, 20, seed=50 + n):
        inv = curvature_invariants(second_fundamental_form(m, frm), frm.dim)
        assert inv["mean_curvature_norm"] < 1e-7
        a2s.append(inv["alpha_norm_sq"])
        ss.append(inv["scalar_curvature_gauss"])
    assert np.ptp(a2s) < 1e-7 and np.ptp(ss) < 1e-7
    assert np.mean(a2s) == pytest.approx(a2_expected, abs=1e-9)
    assert np.mean(ss) == pytest.approx(s_expected, abs=1e-9)


@pytest.mark.parametrize("n", range(2, 6))
def test_gauss_relation_consistency(n):
    # the Gauss-relation scalar curvature must equal the round value of the
    # measured induced metric, d(d-1) / (lambda r^2)
    m = build(n, "real")
    for frm in sample_frames(n, "real", 5, seed=70 + n):
        rep = geometry_report(m, frm)
        round_value = n * (n - 1) / rep.effective_radius_sq
        assert rep.scalar_curvature_gauss == pytest.approx(round_value, abs=1e-6)


def test_geometry_report_fields():
    rep = geometry_report(build(2, "real"), sample_frames(2, "real", 1, seed=2)[0])
    assert isinstance(rep, GeometryReport)
    d = rep.to_dict()
    assert set(d) == {"homothety_factor", "anisotropy", "alpha_norm_sq",
                      "mean_curvature_norm", "scalar_curvature_gauss",
                      "effective_radius_sq"}
    assert all(isinstance(v, float) for v in d.values())
    assert rep.effective_radius_sq == pytest.approx(3.0, abs=1e-12)


def test_curvature_field_matches_pointwise():
    m = build(3, "real")
    r = constants.radius(3)
    pts = sphere_points(4, 6, seed=91, radius=r)
    batch = curvature_field(m, pts)
    for i, p in enumerate(pts):
        frm = frame(p, "real")
        lam, anis = pullback_factor(m, frm)
        inv = curvature_invariants(second_fundamental_form(m, frm), frm.dim)
        assert batch["lambda"][i] == pytest.approx(lam, abs=1e-13)
        assert batch["alpha_norm_sq"][i] == pytest.approx(inv["alpha_norm_sq"], abs=1e-12)
        assert batch["scalar_curvature_gauss"][i] == pytest.approx(
            inv["scalar_curvature_gauss"], abs=1e-12)


@pytest.mark.parametrize("field,n", [("real", 1), ("real", 2), ("real", 3),
                                     ("complex", 1), ("complex", 2), ("complex", 3)])
def test_laplace_eigenvalue_residual(field, n):
    m = build(n, field)
    r = constants.radius(n)
    if field == "real":
        pts = sphere_points(n + 1, 5, seed=15 + n, radius=r)
    else:
        pts = complex_sphere_points(n + 1, 5, seed=15 + n, radius=r)
    for p in pts:
        assert laplace_residual(m, p, r) < 1e-4


def test_laplace_level2_eigenvalue_is_four():
    # explicit second difference against the eigenvalue 2(2+1)/r^2 = 4
    m = build(2, "real")
    r = constants.radius(2)
    assert abs(2.0 * 3.0 / r**2 - 4.0) < 1e-15
    x = sphere_points(3, 1, seed=3, radius=r)[0]
    frm = frame(x, "real")
    h = 1e-3
    lap = np.zeros(m.component_count)
    for v in frm.basis:
        plus = math.cos(h / r) * x + math.sin(h / r) * r * v
        minus = math.cos(h / r) * x - math.sin(h / r) * r * v
        lap += (evaluate(m, plus) - 2 * evaluate(m, x) + evaluate(m, minus)) / h**2
    assert np.max(np.abs(lap + 4.0 * evaluate(m, x))) < 1e-4


def test_laplace_zero_component_is_exact():
    flat = QuadMap(n=1, components=np.zeros((1, 2, 2)))
    assert laplace_residual(flat, np.array([1.0, 0.0]), 1.0) == 0.0


def test_laplace_rejects_off_sphere_point():
    with pytest.raises(ValueError):
        laplace_residual(build(2, "real"), np.array([1.0, 0.0, 0.0]), constants.radius(2))


@pytest.mark.parametrize("field,cap", [("real", 12), ("complex", 8)])
def test_pullback_factor_is_the_batched_pipeline_at_the_canonical_point(field, cap):
    for n in range(1, cap + 1):
        m = build(n, field)
        base = np.zeros(n + 1, dtype=m.components.dtype)
        base[0] = constants.radius(n)
        lam, anis = pullback_factor(m, frame(base, field))
        batch = curvature_field(m, base[None, :])
        assert (lam, anis) == (batch["lambda"][0], batch["anisotropy"][0])


@pytest.mark.parametrize("field,n", [("real", 3), ("complex", 2)])
def test_tangent_images_match_jacobian(field, n):
    m = build(n, field)
    pts = sample_frames(n, field, 4, seed=40 + n)
    images = geometry.tangent_images(m, np.stack([frm.base_point for frm in pts]))
    for frm, t in zip(pts, images):
        jac = jacobian(m, frm.base_point)
        coords = frm.basis if field == "real" else np.concatenate(
            [frm.basis.real, frm.basis.imag], axis=1)
        assert t.shape == (frm.dim, m.component_count)
        assert_allclose(t, coords @ jac.T, atol=1e-12)
