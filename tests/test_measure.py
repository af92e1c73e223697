import math
import tracemalloc

import numpy as np
import pytest

from veronese import constants, construct, geometry, measure, quadmap, sampling
from veronese.construct import build
from veronese.geometry import curvature_field
from veronese.measure import global_invariants, sphere_volume
from veronese.quadmap import StructuralError
from veronese.sampling import complex_sphere_points, sphere_points

from oracles import fiber_actions, integrand_spread, normalized_rows


def test_sphere_volume_values():
    assert sphere_volume(1, 1.0) == pytest.approx(2 * math.pi)
    assert sphere_volume(3, 1.0) == pytest.approx(2 * math.pi**2)
    assert sphere_volume(2, math.sqrt(1.5)) == pytest.approx(6 * math.pi)


def test_sphere_volume_domain_errors():
    with pytest.raises(ValueError):
        sphere_volume(0, 1.0)
    with pytest.raises(ValueError):
        sphere_volume(2, 0.0)


@pytest.mark.parametrize("n,field,expected", [
    (1, "real", 2 * math.pi),    # image circle has length 2 pi
    (2, "real", 6 * math.pi),
    (1, "complex", 4 * math.pi),  # image 2-sphere has area 4 pi
])
def test_quotient_volumes(n, field, expected):
    reading = global_invariants(n, field, 2000, seed=0)["image"]
    assert reading["volume"] == pytest.approx(expected, rel=1e-12)


def test_integral_estimate_determinism():
    a = global_invariants(2, "real", 5000, seed=123)
    b = global_invariants(2, "real", 5000, seed=123)
    assert a == b
    # other points read the same constants, up to rounding
    c = global_invariants(2, "real", 5000, seed=124)
    for metric in ("image", "domain"):
        for key, value in a[metric].items():
            assert c[metric][key] == pytest.approx(value, rel=1e-13), (metric, key)


def test_curvature_integrands_are_fiber_invariant():
    # the integrands global_invariants reads are functions on the quotient
    for field, n in (("real", 2), ("real", 3), ("complex", 1), ("complex", 2)):
        m = build(n, field)
        pts = sampling.quotient_samples(n, field, 8, seed=30 + n)
        ref = curvature_field(m, pts)
        for g in fiber_actions(field):
            moved = curvature_field(m, g * pts)
            for key in ("scalar_curvature_gauss", "mean_curvature_norm", "alpha_norm_sq"):
                assert np.max(np.abs(moved[key] - ref[key])) < 1e-10 * max(
                    1.0, float(np.max(np.abs(ref[key])))), (field, n, key)


@pytest.mark.parametrize("chunk_bytes", [1, quadmap.CHUNK_BYTES],
                         ids=["point-chunks", "budget-chunks"])
def test_nonconstant_integrand_raises(unbalanced_level2_map, chunk_bytes, monkeypatch):
    # the unbalanced map's integrands vary, and its pairs miss the congruence
    # identity; at one row per block every pair joins the row carried from the last
    # block to the block's one row, so the worst pair, and the message, are the same
    monkeypatch.setattr(quadmap, "CHUNK_BYTES", chunk_bytes)
    with pytest.raises(StructuralError) as raised:
        global_invariants(2, "real", 4000, seed=7)
    assert str(raised.value) == ("real level 2: the map is not a congruence on the samples: "
                                 "pair deviation 4.442e-11, bound 1.000e-12")
    # one sample checks no pair
    assert global_invariants(2, "real", 1, seed=7)["image"]["total_scalar"] > 0


def test_gauss_bonnet_ratio():
    readings = global_invariants(2, "real", 10_000, seed=3)
    assert readings["image"]["gauss_bonnet_ratio"] == pytest.approx(1.0, abs=1e-3)
    assert readings["domain"]["gauss_bonnet_ratio"] == pytest.approx(1.0, abs=1e-3)


def test_pi_functional_both_conventions():
    readings = global_invariants(2, "real", 5000, seed=5)
    gi, gd = readings["image"], readings["domain"]
    assert gi["pi_functional"] == pytest.approx(8 * math.pi, rel=5e-3)
    assert gi["alpha_norm_sq_mean"] == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert gi["scalar_curvature_mean"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert gd["pi_functional"] == pytest.approx(2 * math.pi, rel=5e-3)
    assert gd["alpha_norm_sq_mean"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert gd["scalar_curvature_mean"] == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_sigma_quotient():
    gi = global_invariants(3, "real", 5000, seed=11)["image"]
    assert gi["sigma_quotient"] == pytest.approx(6 * math.pi ** (4 / 3), rel=5e-3)


def test_sigma_quotient_scale_invariance():
    readings = global_invariants(3, "real", 1000, seed=2)
    image, dom = readings["image"], readings["domain"]
    assert abs(dom["sigma_quotient"] - image["sigma_quotient"]) < 1e-10


def test_total_scalar_matches_ratio():
    gi = global_invariants(2, "real", 1000, seed=9)["image"]
    assert gi["total_scalar"] == pytest.approx(4 * math.pi * gi["gauss_bonnet_ratio"])


def test_complex_global_invariants():
    gi = global_invariants(2, "complex", 1000, seed=13)["image"]
    assert gi["scalar_curvature_mean"] == pytest.approx(8.0, abs=1e-9)
    assert gi["alpha_norm_sq_mean"] == pytest.approx(4.0, abs=1e-9)
    assert "gauss_bonnet_ratio" not in gi
    assert "sigma_quotient" not in gi


def test_bad_arguments():
    with pytest.raises(ValueError):
        global_invariants(2, "quaternionic", 10, seed=0)
    with pytest.raises(ValueError):
        global_invariants(2, "real", 0, seed=0)
    with pytest.raises(ValueError):
        sampling.quotient_samples(2, "quaternionic", 10, seed=0)
    with pytest.raises(ValueError):
        fiber_actions("quaternionic")


BLOCK_DRAWS = {
    "sphere_points": lambda count, seed, start:
        sphere_points(7, count, seed, radius=1.3, start=start),
    "complex_sphere_points": lambda count, seed, start:
        complex_sphere_points(5, count, seed, start=start),
    "quotient_samples_real": lambda count, seed, start:
        sampling.quotient_samples(12, "real", count, seed, start),
    "quotient_samples_complex": lambda count, seed, start:
        sampling.quotient_samples(8, "complex", count, seed, start),
}


@pytest.mark.parametrize("name", sorted(BLOCK_DRAWS))
def test_block_draws_from_one_generator_equal_the_single_draw(name):
    # blocks of one key's stream, each drawn from the row where the last ended
    draw, seed, total = BLOCK_DRAWS[name], 31, 5_000
    lengths = [1, 7, 4096, total - 4104]
    starts = np.cumsum([0] + lengths[:-1]).tolist()
    blocks = [draw(length, seed, start) for length, start in zip(lengths, starts)]
    assert [len(b) for b in blocks] == lengths
    assert np.array_equal(np.concatenate(blocks), draw(total, seed, 0))


@pytest.mark.parametrize("dim", [1, 4, 13, 18])
def test_sphere_points_match_the_reference_bit_for_bit(dim):
    # the in-place normalization against np.linalg.norm and a fresh array, on
    # the same normals, at an even and an odd first normal
    for radius in (1.0, 0.37, constants.radius(12), 2.0):
        for start in (0, 3):
            normals = sampling._normals(40 + dim, start * dim, 500 * dim).reshape(500, dim)
            assert np.array_equal(
                sphere_points(dim, 500, 40 + dim, radius=radius, start=start),
                normalized_rows(normals, radius))


def test_quotient_samples_deterministic():
    a = sampling.quotient_samples(2, "real", 64, seed=21)
    b = sampling.quotient_samples(2, "real", 64, seed=21)
    assert np.array_equal(a, b)
    r = np.linalg.norm(a, axis=1)
    assert np.max(np.abs(r - constants.radius(2))) < 1e-12


def test_per_metric_readings_equal_separate_calls():
    # each reading's constants equal row 0 of a separate curvature field over the
    # same samples, the domain reading with the metric scaled by t = 1/lambda,
    # and the integrals are the closed-form volume times them
    both = global_invariants(2, "real", 500, 17)
    image, domain = both["image"], both["domain"]
    m = build(2, "real")
    lam = float(curvature_field(m, geometry.canonical_point(m)[None])["lambda"][0])
    geo = curvature_field(m, sampling.quotient_samples(2, "real", 500, 17))
    scalar, h_norm = float(geo["scalar_curvature_gauss"][0]), float(geo["mean_curvature_norm"][0])
    assert domain["lambda_bar"] == image["lambda_bar"] == lam
    for reading, t in ((image, 1.0), (domain, 1.0 / lam)):
        assert reading["volume"] == measure.quotient_volume_factor(2, "real", lam * t)
        assert reading["scalar_curvature_mean"] == scalar / t
        assert reading["alpha_norm_sq_mean"] == 2 + h_norm**2 - scalar / t
        assert reading["total_scalar"] == reading["volume"] * reading["scalar_curvature_mean"]
    assert domain["volume"] == pytest.approx(image["volume"] / lam, rel=1e-14)
    assert domain["scalar_curvature_mean"] == pytest.approx(
        lam * image["scalar_curvature_mean"], rel=1e-14)


@pytest.mark.parametrize("field,n", [("real", 2), ("real", 12), ("complex", 8)])
def test_canonical_reading_is_the_canonical_point_alone(field, n):
    # the canonical row of the one curvature field equals a one-point field at
    # that point, and it carries lambda for both metric readings
    both = global_invariants(n, field, 50, seed=3)
    canonical = both["canonical"]
    assert set(canonical) == {"homothety_factor", "anisotropy", "alpha_norm_sq",
                              "mean_curvature_norm", "scalar_curvature_gauss",
                              "effective_radius_sq"}
    m = build(n, field)
    alone = curvature_field(m, geometry.canonical_point(m)[None])
    lam = float(alone.pop("lambda")[0])
    assert canonical["homothety_factor"] == lam
    assert both["image"]["lambda_bar"] == both["domain"]["lambda_bar"] == lam
    for key, value in alone.items():
        assert canonical[key] == float(value[0]), key
    assert canonical["effective_radius_sq"] == lam * constants.radius(n) ** 2
    assert canonical["effective_radius_sq"] == pytest.approx(2.0 * (n + 1) / n, rel=1e-13)


LEVELS = [(field, n) for field, cap in constants.LEVEL_CAPS["build"].items()
          for n in range(1, cap + 1)]


@pytest.mark.parametrize("field,n", LEVELS)
def test_curvature_integrands_take_the_constant_branch(field, n):
    # the integrands are constants of the embedding, so both integrals are the
    # closed-form volume times that constant, never a Monte-Carlo mean
    readings = global_invariants(n, field, 1000, seed=60 + n)
    for metric in ("image", "domain"):
        reading = readings[metric]
        assert reading["total_scalar"] == reading["volume"] * reading["scalar_curvature_mean"]
        assert reading["pi_functional"] == reading["volume"] * reading["alpha_norm_sq_mean"]
        assert not any(key.endswith("std_error") for key in reading), metric


@pytest.fixture
def varying_scalar_curvature(monkeypatch):
    """x0^2 added to the scalar curvature of the curvature field: an integrand that
    is invariant under the antipodal map but genuinely varies."""
    def varying(map_, points, _field=geometry.curvature_field):
        geo = _field(map_, points)
        geo["scalar_curvature_gauss"] = geo["scalar_curvature_gauss"] + points[:, 0] ** 2
        return geo

    monkeypatch.setattr(geometry, "curvature_field", varying)


@pytest.mark.parametrize("field,n", LEVELS)
def test_the_curvature_integrands_are_constant(field, n):
    # the oracle runs the kernel on every sample; global_invariants reads the first
    # sample of the same key and gates it on the pair identity alone
    readings = global_invariants(n, field, 1, seed=80 + n)
    spreads = integrand_spread(build(n, field), 1000, 80 + n)
    for name, (first, spread) in spreads.items():
        assert spread <= 1e-12 * max(1.0, abs(first)), (name, first, spread)
    for metric in ("image", "domain"):
        assert spreads[f"{metric}-metric scalar curvature"][0] == readings[metric][
            "scalar_curvature_mean"]
        assert spreads[f"{metric}-metric |alpha|^2"][0] == readings[metric]["alpha_norm_sq_mean"]


def test_the_spread_oracle_catches_a_varying_integrand(request):
    spreads = integrand_spread(build(2, "real"), 4000, 7)
    assert max(spread for _, spread in spreads.values()) < 1e-13
    request.getfixturevalue("varying_scalar_curvature")
    spreads = integrand_spread(build(2, "real"), 4000, 7)
    assert spreads["image-metric scalar curvature"][1] > 1.0  # x0^2 spans most of [0, r^2]
    assert spreads["image-metric |alpha|^2"][1] > 1.0


def test_the_unbalanced_map_has_a_varying_integrand(unbalanced_level2_map):
    # the map stands for a nonconstant integrand in the tests that raise on it
    spreads = integrand_spread(construct.build(2, "real"), 4000, 7)
    assert spreads["image-metric scalar curvature"][1] > 1e-12


@pytest.mark.parametrize("field,cap", [("real", 12), ("complex", 8)])
def test_a_budget_sized_gate_block_stays_within_chunk_bytes(field, cap, monkeypatch):
    # the tracemalloc peak of global_invariants on as many samples as one block of
    # its pair gate holds (the rows of its first draw), after a warm-up call
    class Drawn(Exception):
        pass

    def first_draw(dim, count, *args, **kwargs):
        raise Drawn(count)

    for n in range(1, cap + 1):
        with monkeypatch.context() as patch, pytest.raises(Drawn) as drawn:
            patch.setattr(sampling, "sphere_points", first_draw)
            global_invariants(n, field, 10**9, seed=170 + n)
        length = drawn.value.args[0]
        global_invariants(n, field, 2, seed=170 + n)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            global_invariants(n, field, length, seed=170 + n)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= quadmap.CHUNK_BYTES, (n, length, peak)
        # a block counts three times its peak, for what glibc keeps of it: measured
        # 0.26-0.39 of the budget, so blocks do not run much shorter than that
        assert peak >= quadmap.CHUNK_BYTES // 4, (n, length, peak)
