import json
import math
import tracemalloc

import numpy as np
import pytest

from veronese import audit, constants, construct, geometry, measure, quadmap
from veronese.audit import (ERROR, MATCH, MISMATCH, SCALE_DEPENDENT, diagram_check,
                            fiber_checks, hard_failures, orbit_distance,
                            run_claim_audit)
from veronese.construct import build
from veronese.quadmap import evaluate
from veronese.sampling import complex_sphere_points, generator, sphere_points

from oracles import SEPARATION_DELTA, complex_orbit_distance, dense_fiber_separation


def test_orbit_distance_real():
    x = np.array([[1.0, 0.0], [1.0, 0.0]])
    y = np.array([[-1.0, 0.0], [0.0, 1.0]])
    d = orbit_distance(x, y, "real")
    assert d[0] == 0.0
    assert d[1] == pytest.approx(math.sqrt(2.0))


def test_orbit_distance_rejects_an_unknown_field():
    x = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError, match="'Real'"):
        orbit_distance(x, x, "Real")


def _rows(z):
    return np.concatenate([z.real, z.imag], axis=1)


def test_orbit_distance_complex_phase_insensitive():
    z = complex_sphere_points(3, 20, seed=5)
    w = np.exp(1j * 0.83) * z
    # the square root halves the working precision near zero; that is far
    # below the separation threshold of 1e-3 r the distance feeds
    assert np.max(orbit_distance(_rows(z), _rows(w), "complex")) < 1e-7
    other = complex_sphere_points(3, 20, seed=6)
    closed = orbit_distance(_rows(z), _rows(other), "complex")
    # oracle: dense phase scan can only overestimate the true minimum
    thetas = np.linspace(0, 2 * math.pi, 720, endpoint=False)
    scanned = np.min([np.linalg.norm(z - np.exp(1j * t) * other, axis=1)
                      for t in thetas], axis=0)
    assert np.all(closed <= scanned + 1e-12)
    assert np.max(scanned - closed) < 1e-4


@pytest.mark.parametrize("n", [1, 4, 8])
def test_orbit_distance_real_rows_match_complex_einsums(n):
    z = measure.quotient_samples(n, "complex", 1000, seed=60 + n)
    w = measure.quotient_samples(n, "complex", 1000, seed=70 + n)
    rows = orbit_distance(_rows(z), _rows(w), "complex")
    dense = complex_orbit_distance(z, w)
    # the squared distance is |x|^2 + |y|^2 - 2 |<x, y>|, summed in another order;
    # compared against its largest terms, since the square root magnifies a last-bit
    # difference near zero
    scale = 2.0 * constants.radius(n) ** 2
    assert np.max(np.abs(rows**2 - dense**2)) <= 1e-15 * scale


def test_fiber_checks_real_level2():
    rep = fiber_checks(2, "real", 2000, seed=1)
    assert rep["invariance_residual"] == 0.0  # even polynomials, exact
    assert rep["collisions"] == 0
    assert rep["min_singular_value"] > 1e-8
    assert rep["pairs_tested"] > 1900


def test_fiber_checks_complex_level2():
    rep = fiber_checks(2, "complex", 2000, seed=2)
    assert rep["invariance_residual"] < 1e-12
    assert rep["collisions"] == 0
    assert rep["min_singular_value"] > 1e-8


def test_phase_invariance_spot_value():
    cmap = build(2, "complex")
    z = complex_sphere_points(3, 50, seed=3)
    rotated = np.exp(1j * math.pi / 3.0) * z
    assert np.max(np.abs(evaluate(cmap, rotated) - evaluate(cmap, z))) < 1e-12


@pytest.mark.parametrize("field_name, n", [("real", n) for n in range(1, 5)]
                         + [("complex", n) for n in range(1, 4)])
def test_fiber_separation_matches_dense_pair_images(field_name, n):
    # the same pairs, drawn at once as points and compared through two dense images
    seed = 90 + n
    rep = fiber_checks(n, field_name, 5000, seed)
    pairs, collisions, nearest = dense_fiber_separation(
        build(n, field_name), 5000, generator(seed + audit._SEED_STRIDE),
        generator(seed + 2 * audit._SEED_STRIDE))
    assert rep["orbit_separation"] == SEPARATION_DELTA * constants.radius(n)
    assert (rep["pairs_tested"], rep["collisions"]) == (pairs, collisions)
    assert rep["min_image_distance"] == pytest.approx(nearest, rel=1e-12)


def test_fiber_separation_level3_large():
    rep = fiber_checks(3, "real", 10_000, seed=4)
    assert rep["collisions"] == 0
    assert rep["min_image_distance"] > 1e-9


@pytest.mark.parametrize("n", range(1, 5))
def test_diagram_check_levels(n):
    rep = diagram_check(n, 100, seed=10 + n)
    assert rep["restriction_residual"] < 1e-13
    assert rep["zero_residual"] < 1e-15
    assert rep["unit_image_residual"] < 1e-12
    if n == 1:
        assert rep["hopf_residual"] < 1e-14


def test_diagram_check_level_cap():
    with pytest.raises(ValueError):
        diagram_check(5, 10, seed=0)


def test_claim_audit_is_deterministic():
    a = run_claim_audit(3, 2, seed=7, samples=300)
    b = run_claim_audit(3, 2, seed=7, samples=300)
    assert a == b
    ids = [e.claim_id for e in a]
    assert ids == sorted(ids)


def test_claim_audit_verdicts():
    entries = {e.claim_id: e for e in run_claim_audit(6, 4, seed=0, samples=500)}

    assert entries["radius_level3"].verdict == MATCH
    assert entries["radius_level3"].measured == 8.0
    assert entries["gauss_bonnet_level2"].verdict == MATCH
    assert entries["gauss_bonnet_level2"].measured == pytest.approx(1.0, abs=1e-3)
    sigma = entries["sigma_quotient_level3"]
    assert sigma.verdict == MATCH
    assert sigma.measured == pytest.approx(6 * math.pi ** (4 / 3), rel=5e-3)

    iso = entries["isometry_pullback_level2"]
    assert iso.verdict == SCALE_DEPENDENT
    assert iso.measured == pytest.approx(2.0, abs=1e-8)
    assert iso.details["jacobian_oracle"] == 2.0

    s2 = entries["veronese_scalar_curvature"]
    assert s2.verdict == SCALE_DEPENDENT
    assert s2.details["measured_image"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert s2.details["measured_domain"] == pytest.approx(4.0 / 3.0, abs=1e-9)

    a2 = entries["veronese_alpha_norm_sq"]
    assert a2.verdict == SCALE_DEPENDENT
    assert a2.details["measured_image"] == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert a2.details["measured_domain"] == pytest.approx(2.0 / 3.0, abs=1e-9)

    pi2 = entries["pi_functional_level2"]
    assert pi2.verdict == SCALE_DEPENDENT
    assert pi2.details["measured_image"] == pytest.approx(8 * math.pi, rel=1e-6)
    assert pi2.details["measured_domain"] == pytest.approx(2 * math.pi, rel=1e-6)

    for claim_id, entry in entries.items():
        assert entry.statement
        if entry.verdict != SCALE_DEPENDENT:
            assert entry.verdict == MATCH, claim_id


def test_scale_dependent_claims_never_dropped_or_fatal():
    entries = run_claim_audit(2, 1, seed=1, samples=200)
    verdicts = {e.claim_id: e.verdict for e in entries}
    assert verdicts["isometry_pullback_level2"] == SCALE_DEPENDENT
    assert verdicts["veronese_scalar_curvature"] == SCALE_DEPENDENT
    assert hard_failures(entries) == []


def test_match_iff_within_tolerance():
    for e in run_claim_audit(2, 2, seed=3, samples=200):
        if e.verdict == SCALE_DEPENDENT:
            continue
        assert (e.verdict == MATCH) == (e.abs_deviation <= e.tolerance)
        assert e.verdict in (MATCH, MISMATCH)


def test_audit_caps():
    with pytest.raises(ValueError):
        run_claim_audit(7, 4, seed=0, samples=10)
    with pytest.raises(ValueError):
        run_claim_audit(6, 5, seed=0, samples=10)
    with pytest.raises(ValueError):
        run_claim_audit(2, 2, seed=0, samples=0)
    for level in (2.5, True):   # not integer levels
        with pytest.raises(ValueError, match="level must be an integer"):
            run_claim_audit(level, 2, seed=0, samples=10)
        with pytest.raises(ValueError, match="level must be an integer"):
            run_claim_audit(2, level, seed=0, samples=10)
        with pytest.raises(ValueError, match="level must be an integer"):
            diagram_check(level, 10, seed=0)
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="homothety_tol"):
            run_claim_audit(2, 2, seed=0, samples=10, homothety_tol=tol)
    assert run_claim_audit(2, 2, seed=0, samples=10, homothety_tol=0.0)  # zero is a tolerance


def test_entries_serialize_to_json():
    entries = run_claim_audit(2, 2, seed=2, samples=200)
    payload = json.dumps(audit.audit_to_dicts(entries))
    decoded = json.loads(payload)
    assert len(decoded) == len(entries)
    assert {"claim_id", "statement", "expected", "measured", "abs_deviation",
            "verdict", "tolerance"} <= set(decoded[0])


def test_non_finite_numbers_serialize_as_null():
    entry = audit.ClaimAuditEntry(
        claim_id="c", statement="s", expected=math.nan, measured=math.inf,
        abs_deviation=-math.inf, verdict=ERROR, tolerance=1e-8,
        details={"spread": math.nan, "count": 3, "error": "boom"})
    assert entry.to_dict() == {
        "claim_id": "c", "statement": "s", "expected": None, "measured": None,
        "abs_deviation": None, "verdict": ERROR, "tolerance": 1e-8,
        "details": {"spread": None, "count": 3.0, "error": "boom"}}


def test_level2_curvature_field_computed_once(kernel_blocks):
    run_claim_audit(6, 4, seed=0, samples=300)
    # one 20-point sweep per audited level, then level 2 and level 3 once each:
    # the canonical point alone, then the samples (one block here)
    assert kernel_blocks == [20] * 10 + [1, 300] * 2


def test_norm_identity_entries_do_not_depend_on_samples_or_seed():
    # the certificate is read from the coefficients; nothing is drawn
    readings = [[e for e in run_claim_audit(6, 4, seed=seed, samples=samples)
                 if e.claim_id in ("norm_identity_real", "norm_identity_complex")]
                for samples in (1, 20_000) for seed in (0, 11)]
    assert len(readings[0]) == 2
    assert all(entries == readings[0] for entries in readings)


FAMILIES = ("_sequence_claims", "_norm_identity_claim", "_harmonicity_claim", "_fiber_claims",
            "_diagram_claims", "_geometry_claims", "_level2_claims", "_level3_claims")


def test_claim_family_memory_does_not_grow_with_samples(monkeypatch):
    # each family's tracemalloc peak, its samples drawn and reduced block by block
    peaks = {}
    for name in FAMILIES:
        def traced(*args, _name=name, _family=getattr(audit, name)):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return _family(*args)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - start
                peaks[_name] = max(peaks.get(_name, 0), peak)
        monkeypatch.setattr(audit, name, traced)
    run_claim_audit(6, 4, samples=20)  # builds and caches every map first
    by_samples = {}
    tracemalloc.start()
    try:
        for samples in (2_000, 20_000):
            peaks.clear()
            run_claim_audit(6, 4, samples=samples)
            by_samples[samples] = dict(peaks)
    finally:
        tracemalloc.stop()
    for name in FAMILIES:
        # 16 KiB of slack for the families that draw no samples and hold a few KiB
        assert by_samples[20_000][name] <= 1.1 * by_samples[2_000][name] + 16 * 1024, (
            name, by_samples)


@pytest.mark.parametrize("n_max_real, n_max_complex", [(1, 1), (2, 1), (3, 2), (6, 4)])
def test_a_family_that_raises_errors_exactly_its_own_claims(n_max_real, n_max_complex,
                                                            monkeypatch):
    healthy = run_claim_audit(n_max_real, n_max_complex, seed=0, samples=20)

    def broken(n, field):
        raise quadmap.StructuralError(f"no level-{n} {field} map")

    # every family but the exact sequences builds a map
    monkeypatch.setattr(construct, "build", broken)
    entries = run_claim_audit(n_max_real, n_max_complex, seed=0, samples=20)
    assert [e.claim_id for e in entries] == [e.claim_id for e in healthy]
    sequences = {"radius_closed_vs_recursive", "radius_level3",
                 "ambient_dimension_sequences", "coefficient_ratio"}
    for entry, before in zip(entries, healthy):
        if entry.claim_id in sequences:
            assert entry == before
        else:
            assert entry.verdict == ERROR
            assert entry.details["error"].startswith("no level-")
            assert math.isnan(entry.measured)
    assert len(hard_failures(entries)) == len(entries) - len(sequences)


def test_a_linalg_error_fails_the_geometry_families_only(monkeypatch):
    def singular(map_, points):
        raise np.linalg.LinAlgError("Singular matrix")

    healthy = {e.claim_id: e for e in run_claim_audit(3, 2, seed=4, samples=50)}
    monkeypatch.setattr(geometry, "curvature_field", singular)
    entries = {e.claim_id: e for e in run_claim_audit(3, 2, seed=4, samples=50)}
    errors = {"homothety", "minimality", "isometry_pullback_level2",
              "veronese_scalar_curvature", "veronese_alpha_norm_sq",
              "pi_functional_level2", "gauss_bonnet_level2", "sigma_quotient_level3"}
    assert entries.keys() == healthy.keys()
    for claim_id, entry in entries.items():
        if claim_id in errors:
            assert entry.verdict == ERROR
            assert entry.details == {"error": "Singular matrix"}
        else:
            assert entry == healthy[claim_id]
    assert {e.claim_id for e in hard_failures(entries.values())} == errors


def test_a_nonconstant_integrand_errors_exactly_the_integral_claims(request):
    healthy = {e.claim_id: e for e in run_claim_audit(3, 2)}
    request.getfixturevalue("varying_scalar_curvature")
    entries = {e.claim_id: e for e in run_claim_audit(3, 2)}
    errors = {"veronese_scalar_curvature", "veronese_alpha_norm_sq", "pi_functional_level2",
              "gauss_bonnet_level2", "sigma_quotient_level3"}
    assert entries.keys() == healthy.keys()
    for claim_id, entry in entries.items():
        if claim_id in errors:
            assert entry.verdict == ERROR
            assert entry.details["error"].startswith(
                "the image-metric scalar curvature is not constant"), claim_id
        else:
            assert entry == healthy[claim_id]
    assert {e.claim_id for e in hard_failures(entries.values())} == errors


SAMPLERS = [(measure, "sphere_points"), (measure, "complex_sphere_points"),
            (audit, "sphere_points")]


def _philox_key(seed) -> int:
    if isinstance(seed, np.random.Generator):
        return int(seed.bit_generator.state["state"]["key"][0])
    return seed % 2**64


@pytest.mark.parametrize("seed", [0, 7])
def test_point_families_draw_distinct_points(seed, monkeypatch):
    # no two draws share a key, whatever their samplers (the complex samplers
    # draw from the same stream as the real ones, so a real draw keyed like a
    # complex one would reuse its normals), and no sampler returns one point
    # set twice (the complex level-1 geometry sweep used to repeat the first
    # Hopf points); the blocks drawn from one generator are one draw
    draws = []  # [sampler, seed or generator, blocks]

    def keep(name, key, points):
        for draw in draws:
            if isinstance(key, np.random.Generator) and draw[1] is key:
                draw[2].append(points)
                return
        draws.append([name, key, [points]])

    for module, name in SAMPLERS:
        def record(dim, count, key, radius=1.0, _name=name, _draw=getattr(module, name)):
            points = _draw(dim, count, key, radius=radius)
            keep(_name, key, points)
            return points
        monkeypatch.setattr(module, name, record)

    run_claim_audit(n_max_real=2, n_max_complex=2, seed=seed, samples=30)
    assert {name for name, _, _ in draws} == {name for _, name in SAMPLERS}
    keys = [_philox_key(key) for _, key, _ in draws]
    assert len(set(keys)) == len(keys)
    points = [np.concatenate(blocks) for _, _, blocks in draws]
    for i, (name, _, _) in enumerate(draws):
        for j in range(i + 1, len(draws)):
            a, b = points[i], points[j]
            rows = min(len(a), len(b))
            if draws[j][0] == name and a.shape[1] == b.shape[1]:
                assert not np.array_equal(a[:rows], b[:rows])
