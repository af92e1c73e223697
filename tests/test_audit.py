import itertools
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from veronese import audit, cli, constants, construct, geometry, quadmap, sampling
from veronese.audit import (ERROR, MATCH, MISMATCH, SCALE_DEPENDENT, diagram_check,
                            hard_failures, run_claim_audit)
from veronese.construct import build
from veronese.quadmap import evaluate, norm_identity_residual
from veronese.sampling import complex_sphere_points, sphere_points

from oracles import (DIAGRAM_TOLERANCES, GAMMA, PAIR_SEED_STRIDE, SEPARATION_DELTA,
                     complex_orbit_distance, dense_fiber_separation, fiber_checks,
                     orbit_distance, per_action_invariance, real_restriction_indices,
                     realified_commutator, sampled_diagram_check, smallest_singular_value,
                     splitmix64_finalizer)


def test_orbit_distance_real():
    x = np.array([[1.0, 0.0], [1.0, 0.0]])
    y = np.array([[-1.0, 0.0], [0.0, 1.0]])
    d = orbit_distance(x, y, "real")
    assert d[0] == 0.0
    assert d[1] == pytest.approx(math.sqrt(2.0))


@pytest.mark.parametrize("m", [2, 3, 7, 8, 10])
def test_orbit_distance_real_is_the_least_norm_bit_for_bit(m):
    x = sphere_points(m, 300, 1, radius=1.5)
    y = sphere_points(m, 300, 2, radius=1.5)
    y[:5] = -x[:5]  # antipodal pairs, at distance 0
    expected = np.minimum(np.linalg.norm(x - y, axis=1), np.linalg.norm(x + y, axis=1))
    assert np.array_equal(orbit_distance(x, y, "real"), expected)


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
    z = sampling.quotient_samples(n, "complex", 1000, seed=60 + n)
    w = sampling.quotient_samples(n, "complex", 1000, seed=70 + n)
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
    assert rep["min_image_distance"] > 1e-9
    assert rep["pairs_tested"] > 1900


def test_fiber_checks_complex_level2():
    rep = fiber_checks(2, "complex", 2000, seed=2)
    assert rep["invariance_residual"] < 1e-12
    assert rep["collisions"] == 0
    assert rep["min_image_distance"] > 1e-9


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
        build(n, field_name), 5000, seed + PAIR_SEED_STRIDE, seed + 2 * PAIR_SEED_STRIDE)
    assert rep["orbit_separation"] == SEPARATION_DELTA * constants.radius(n)
    assert (rep["pairs_tested"], rep["collisions"]) == (pairs, collisions)
    assert rep["min_image_distance"] == pytest.approx(nearest, rel=1e-12)


@pytest.mark.parametrize("field_name, n", [("real", n) for n in range(1, 7)]
                         + [("complex", n) for n in range(1, 5)])
def test_fiber_invariance_equals_the_per_action_loop(field_name, n):
    # the group elements of fiber_actions, one array, against phases taken one at a time
    # in Python floats, at the audit's seeds
    seed = audit._sub_seed(0, 7, n, field_name)
    rep = fiber_checks(n, field_name, 200, seed)
    assert rep["invariance_residual"] == per_action_invariance(build(n, field_name), 200, seed)


@pytest.mark.parametrize("n", range(1, constants.LEVEL_CAPS["build"]["complex"] + 1))
def test_the_realified_stack_commutes_with_the_complex_structure(n):
    # why the audit reads fiber invariance as 0.0: at every build level, not only the
    # audited ones
    map_ = build(n, "complex")
    assert realified_commutator(map_) == 0.0
    # and the oracle sees a stack whose blocks break the layout: Re A_k doubled in one block
    m = map_.stack.shape[0]
    broken = map_.stack.reshape(m, m, -1).copy()
    broken[:m // 2, :m // 2] *= 2.0
    assert realified_commutator(SimpleNamespace(
        field="complex", component_count=map_.component_count,
        stack=broken.reshape(m, -1))) > 0.0


def test_fiber_separation_level3_large():
    rep = fiber_checks(3, "real", 10_000, seed=4)
    assert rep["collisions"] == 0
    assert rep["min_image_distance"] > 1e-9


AUDITED = [(field_name, n) for field_name, cap in constants.LEVEL_CAPS["audit"].items()
           for n in range(1, cap + 1)]


@pytest.mark.parametrize("field_name, n", AUDITED)
def test_the_sampled_search_agrees_with_the_certificate(field_name, n):
    cert = audit._fiber_certificate(build(n, field_name))
    rep = fiber_checks(n, field_name, 2000, audit._sub_seed(0, 7, n, field_name))
    assert rep["collisions"] == 0
    assert rep["min_image_distance"] >= cert["separation_floor"] > audit.SEPARATION_FLOOR
    assert rep["invariance_residual"] <= 1e-12
    assert realified_commutator(build(n, field_name)) == 0.0
    # the Gram matrix is c I with c = (n+1) / (n r^4), the squared scale of the congruence
    c = (n + 1) / (n * float(constants.radius_pow4(n)))
    assert cert["gram_mean"] == pytest.approx(c, rel=1e-14)
    assert 0.0 < cert["lambda_lower"] <= cert["gram_mean"]


def _pairs(n, field_name, count, angle, seed):
    """count points x of the level sphere and y at the angle from x along a random
    great circle orthogonal to the fiber of x, each then moved by a random fiber
    action (a sign, or a phase); angle None draws y independently.  x, then y
    or v, are rows 0 .. count - 1 and count .. 2 count - 1 of the seed's stream."""
    r = constants.radius(n)
    rng = np.random.default_rng(seed)
    x = sampling.quotient_samples(n, field_name, count, seed)
    if angle is None:
        return x, sampling.quotient_samples(n, field_name, count, seed, count)
    v = sampling.quotient_samples(n, field_name, count, seed, count)
    v -= x * (np.sum(np.conj(x) * v, axis=1, keepdims=True) / r**2)
    y = math.cos(angle) * x + math.sin(angle) * r * v / np.linalg.norm(v, axis=1, keepdims=True)
    if field_name == "real":
        return x, y * rng.choice([-1.0, 1.0], size=(count, 1))
    return x, y * np.exp(2j * math.pi * rng.random((count, 1)))


@pytest.mark.parametrize("angle", [1e-3, None], ids=["near", "far"])
@pytest.mark.parametrize("field_name, n", AUDITED)
def test_the_distance_law(field_name, n, angle):
    # |F(x) - F(y)|^2 = c D^2 (2 r^2 - D^2 / 2) at orbit distance D, and the
    # certificate's lower eigenvalue bound keeps it from below
    map_ = build(n, field_name)
    cert = audit._fiber_certificate(map_)
    r = constants.radius(n)
    x, y = _pairs(n, field_name, 500, angle, seed=300 + n)
    dist = orbit_distance(map_.real_rows(x), map_.real_rows(y), field_name)
    if angle is not None:  # the chord of the angle, D about 1e-3 r
        assert np.max(np.abs(dist / (2.0 * r * math.sin(angle / 2.0)) - 1.0)) <= 1e-9
    image_sq = np.sum((evaluate(map_, x) - evaluate(map_, y)) ** 2, axis=1)
    law = dist**2 * (2.0 * r * r - dist**2 / 2.0)
    assert np.max(np.abs(image_sq / (cert["gram_mean"] * law) - 1.0)) <= 1e-9
    assert np.all(image_sq >= cert["lambda_lower"] * law * (1.0 - 1e-9))


def _replace_build(monkeypatch, change, field=None, level=None):
    """construct.build with change applied to the coefficient stack of every map,
    or of the maps of one field, or of one level of it."""
    original = construct.build

    def changed(n, field_name):
        map_ = original(n, field_name)
        if field in (None, field_name) and level in (None, n):
            return quadmap.QuadMap(n, change(map_.components.copy()))
        return map_

    monkeypatch.setattr(construct, "build", changed)


def test_a_duplicated_component_fails_fiber_separation(monkeypatch, capsys):
    # the first component replaced by the second: as many components as forms, but
    # a singular Gram matrix, so nothing bounds the image distance from below
    _replace_build(monkeypatch, lambda comps: np.concatenate([comps[1:2], comps[1:]]))
    for field_name in ("real", "complex"):
        assert audit._fiber_certificate(construct.build(2, field_name))["lambda_lower"] <= 0.0
    code = cli.main(["verify", "--n-max", "2", "--samples", "50", "--format", "json"])
    entries = {e["claim_id"]: e for e in json.loads(capsys.readouterr().out)}
    assert code == 1
    for field_name in ("real", "complex"):
        separation = entries[f"fiber_separation_{field_name}"]
        assert separation["verdict"] == MISMATCH
        assert separation["measured"] == 2.0  # both levels
        assert separation["details"]["min_image_distance"] == 0.0
        assert entries[f"fiber_invariance_{field_name}"]["verdict"] == MATCH


def test_a_dropped_component_errors_both_fiber_claims(monkeypatch):
    # fewer components than trace-free forms: a positive Gram matrix proves nothing
    _replace_build(monkeypatch, lambda comps: comps[:-1])
    entries = {e.claim_id: e for e in run_claim_audit(2, seed=0, samples=20)}
    for field_name, forms in (("real", 2), ("complex", 3)):  # at level 1
        for claim in ("invariance", "separation"):
            entry = entries[f"fiber_{claim}_{field_name}"]
            assert entry.verdict == ERROR
            assert entry.details["error"] == (
                f"{field_name} level 1: {forms - 1} components for {forms} trace-free forms")


DIAGRAM_IDS = {"diagram_real_restriction", "diagram_zero_components", "hopf_factorization"}
NORM_IDENTITY_IDS = {"norm_identity_real", "norm_identity_complex", "unit_image"}


def test_the_fiber_claims_draw_nothing(monkeypatch, kernel_blocks):
    # nor do the diagram and norm-identity claims: verify draws only for the curvature kernel
    draws = []

    def counted(*args, _draw=sampling.sphere_points, **kwargs):
        draws.append(args)
        return _draw(*args, **kwargs)

    monkeypatch.setattr(sampling, "sphere_points", counted)
    for field_name, cap in constants.LEVEL_CAPS["audit"].items():
        audit._fiber_claims(field_name, range(1, cap + 1))
    audit._diagram_claims(range(1, constants.LEVEL_CAPS["audit"]["complex"] + 1))
    audit._norm_identity_claims({field_name: range(1, cap + 1) for field_name, cap
                                 in constants.LEVEL_CAPS["audit"].items()})
    assert draws == []
    fiber_ids = {f"fiber_{claim}_{field_name}" for claim in ("invariance", "separation")
                 for field_name in ("real", "complex")}
    readings = [run_claim_audit(6, seed=seed, samples=samples)
                for samples in (1, 20_000) for seed in (0, 11)]
    for ids in (fiber_ids, DIAGRAM_IDS, NORM_IDENTITY_IDS):
        entries = [[e for e in reading if e.claim_id in ids] for reading in readings]
        assert len(entries[0]) == len(ids)
        assert all(entry == entries[0] for entry in entries)
    # the geometry sweeps put every point they draw through the kernel, which also
    # reads the canonical point and the first sample of real levels 2 and 3 once per
    # audit; the two integral gates draw each of their samples once
    gate_rows = 2 * sum(samples for samples in (1, 20_000) for seed in (0, 11))
    assert sum(args[1] for args in draws) == (sum(kernel_blocks) - 4 * len(readings)
                                              + gate_rows)


def test_minimality_reads_every_audited_level_from_2():
    entries = {e.claim_id: e for e in run_claim_audit(6, seed=3, samples=20)}
    sweeps = [audit._geometry_sweep(n, field_name, audit._sub_seed(3, 23, n, field_name))
              for field_name, n in AUDITED if n >= 2]
    assert entries["minimality"].measured == max(sweep["h_norm_max"] for sweep in sweeps)


@pytest.mark.parametrize("field_name, n", [("real", n) for n in range(1, 7)]
                         + [("complex", n) for n in range(1, 5)])
def test_singular_value_floor_bounds_the_svd(field_name, n):
    # the sweep's floor sqrt(lambda - d anisotropy) at the points the audit draws with
    # seed 0, against the SVD of the tangent images there.  Where the Gram matrix
    # rounds to lambda I (levels 1 and 2) the two are one value computed two ways,
    # and the floor may read one unit in the last place above; over 40 seeds it read
    # from one ulp above to 2.4e-15 relative below
    seed = audit._sub_seed(0, 23, n, field_name)
    floor = audit._geometry_sweep(n, field_name, seed)["singular_value_floor"]
    points = sampling.quotient_samples(n, field_name, 20, seed)
    smallest = smallest_singular_value(build(n, field_name), points)
    assert smallest * (1.0 - 1e-14) <= floor <= smallest + np.spacing(smallest)


@pytest.mark.parametrize("n", range(1, 5))
def test_diagram_check_levels(n):
    # each coefficient bound holds for the sampled reading, up to its evaluation rounding;
    # the norm-identity certificates of both maps bound the sampled unit image
    bounds = {**diagram_check(n), "unit_image_residual": max(
        norm_identity_residual(build(n, field_name)) for field_name in ("real", "complex"))}
    sampled = sampled_diagram_check(n, 100, seed=10 + n)
    assert bounds.keys() == sampled.keys()
    assert ("hopf_residual" in bounds) == (n == 1)
    for key, bound in bounds.items():
        assert sampled[key] <= bound + 1e-15, key
        assert max(sampled[key], bound) <= DIAGRAM_TOLERANCES[key], key


def test_diagram_check_level_cap():
    with pytest.raises(ValueError):
        diagram_check(5)


def _add_identity(index, size):
    """A change that adds size times I to component index."""
    def change(comps):
        comps[index] += size * np.eye(comps.shape[1])
        return comps
    return change


def _add_multiple(index, source, size):
    """A change that adds size times component source to component index."""
    def change(comps):
        comps[index] += size * comps[source]
        return comps
    return change


@pytest.mark.parametrize("change, level, failing", [
    # the bound reads r_2^2 |1e-12 I|_F = 1.5e-12 sqrt(3); the trace moves by 3e-12, and
    # the norm identity breaks as well
    (_add_identity(0, 1e-12), 2, {"diagram_real_restriction": 1.5 * 1e-12 * math.sqrt(3),
                                  "harmonicity": None, "norm_identity_complex": None,
                                  "unit_image": None}),
    # component 1 is in the zero set, and 1e-13 I moves nothing else past its tolerance
    (_add_identity(1, 1e-13), 2, {"diagram_zero_components": 1.5 * 1e-13 * math.sqrt(3)}),
    # a congruent reordering, which the restriction's count guards let through
    (lambda comps: comps[::-1], 2, {"diagram_real_restriction": None}),
    # the Hopf stack off by a scale; the geometry sweep then raises on the image norm
    (lambda comps: comps * (1.0 + 1e-9), 1, {"diagram_real_restriction": None,
                                             "hopf_factorization": None,
                                             "norm_identity_complex": None, "unit_image": None}),
], ids=["restriction", "zero-set", "reversed", "hopf-scale"])
def test_a_changed_complex_map_fails_its_diagram_claims(monkeypatch, change, level, failing):
    _replace_build(monkeypatch, change, field="complex", level=level)
    entries = {e.claim_id: e for e in run_claim_audit(4, seed=0, samples=50)}
    mismatched = {e.claim_id for e in entries.values() if e.verdict == MISMATCH}
    assert mismatched == failing.keys()
    for claim_id, measured in failing.items():
        if measured is not None:
            assert entries[claim_id].measured == pytest.approx(measured, rel=1e-3)
    errors = {e.claim_id for e in entries.values() if e.verdict == ERROR}
    assert errors.isdisjoint(DIAGRAM_IDS)
    if level == 1:
        assert all(entries[claim_id].details["error"].startswith(
            "complex level 1: image points are off the unit sphere") for claim_id in errors)
    else:
        assert errors == set()


@pytest.mark.parametrize("n", range(1, 5))
def test_diagram_check_sorts_the_components_as_the_oracle(n, monkeypatch):
    # 1e-13 I added to the real part of one component stays below the zero-component
    # tolerance, and moves the zero-set bound if and only if the oracle, which sorts
    # by an exactly zero real part, puts that component in the zero set
    # (the restriction bound reads (a + 1e-13) - a on the diagonal, within 1e-3 of 1e-13)
    zero_set = real_restriction_indices(build(n, "complex"))[1]
    size = constants.radius(n) ** 2 * 1e-13 * math.sqrt(n + 1)
    for k in range(build(n, "complex").component_count):
        _replace_build(monkeypatch, _add_identity(k, 1e-13), field="complex", level=n)
        bounds = diagram_check(n)
        monkeypatch.undo()
        moved, still = (("zero_residual", "restriction_residual") if k in zero_set
                        else ("restriction_residual", "zero_residual"))
        assert bounds[still] == 0.0, k
        assert bounds[moved] == pytest.approx(size, rel=1e-2), k


def test_the_restriction_scale_cannot_overflow(monkeypatch):
    # the modulus of 1.7e308 + 1.7e308j overflows; the scale that sorts the components
    # takes real and imaginary magnitudes, so on real points the first and last
    # components survive and none is lost to the scale
    big = 1.7e308 * np.array([[[0, 1 + 1j], [1 - 1j, 0]], [[0, 1j], [-1j, 0]], [[1, 0], [0, -1]]])
    maps = {"complex": quadmap.QuadMap(1, big), "real": quadmap.QuadMap(1, big[[0, 2]].real)}
    monkeypatch.setattr(construct, "build", lambda n, field_name: maps[field_name])
    with np.errstate(over="ignore"):  # the Hopf bound of such a map is infinite
        bounds = diagram_check(1)
    assert (bounds["restriction_residual"], bounds["zero_residual"]) == (0.0, 0.0)
    assert math.isinf(bounds["hopf_residual"])


@pytest.mark.parametrize("field_name, change, message", [
    # a zero-set component given a real part: six components survive on real points
    ("complex", _add_multiple(1, 0, 1.0),
     "complex level 2: found 6 nonvanishing components on real points, expected 5"),
    ("real", lambda comps: comps[:-1], "real level 2: found 4 components, expected 5"),
], ids=["survivors", "real-count"])
def test_a_count_that_misses_errors_the_diagram_claims(field_name, change, message,
                                                      monkeypatch):
    _replace_build(monkeypatch, change, field=field_name, level=2)
    entries = {e.claim_id: e for e in run_claim_audit(2, seed=0, samples=20)}
    errors = {claim_id for claim_id, e in entries.items() if e.verdict == ERROR}
    assert DIAGRAM_IDS <= errors
    assert {entries[claim_id].details["error"] for claim_id in DIAGRAM_IDS} == {message}
    # the norm-identity family reads no component indices, so it still measures
    assert errors.isdisjoint(NORM_IDENTITY_IDS)


def test_each_map_s_norm_identity_is_certified_once(monkeypatch):
    calls = []

    def counted(map_, _residual=norm_identity_residual):
        calls.append((map_.field, map_.n))
        return _residual(map_)

    monkeypatch.setattr(audit, "norm_identity_residual", counted)
    run_claim_audit(6, seed=0, samples=20)
    assert len(calls) == len(set(calls)) == 10
    assert set(calls) == set(AUDITED)
    calls.clear()
    # unit_image reads both maps at every complex level
    entries = run_claim_audit(2, seed=0, samples=20)
    assert sorted(calls) == [("complex", 1), ("complex", 2), ("real", 1), ("real", 2)]
    assert hard_failures(entries) == []


def _rotate(comps):
    """Components 0 and 1 rotated by 30 degrees in the plane they span."""
    turn = math.pi / 6.0
    comps[:2] = np.tensordot([[math.cos(turn), -math.sin(turn)],
                              [math.sin(turn), math.cos(turn)]], comps[:2], axes=1)
    return comps


def _multiply(index, factor):
    """A change that multiplies component index by factor."""
    def change(comps):
        comps[index] *= factor
        return comps
    return change


# name: (level, change).  The first three are congruent: the image moves by an
# orthogonal map of the ambient space, so only claims that read component indices
# can tell them from the built map
MUTANTS = {
    "reversed": (3, lambda comps: comps[::-1]),
    "rotated": (3, _rotate),
    "negated": (3, _multiply(2, -1.0)),
    "scaled-0": (3, _multiply(0, 1.0 + 1e-9)),
    "mixed": (3, _add_multiple(0, 1, 1e-6)),
    "duplicated": (2, lambda comps: np.concatenate([comps[1:2], comps[1:]])),
    "dropped": (2, lambda comps: comps[:-1]),
    "scaled": (2, lambda comps: comps * 1.001),
    "identity": (2, _add_identity(0, 1e-12)),
    # the images stay on the unit sphere, so only the norm identity and the pair
    # gate of the integrals catch it
    "balance": (2, _multiply(-1, 1.0 + 1e-11)),
}
CONGRUENT = {"reversed", "rotated", "negated"}
SEQUENCE_IDS = {"radius_closed_vs_recursive", "radius_level3", "ambient_dimension_sequences",
                "coefficient_ratio"}
# claims no map of the type can fail by its reading: the sequences read no map, a real
# map is even, and a complex map's realified stack commutes with J exactly
NEVER_MISMATCHED = SEQUENCE_IDS | {"fiber_invariance_real", "fiber_invariance_complex"}


def _verdicts(ids, verdict):
    return dict.fromkeys(ids, verdict)


# the kernel raises on image points off the unit sphere, which the geometry family
# reads at every audited level, and the level-2 and level-3 integrals at theirs
_OFF_SPHERE = _verdicts(["homothety", "isometry_pullback_level2", "local_injectivity_real",
                         "local_injectivity_complex", "minimality"], ERROR)
_LEVEL2_INTEGRALS = _verdicts(["veronese_scalar_curvature", "veronese_alpha_norm_sq",
                               "pi_functional_level2", "gauss_bonnet_level2"], ERROR)
_DIAGRAM_ERROR = _verdicts(DIAGRAM_IDS, ERROR)
_RESTRICTION = {"diagram_real_restriction": MISMATCH}


def _norm_identity(field_name):
    return {f"norm_identity_{field_name}": MISMATCH, "unit_image": MISMATCH}


# (mutant, field, failing entries of verify --n-max 4 --samples 50); every row exits 1.
# One level's StructuralError in the diagram family voids its three claims, hopf included
MUTATION_MATRIX = [
    ("reversed", "real", _RESTRICTION),
    ("reversed", "complex", _RESTRICTION),
    ("rotated", "real", _RESTRICTION),
    ("rotated", "complex", _DIAGRAM_ERROR),  # a zero-set component gets a real part
    ("negated", "real", _RESTRICTION),
    ("negated", "complex", _RESTRICTION),
    ("scaled-0", "real", {**_RESTRICTION, **_norm_identity("real"), **_OFF_SPHERE,
                          "sigma_quotient_level3": ERROR}),
    ("scaled-0", "complex", {**_RESTRICTION, **_norm_identity("complex"), **_OFF_SPHERE}),
    ("mixed", "real", {**_RESTRICTION, **_norm_identity("real"), **_OFF_SPHERE,
                       "sigma_quotient_level3": ERROR}),
    # component 1 is in the zero set, so the real parts do not move
    ("mixed", "complex", {**_norm_identity("complex"), **_OFF_SPHERE}),
    ("duplicated", "real", {**_RESTRICTION, **_norm_identity("real"), **_OFF_SPHERE,
                            **_LEVEL2_INTEGRALS, "fiber_separation_real": MISMATCH}),
    ("duplicated", "complex", {**_DIAGRAM_ERROR, **_norm_identity("complex"), **_OFF_SPHERE,
                               "fiber_separation_complex": MISMATCH}),
    ("dropped", "real", {**_DIAGRAM_ERROR, **_norm_identity("real"), **_OFF_SPHERE,
                         **_LEVEL2_INTEGRALS, "fiber_invariance_real": ERROR,
                         "fiber_separation_real": ERROR}),
    ("dropped", "complex", {**_DIAGRAM_ERROR, **_norm_identity("complex"), **_OFF_SPHERE,
                            "fiber_invariance_complex": ERROR,
                            "fiber_separation_complex": ERROR}),
    ("scaled", "real", {**_RESTRICTION, **_norm_identity("real"), **_OFF_SPHERE,
                        **_LEVEL2_INTEGRALS}),
    ("scaled", "complex", {**_RESTRICTION, **_norm_identity("complex"), **_OFF_SPHERE}),
    ("identity", "real", {**_RESTRICTION, **_norm_identity("real"), "harmonicity": MISMATCH}),
    ("identity", "complex", {**_RESTRICTION, **_norm_identity("complex"),
                             "harmonicity": MISMATCH}),
    ("balance", "real", {**_RESTRICTION, **_norm_identity("real"), **_LEVEL2_INTEGRALS}),
    ("balance", "complex", {**_RESTRICTION, **_norm_identity("complex")}),
]


@pytest.mark.parametrize("mutant, field_name, failing", MUTATION_MATRIX,
                         ids=[f"{mutant}-{field_name}" for mutant, field_name, _ in
                              MUTATION_MATRIX])
def test_the_mutation_matrix(mutant, field_name, failing, monkeypatch, capsys):
    level, change = MUTANTS[mutant]
    _replace_build(monkeypatch, change, field=field_name, level=level)
    code = cli.main(["verify", "--n-max", "4", "--samples", "50", "--format", "json"])
    entries = json.loads(capsys.readouterr().out)
    assert {e["claim_id"]: e["verdict"] for e in entries
            if e["verdict"] in (MISMATCH, ERROR)} == failing
    assert code == 1
    if mutant in CONGRUENT:
        assert failing.keys() <= DIAGRAM_IDS


@pytest.mark.parametrize("field_name, level", [("real", 9), ("complex", 7)])
def test_a_level_above_the_audit_fails_harmonicity_alone(field_name, level, monkeypatch,
                                                         capsys):
    # harmonicity reads the levels above --n-max from construct.stacks; no other
    # family reads them, and build's cache is immune to the patch
    original = construct.stacks

    def changed(n, field):
        for k, comps in enumerate(original(n, field), 1):
            yield (_add_identity(0, 1e-12)(comps.copy()) if (field, k) == (field_name, level)
                   else comps)

    monkeypatch.setattr(construct, "stacks", changed)
    code = cli.main(["verify", "--n-max", "4", "--samples", "50", "--format", "json"])
    entries = json.loads(capsys.readouterr().out)
    assert {e["claim_id"]: e["verdict"] for e in entries
            if e["verdict"] in (MISMATCH, ERROR)} == {"harmonicity": MISMATCH}
    assert code == 1


def test_the_audit_keeps_only_the_maps_it_audits(monkeypatch):
    # cold, build's cache ends with the ten audited maps, and the audit holds little
    # more than their arrays once it returns; harmonicity reads real 7-12 and
    # complex 5-8 from one pass of the step per field, 51 steps in all
    run_claim_audit(6, samples=20)  # warm-up
    construct.build.cache_clear()
    steps = []
    original = construct._step
    monkeypatch.setattr(construct, "_step", lambda *args: steps.append(1) or original(*args))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_claim_audit(6, samples=20)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(steps) == 21 + 10 + 12 + 8
    audited = [(f, k) for f, n_max in (("real", 6), ("complex", 4)) for k in range(1, n_max + 1)]
    info = construct.build.cache_info()
    assert info.currsize == len(audited)
    maps = [build(k, f) for f, k in audited]
    assert construct.build.cache_info().hits == info.hits + len(audited)  # all cached
    arrays = sum(m.components.nbytes + m.stack.nbytes for m in maps)
    assert held <= arrays + 32 * 1024, (held, arrays)


def test_every_claim_fails_on_some_mutant():
    ids = {e.claim_id for e in run_claim_audit(4, seed=0, samples=20)}
    assert {mutant for mutant, _, _ in MUTATION_MATRIX} == MUTANTS.keys()
    failed = {claim_id for _, _, failing in MUTATION_MATRIX for claim_id in failing}
    assert ids - failed == SEQUENCE_IDS
    # fiber invariance fails only when its family's count guard raises
    assert all(failing.get(claim_id) in (None, ERROR) for _, _, failing in MUTATION_MATRIX
               for claim_id in NEVER_MISMATCHED)


def test_claim_audit_is_deterministic():
    a = run_claim_audit(3, seed=7, samples=300)
    b = run_claim_audit(3, seed=7, samples=300)
    assert a == b
    ids = [e.claim_id for e in a]
    assert ids == sorted(ids)


def test_claim_audit_verdicts():
    entries = {e.claim_id: e for e in run_claim_audit(6, seed=0, samples=500)}

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
    entries = run_claim_audit(2, seed=1, samples=200)
    verdicts = {e.claim_id: e.verdict for e in entries}
    assert verdicts["isometry_pullback_level2"] == SCALE_DEPENDENT
    assert verdicts["veronese_scalar_curvature"] == SCALE_DEPENDENT
    assert hard_failures(entries) == []


def test_match_iff_within_tolerance():
    for e in run_claim_audit(2, seed=3, samples=200):
        if e.verdict == SCALE_DEPENDENT:
            continue
        assert (e.verdict == MATCH) == (e.abs_deviation <= e.tolerance)
        assert e.verdict in (MATCH, MISMATCH)


def test_audit_caps():
    for level in (0, 7):
        with pytest.raises(ValueError, match="level must be in 1..6"):
            run_claim_audit(level, seed=0, samples=10)
    with pytest.raises(TypeError):  # one level: what follows it is keyword-only
        run_claim_audit(6, 4)
    with pytest.raises(ValueError):
        run_claim_audit(2, seed=0, samples=0)
    for level in (2.5, True):   # not integer levels
        with pytest.raises(ValueError, match="level must be an integer"):
            run_claim_audit(level, seed=0, samples=10)
        with pytest.raises(ValueError, match="level must be an integer"):
            diagram_check(level)


def test_entries_serialize_to_json():
    entries = run_claim_audit(2, seed=2, samples=200)
    payload = json.dumps([e.to_dict() for e in entries])
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
    # one 20-point sweep per audited level, then level 2 and level 3 once each:
    # the canonical point and the first sample, at any sample count; the samples'
    # pair gate runs no kernel
    for samples in (300, 20_000):
        kernel_blocks.clear()
        run_claim_audit(6, seed=0, samples=samples)
        assert kernel_blocks == [20] * 10 + [2] * 2, samples


def test_norm_identity_entries_do_not_depend_on_samples_or_seed():
    # the certificate is read from the coefficients; nothing is drawn
    readings = [[e for e in run_claim_audit(6, seed=seed, samples=samples)
                 if e.claim_id in NORM_IDENTITY_IDS]
                for samples in (1, 20_000) for seed in (0, 11)]
    assert len(readings[0]) == 3
    assert all(entries == readings[0] for entries in readings)


FAMILIES = ("_sequence_claims", "_norm_identity_claims", "_harmonicity_claim", "_fiber_claims",
            "_diagram_claims", "_geometry_claims", "_level2_claims", "_level3_claims")


def test_claim_family_memory_does_not_grow_with_samples(monkeypatch):
    # each family's tracemalloc peak, its samples drawn and reduced block by block;
    # both counts fill at least one block of the level-2 and level-3 gates
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
    run_claim_audit(6, samples=20)  # builds and caches every map first
    by_samples = {}
    tracemalloc.start()
    try:
        for samples in (20_000, 200_000):
            peaks.clear()
            run_claim_audit(6, samples=samples)
            by_samples[samples] = dict(peaks)
    finally:
        tracemalloc.stop()
    for name in FAMILIES:
        # 16 KiB of slack for the families that draw no samples and hold a few KiB
        assert by_samples[200_000][name] <= 1.1 * by_samples[20_000][name] + 16 * 1024, (
            name, by_samples)


# every n_max verify can reach, by the real and complex levels each audits
N_MAX = pytest.mark.parametrize("n_max", range(1, 7), ids=[
    f"{n}-{min(n, constants.LEVEL_CAPS['audit']['complex'])}" for n in range(1, 7)])


@N_MAX
def test_a_family_that_raises_errors_exactly_its_own_claims(n_max, monkeypatch):
    healthy = run_claim_audit(n_max, seed=0, samples=20)

    def broken(n, field):
        raise quadmap.StructuralError(f"no level-{n} {field} map")

    # every family but the exact sequences builds a map
    monkeypatch.setattr(construct, "build", broken)
    entries = run_claim_audit(n_max, seed=0, samples=20)
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


@pytest.mark.parametrize("name", FAMILIES)
@N_MAX
def test_the_ids_of_a_raising_family_are_the_ids_it_returns(n_max, name, monkeypatch):
    # the claim ids that run_claim_audit lists for a family, which it reports as ERROR
    # when the family raises, are those the family returns when it runs
    returned = set()

    def recorded(*args, _family=getattr(audit, name)):
        entries = _family(*args)
        returned.update(e.claim_id for e in entries)
        return entries

    monkeypatch.setattr(audit, name, recorded)
    run_claim_audit(n_max, seed=0, samples=20)

    def broken(*args):
        raise quadmap.StructuralError(f"{name} broken")

    monkeypatch.setattr(audit, name, broken)
    entries = run_claim_audit(n_max, seed=0, samples=20)
    assert {e.claim_id for e in entries if e.verdict == ERROR} == returned


def test_a_linalg_error_fails_the_geometry_families_only(monkeypatch):
    def singular(map_, points):
        raise np.linalg.LinAlgError("Singular matrix")

    healthy = {e.claim_id: e for e in run_claim_audit(3, seed=4, samples=50)}
    monkeypatch.setattr(geometry, "curvature_field", singular)
    entries = {e.claim_id: e for e in run_claim_audit(3, seed=4, samples=50)}
    errors = {"homothety", "local_injectivity_real", "local_injectivity_complex",
              "minimality", "isometry_pullback_level2",
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


def test_an_anisotropy_past_lambda_over_d_fails_local_injectivity(monkeypatch):
    original = geometry.curvature_field

    def anisotropic(map_, points):
        # past lambda / d, Weyl's bound leaves no singular value floor above zero
        geo = original(map_, points)
        return {**geo, "anisotropy": 2.0 * geo["lambda"] / map_.quotient_dim}

    healthy = {e.claim_id: e for e in run_claim_audit(3, seed=4, samples=50)}
    monkeypatch.setattr(geometry, "curvature_field", anisotropic)
    entries = {e.claim_id: e for e in run_claim_audit(3, seed=4, samples=50)}
    injectivity = {"local_injectivity_real", "local_injectivity_complex"}
    for claim_id in injectivity:
        assert (healthy[claim_id].verdict, healthy[claim_id].abs_deviation) == (MATCH, 0.0)
        assert entries[claim_id].verdict == MISMATCH
        assert entries[claim_id].measured == 0.0
        assert entries[claim_id].abs_deviation == audit.MIN_SINGULAR_VALUE
    assert {e.claim_id for e in hard_failures(entries.values())} == injectivity | {"homothety"}
    assert cli.main(["verify", "--n-max", "3", "--samples", "50"]) == 1


def test_a_nonconstant_integrand_errors_exactly_the_integral_claims(unbalanced_level2_map):
    # the unbalanced level-2 map's integrands vary, and its images stay on the unit
    # sphere, so the pair gate, not the kernel, errors the level-2 integrals; the
    # "balance" row of the mutation matrix pins the claims that fail besides
    errors = {e.claim_id: e.details["error"] for e in run_claim_audit(3) if e.verdict == ERROR}
    assert errors.keys() == _LEVEL2_INTEGRALS.keys()
    for claim_id, message in errors.items():
        assert message.startswith("real level 2: the map is not a congruence on the samples: "
                                  "pair deviation "), claim_id


SAMPLERS = [(sampling, "sphere_points"), (sampling, "complex_sphere_points")]


@pytest.mark.parametrize("seed", [0, 7])
def test_point_families_draw_distinct_points(seed, monkeypatch):
    # no two draws share a key, whatever their samplers (the complex samplers
    # draw from the same stream as the real ones, so a real draw keyed like a
    # complex one would reuse its normals), and no sampler returns one point
    # set twice (the complex level-1 geometry sweep used to repeat the first
    # Hopf points); the blocks of one key whose rows go on where the last block
    # ended are one draw, and only the outermost sampler of a call counts
    # (complex_sphere_points calls sphere_points)
    draws = []  # [sampler, key, first row, end row, blocks]
    depth = [0]  # recorded samplers running

    def keep(name, key, start, points):
        for draw in draws:
            if draw[1] == key and draw[3] == start:
                draw[3] += len(points)
                draw[4].append(points)
                return
        draws.append([name, key, start, start + len(points), [points]])

    for module, name in SAMPLERS:
        def record(dim, count, key, radius=1.0, start=0, _name=name,
                   _draw=getattr(module, name)):
            depth[0] += 1
            try:
                points = _draw(dim, count, key, radius=radius, start=start)
            finally:
                depth[0] -= 1
            if not depth[0]:
                keep(_name, key % 2**64, start, points)
            return points
        monkeypatch.setattr(module, name, record)

    run_claim_audit(2, seed=seed, samples=30)
    assert {draw[0] for draw in draws} == {name for _, name in SAMPLERS}
    assert all(draw[2] == 0 for draw in draws)
    keys = [draw[1] for draw in draws]
    assert len(set(keys)) == len(keys)
    points = [np.concatenate(draw[4]) for draw in draws]
    for i, name in enumerate(draw[0] for draw in draws):
        for j in range(i + 1, len(draws)):
            a, b = points[i], points[j]
            rows = min(len(a), len(b))
            if draws[j][0] == name and a.shape[1] == b.shape[1]:
                assert not np.array_equal(a[:rows], b[:rows])


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_the_audit_streams_share_no_word(seed, monkeypatch):
    # word j of key s is the finalizer of the state finalizer(s) + (j + 1) GAMMA, a
    # bijection, so two keys' words over index ranges [a1, b1) and [a2, b2) meet
    # exactly when j2 - j1 = (finalizer(s1) - finalizer(s2)) / GAMMA mod 2^64 for some
    # j1, j2 in them; checked for every pair of keys the full release audit draws
    ranges = {}  # key -> [first word, end word]

    def words(key, first, pairs, _words=sampling._pair_words):
        lo, hi = ranges.setdefault(key % 2**64, [2 * first, 2 * (first + pairs)])
        ranges[key % 2**64] = [min(lo, 2 * first), max(hi, 2 * (first + pairs))]
        return _words(key, first, pairs)

    monkeypatch.setattr(sampling, "_pair_words", words)
    run_claim_audit(6, seed=seed, samples=20_000)
    # ten geometry sweeps and the two integral gates
    assert len(ranges) == 12
    assert sorted(hi - lo for lo, hi in ranges.values())[-2:] == [60_000, 80_000]
    inverse = pow(GAMMA, -1, 2**64)
    for (s1, (a1, b1)), (s2, (a2, b2)) in itertools.combinations(ranges.items(), 2):
        offset = (splitmix64_finalizer(s1) - splitmix64_finalizer(s2)) * inverse % 2**64
        offset -= 2**64 * (offset >= 2**63)  # j2 - j1, as the nearest integer to 0
        assert not a2 - b1 < offset < b2 - a1, (s1, s2)
