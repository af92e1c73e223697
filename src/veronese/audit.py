"""Topological checks and the consolidated claim audit.

Each audited claim becomes one entry with the stated expected value, the
measured value, and a verdict.  Claims whose numeric value depends on the
metric normalization (see the geometry module) are never adjudicated:
they carry the SCALE_DEPENDENT verdict together with the measured value
under both conventions, so nothing is silently dropped and nothing is
silently picked.  A claim family that cannot be measured (its map breaks
the construction's structure, or a factorization fails) turns its claims
into ERROR entries, which fail like MISMATCH, and the audit goes on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import constants, construct, geometry, measure
from .constants import LEVEL_CAPS, ambient_dims, check_level
from .quadmap import QuadMap, StructuralError, harmonicity_traces, norm_identity_residual
from .sampling import quotient_samples

MATCH = "MATCH"
MISMATCH = "MISMATCH"
SCALE_DEPENDENT = "SCALE_DEPENDENT"
ERROR = "ERROR"

POINTWISE_TOL = 1e-6
INTEGRAL_REL_TOL = 1e-3
SEPARATION_FLOOR = 1e-9
MIN_SINGULAR_VALUE = 1e-8
SWEEP_POINTS = 20  # points of the geometry sweep at each level
ZERO_COMPONENT_TOL = 1e-12  # smallest genuine coefficient across all levels is ~1e-3

# every sub-seed comes from _sub_seed: seed + j * _SEED_STRIDE + level, plus a field
# term for complex draws: the complex samplers draw from the same stream as the real
# ones, so a real draw keyed like a complex one would reuse its normals.  No two draws
# of one audit share a key.  Multiples 5, 7..9 and 11..13 are free: the norm identity,
# the fiber claims and the diagram claims are read from coefficients and draw nothing.
_SEED_STRIDE = 0x9E3779B9
_FIELD_TERM = {"real": 0, "complex": 32 * _SEED_STRIDE}


def _sub_seed(seed: int, family: int, level: int, field_name: str = "real") -> int:
    return seed + family * _SEED_STRIDE + level + _FIELD_TERM[field_name]


@dataclass(frozen=True)
class ClaimAuditEntry:
    claim_id: str
    statement: str
    expected: float
    measured: float
    abs_deviation: float
    verdict: str
    tolerance: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The entry as strict-JSON values, in field order; empty details are left out."""
        out = {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}
        if self.details:
            out["details"] = {k: _json_value(v) for k, v in self.details.items()}
        else:
            del out["details"]
        return out


def _json_value(value):
    """A number as a float, None where it is not finite; anything else as it is."""
    if isinstance(value, (int, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    return value


def _entry(claim_id, statement, expected, measured, tolerance,
           at_least=False, scale_dependent=False, details=None) -> ClaimAuditEntry:
    expected = float(expected)
    measured = float(measured)
    dev = max(0.0, expected - measured) if at_least else abs(measured - expected)
    if scale_dependent:
        verdict = SCALE_DEPENDENT
    else:
        verdict = MATCH if dev <= tolerance else MISMATCH
    return ClaimAuditEntry(
        claim_id=claim_id, statement=statement, expected=expected,
        measured=measured, abs_deviation=dev, verdict=verdict,
        tolerance=float(tolerance), details=dict(details or {}),
    )


def diagram_check(n: int) -> dict:
    """Consistency of the level-n complex map with the real one, read from the
    coefficients as bounds over the whole level sphere.

    On real points a complex component reads its real part.  The zero set is
    the components whose real part is within ZERO_COMPONENT_TOL times the
    largest real or imaginary magnitude (at least 1; unlike the largest modulus
    it cannot overflow); the others survive, and they and the real components
    must each number ambient_dims(n)[0] + 1, or StructuralError.  As
    |x* D x| <= r_n^2 |D|_F on the level sphere for a Hermitian D,
    (a) on real points the complex map reproduces the real map within
        r_n^2 max_j |Re A'_j - R_j|_F, A'_j the j-th survivor, and the zero
        set vanishes within r_n^2 max_k |Re A_k|_F;
    (b) at level 1 the complex map is the closed-form Hopf map within
        r_1^2 max_k |A_k - H_k|_F, the H_k polarized from hopf at e0, e1,
        e0 + e1 and e0 + i e1, which is exact for quadratic forms.
    """
    check_level(n, LEVEL_CAPS["audit"]["complex"])
    cmap = construct.build(n, "complex")
    rmap = construct.build(n, "real")
    real_parts = cmap.components.real
    re_mag = np.max(np.abs(real_parts), axis=(1, 2))
    scale = max(1.0, float(np.max(re_mag)), float(np.max(np.abs(cmap.components.imag))))
    vanishes = re_mag <= ZERO_COMPONENT_TOL * scale
    expected = ambient_dims(n)[0] + 1
    for what, count in (("nonvanishing components on real points", np.count_nonzero(~vanishes)),
                        ("real map components", rmap.component_count)):
        if count != expected:
            raise StructuralError(f"found {count} {what}, expected {expected}")
    r_sq = constants.radius(n) ** 2

    def bound(mats):
        return r_sq * float(np.max(np.linalg.norm(mats, axis=(1, 2)), initial=0.0))

    out = {"restriction_residual": bound(real_parts[~vanishes] - rmap.components),
           "zero_residual": bound(real_parts[vanishes])}
    if n == 1:
        q0, q1, q_sum, q_turn = construct.hopf(np.array([[1, 0], [0, 1], [1, 1], [1, 1j]]))
        off = (q_sum - q0 - q1 - 1j * (q_turn - q0 - q1)) / 2.0
        hopf_mats = np.array([[q0, off], [np.conj(off), q1]]).transpose(2, 0, 1)
        out["hopf_residual"] = bound(cmap.components - hopf_mats)
    return out


def _geometry_sweep(n: int, field_name: str, seed: int) -> dict:
    map_ = construct.build(n, field_name)
    samples = quotient_samples(n, field_name, SWEEP_POINTS, seed)
    geo = geometry.curvature_field(map_, samples)
    lam, anis, d = geo["lambda"], geo["anisotropy"], map_.quotient_dim
    return {
        "lambda_mean": float(np.mean(lam)),
        "lambda_spread": float(np.ptp(lam)),
        "anisotropy_max": float(np.max(anis)),
        "h_norm_max": float(np.max(geo["mean_curvature_norm"])),
        # the Gram matrix is lambda I + E with |E_ij| <= anisotropy, so |E|_2 <= d anisotropy,
        # by Weyl no eigenvalue is below lambda - d anisotropy, and no singular value of the
        # differential below this floor
        "singular_value_floor": math.sqrt(max(0.0, float(np.min(lam - d * anis)))),
    }


def _sequence_claims() -> list[ClaimAuditEntry]:
    closed_vs_recursive = max(
        abs(constants.radius_pow4(k, "closed") - constants.radius_pow4(k, "recursive"))
        for k in range(1, constants.MAX_LEVEL + 1)
    )
    dims_dev = 0
    n_prev, m_prev = 1, 2
    for k in range(1, constants.MAX_LEVEL + 1):
        n_dim, m_dim = constants.ambient_dims(k)
        if k > 1:
            n_prev, m_prev = n_prev + k + 1, m_prev + 2 * k + 1
        dims_dev = max(dims_dev, abs(n_dim - n_prev), abs(m_dim - m_prev))
    ratio_dev = max(
        abs(constants.step_constants(k)[0] / constants.step_constants(k)[1]
            - 2 * k * (k + 1))
        for k in range(2, constants.MAX_LEVEL + 1)
    )
    return [
        _entry("radius_closed_vs_recursive",
               "closed-form and recursive radius sequences agree exactly, levels 1..12",
               0.0, float(closed_vs_recursive), 0.0),
        _entry("radius_level3",
               "fourth power of the level-3 domain radius equals 8",
               8.0, float(constants.radius_pow4(3)), 0.0),
        _entry("ambient_dimension_sequences",
               "real and complex ambient dimensions match their recursions, levels 1..12",
               0.0, float(dims_dev), 0.0),
        _entry("coefficient_ratio",
               "squared coefficient ratio a^2/b^2 equals 2n(n+1) exactly, levels 2..12",
               0.0, float(ratio_dev), 0.0),
    ]


def _norm_identity_claims(level_range) -> list[ClaimAuditEntry]:
    """norm_identity_residual once per map: each field's worst over its levels, and
    unit_image, the worst of both maps at every complex level (real ones above the
    real levels too), as the certificate bounds ||F(x)| - 1| on the level sphere."""
    reach = {"real": range(1, max(map(len, level_range.values())) + 1),
             "complex": level_range["complex"]}
    residual = {(f, k): norm_identity_residual(construct.build(k, f))
                for f, levels in reach.items() for k in levels}
    entries = [_entry(f"norm_identity_{f}",
                      "squared image norm equals squared domain norm squared over r^4",
                      0.0, max(residual[(f, k)] for k in levels), 1e-12)
               for f, levels in level_range.items()]
    return entries + [_entry("unit_image", "on-sphere points map onto the unit sphere",
                             0.0, max(residual[(f, k)] for f in reach
                                      for k in level_range["complex"]), 1e-12)]


def _harmonicity_claim() -> list[ClaimAuditEntry]:
    trace_worst = max(
        float(np.max(np.abs(harmonicity_traces(construct.build(k, field_name)))))
        for field_name, cap in LEVEL_CAPS["build"].items()
        for k in range(1, cap + 1)
    )
    return [_entry("harmonicity",
                   "every coefficient matrix is trace free (all components harmonic)",
                   0.0, trace_worst, 1e-12)]


def _fiber_certificate(map_: QuadMap) -> dict:
    """The fiber claims of one level, read from the coefficients.

    Invariance: a real form has F(-x) = F(x); a complex map's realified S_k
    commutes with the complex structure J, which is what keeps every form
    fixed under the phases cos t + J sin t, and the residual is max |S_k J - J S_k|.

    Separation: for x, y on the level sphere, F(x) - F(y) has the entries
    <B_k, P> = Re tr(B_k P) with B_k the trace-free parts of the A_k and
    P = xx* - yy*, and |P|^2 = D^2 (2 r^2 - D^2 / 2) at orbit distance D.  When
    the K components are as many as the trace-free forms, |F(x) - F(y)|^2 is at
    least the least eigenvalue of the Gram matrix G_kl = Re tr(B_k B_l) times
    |P|^2, and by Weyl that eigenvalue is at least mean(diag G) - |G - mean I|_F.
    The bound grows with D on [0, sqrt(2) r], so no orbits more than 1e-3 r
    apart come closer in the image than the floor it gives there.
    """
    m, k, n1 = map_.stack.shape[0], map_.component_count, map_.domain_dim
    # K equals the dimension of the trace-free symmetric (real) or Hermitian (complex)
    # matrices, or a positive Gram matrix does not make F injective on the quotient
    forms = n1 * (n1 + 1) // 2 - 1 if map_.field == "real" else n1 * n1 - 1
    if k != forms:
        raise StructuralError(f"level {map_.n} has {k} components for {forms} trace-free forms")
    if map_.field == "real":
        invariance = 0.0
    else:
        s, h = map_.stack.reshape(m, m, k), m // 2
        sj = np.concatenate([s[:, h:], -s[:, :h]], axis=1)
        js = np.concatenate([-s[h:], s[:h]])
        invariance = float(np.max(np.abs(sj - js)))
    # rows (i, j) of S_k[i, j]; the realified trace-free part is S_k - tr(S_k) I / M,
    # and tr(S_k S_l) = (M / (n+1)) Re tr(A_k A_l)
    flat = map_.stack.reshape(m * m, k).copy()
    flat[::m + 1] -= flat[::m + 1].sum(axis=0) / m
    gram = (flat.T @ flat) * (n1 / m)
    mean = float(np.trace(gram)) / k
    lower = mean - float(np.linalg.norm(gram - mean * np.eye(k)))
    r = constants.radius(map_.n)
    delta = 1e-3 * r
    floor = math.sqrt(max(lower, 0.0)) * delta * math.sqrt(2.0 * r * r - delta * delta / 2.0)
    return {"invariance_residual": invariance, "gram_mean": mean, "lambda_lower": lower,
            "separation_floor": floor}


def _fiber_claims(field_name, levels) -> list[ClaimAuditEntry]:
    certificates = [_fiber_certificate(construct.build(k, field_name)) for k in levels]
    floors = [cert["separation_floor"] for cert in certificates]
    return [
        _entry(f"fiber_invariance_{field_name}",
               "the image is constant along quotient fibers",
               0.0, max(cert["invariance_residual"] for cert in certificates), 1e-12),
        _entry(f"fiber_separation_{field_name}",
               "separated orbits have separated images (collision count)",
               0.0, float(sum(floor <= SEPARATION_FLOOR for floor in floors)), 0.0,
               details={"min_image_distance": min(floors)}),
    ]


def _diagram_claims(levels) -> list[ClaimAuditEntry]:
    reports = [diagram_check(k) for k in levels]
    return [
        _entry("diagram_real_restriction",
               "the complex map restricted to real points reproduces the real map",
               0.0, max(rep["restriction_residual"] for rep in reports), 1e-13),
        _entry("diagram_zero_components",
               "imaginary-part components vanish on real points",
               0.0, max(rep["zero_residual"] for rep in reports), 1e-15),
        _entry("hopf_factorization",
               "the level-1 complex map is the Hopf map of the unit 3-sphere",
               0.0, reports[0]["hopf_residual"], 1e-14),
    ]


def _geometry_claims(level_range, seed, homothety_tol) -> list[ClaimAuditEntry]:
    sweeps = {(field_name, k): _geometry_sweep(k, field_name,
                                               _sub_seed(seed, 23, k, field_name))
              for field_name, levels in level_range.items() for k in levels}
    homothety_dev = max(
        max(sw["anisotropy_max"], sw["lambda_spread"]) / sw["lambda_mean"]
        for sw in sweeps.values()
    )
    entries = [_entry(
        "homothety",
        "the pullback metric is one constant multiple of the round metric",
        0.0, homothety_dev, homothety_tol)]
    entries += [_entry(
        f"local_injectivity_{field_name}",
        "differential has full rank on tangent/horizontal spaces",
        MIN_SINGULAR_VALUE, min(sweeps[(field_name, k)]["singular_value_floor"] for k in levels),
        0.0, at_least=True) for field_name, levels in level_range.items()]
    curved = [sweep["h_norm_max"] for (_, k), sweep in sweeps.items() if k >= 2]
    if curved:
        entries.append(_entry(
            "minimality",
            "the mean curvature vector of every image vanishes",
            0.0, max(curved), POINTWISE_TOL))
    if ("real", 2) in sweeps:
        entries.append(_entry(
            "isometry_pullback_level2",
            "stated isometric normalization reads pullback factor 1; the measured "
            "factor depends on the metric convention",
            1.0, sweeps[("real", 2)]["lambda_mean"], POINTWISE_TOL, scale_dependent=True,
            details={"jacobian_oracle": 2.0}))
    return entries


def _level2_claims(samples, seed) -> list[ClaimAuditEntry]:
    readings = measure.global_invariants(2, "real", samples, _sub_seed(seed, 17, 0))
    gi_img, gi_dom = readings["image"], readings["domain"]
    return [
        _entry("veronese_scalar_curvature",
               "scalar curvature of the level-2 real image (stated 4/3); measured "
               "under both metric conventions",
               4.0 / 3.0, gi_img["scalar_curvature_mean"], POINTWISE_TOL,
               scale_dependent=True,
               details={"measured_image": gi_img["scalar_curvature_mean"],
                        "measured_domain": gi_dom["scalar_curvature_mean"]}),
        _entry("veronese_alpha_norm_sq",
               "squared norm of the second fundamental form of the level-2 real "
               "image (stated 2/3); measured under both metric conventions",
               2.0 / 3.0, gi_img["alpha_norm_sq_mean"], POINTWISE_TOL,
               scale_dependent=True,
               details={"measured_image": gi_img["alpha_norm_sq_mean"],
                        "measured_domain": gi_dom["alpha_norm_sq_mean"]}),
        _entry("pi_functional_level2",
               "total squared second fundamental form over the level-2 real "
               "quotient (stated 2 pi); measured under both metric conventions",
               2.0 * math.pi, gi_img["pi_functional"], INTEGRAL_REL_TOL * 2.0 * math.pi,
               scale_dependent=True,
               details={"measured_image": gi_img["pi_functional"],
                        "measured_domain": gi_dom["pi_functional"]}),
        _entry("gauss_bonnet_level2",
               "total scalar curvature of the level-2 real quotient over 4 pi "
               "equals its Euler characteristic 1",
               1.0, gi_img["gauss_bonnet_ratio"], INTEGRAL_REL_TOL,
               details={"domain_metric_value": gi_dom["gauss_bonnet_ratio"]}),
    ]


def _level3_claims(samples, seed) -> list[ClaimAuditEntry]:
    gi3 = measure.global_invariants(3, "real", samples, _sub_seed(seed, 19, 0))["image"]
    expected_sigma = 6.0 * math.pi ** (4.0 / 3.0)
    return [_entry("sigma_quotient_level3",
                   "normalized total scalar curvature of the level-3 real quotient "
                   "equals 6 pi^(4/3)",
                   expected_sigma, gi3["sigma_quotient"], 0.005 * expected_sigma)]


def _error_entry(claim_id: str, exc: Exception) -> ClaimAuditEntry:
    return ClaimAuditEntry(
        claim_id=claim_id, statement="not measured: its claim family raised an error",
        expected=math.nan, measured=math.nan, abs_deviation=math.nan, verdict=ERROR,
        tolerance=math.nan, details={"error": str(exc)})


def run_claim_audit(n_max_real: int = 6, n_max_complex: int = 4, seed: int = 0,
                    samples: int = 1000, homothety_tol: float = 1e-8) -> list[ClaimAuditEntry]:
    """Run every audited claim up to the requested levels; never aborts on MISMATCH.

    A claim family whose measurement raises StructuralError or LinAlgError
    yields an ERROR entry for each of its claims; the other families' entries
    are kept.  Deterministic given (seed, samples); entries come back sorted
    by claim id.  Raises ValueError for a level out of range, samples below 1 or
    a homothety_tol that is negative or not finite, before running anything.
    """
    caps = LEVEL_CAPS["audit"]
    check_level(n_max_real, caps["real"])
    check_level(n_max_complex, caps["complex"])
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if not 0.0 <= homothety_tol < math.inf:
        raise ValueError(f"homothety_tol must be finite and non-negative, got {homothety_tol!r}")

    level_range = {"real": range(1, n_max_real + 1), "complex": range(1, n_max_complex + 1)}
    # (claim ids, family, arguments): the ids are what a failing family reports
    families = [
        (["radius_closed_vs_recursive", "radius_level3", "ambient_dimension_sequences",
          "coefficient_ratio"], _sequence_claims, ()),
        ([f"norm_identity_{f}" for f in level_range] + ["unit_image"],
         _norm_identity_claims, (level_range,)),
        (["harmonicity"], _harmonicity_claim, ()),
        *(([f"fiber_invariance_{f}", f"fiber_separation_{f}"],
           _fiber_claims, (f, levels))
          for f, levels in level_range.items()),
        (["diagram_real_restriction", "diagram_zero_components", "hopf_factorization"],
         _diagram_claims, (level_range["complex"],)),
        (["homothety"] + [f"local_injectivity_{f}" for f in level_range]
         + ["minimality"] * (max(n_max_real, n_max_complex) >= 2)
         + ["isometry_pullback_level2"] * (n_max_real >= 2),
         _geometry_claims, (level_range, seed, homothety_tol)),
    ]
    if n_max_real >= 2:
        families.append((["veronese_scalar_curvature", "veronese_alpha_norm_sq",
                          "pi_functional_level2", "gauss_bonnet_level2"],
                         _level2_claims, (samples, seed)))
    if n_max_real >= 3:
        families.append((["sigma_quotient_level3"], _level3_claims, (samples, seed)))

    entries = []
    for claim_ids, family, args in families:
        try:
            entries += family(*args)
        except (StructuralError, np.linalg.LinAlgError) as exc:
            entries += [_error_entry(claim_id, exc) for claim_id in claim_ids]
    entries.sort(key=lambda e: e.claim_id)
    return entries


def hard_failures(entries) -> list[ClaimAuditEntry]:
    """Entries that fail outright, MISMATCH or ERROR; SCALE_DEPENDENT claims never count."""
    return [e for e in entries if e.verdict in (MISMATCH, ERROR)]
