"""Volumes, Monte-Carlo integration over the projective quotients, and
the global invariants of the embedded images.

The quotient of the level-n domain sphere is sampled by pushing uniform
sphere samples through the quotient map (uniform upstairs is uniform
downstairs for both the antipodal and the phase action).  Integrals are
taken against the image metric; global_invariants reports both readings:

  image metric   -- the measured induced metric of the embedded image;
                    the volume element carries the homothety factor.
  domain metric  -- the quotient of the round domain sphere as is.

The two differ by the constant homothety factor of the embedding, and
everything normalization-dependent is reported under both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants, construct, geometry
from .sampling import complex_sphere_points, sphere_points

INVARIANCE_TOL = 1e-10
# An integrand whose spread over the samples is at most this fraction of
# max(1, |first value|) is a constant: its integral is the closed-form volume
# times that value, with zero standard error.  The curvature integrands spread
# at most 8.4e-15 of it (1,000 samples, seeds 0-2, every level of both fields
# under both metrics; the worst is real n=2), about 120 times inside the bound.
CONSTANT_SPREAD_TOL = 1e-12


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    std_error: float


def sphere_volume(dim: int, r: float) -> float:
    """Volume of the dim-sphere of radius r: 2 pi^((dim+1)/2) r^dim / Gamma((dim+1)/2)."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if r <= 0:
        raise ValueError("radius must be positive")
    return 2.0 * math.pi ** ((dim + 1) / 2.0) * r**dim / math.gamma((dim + 1) / 2.0)


def quotient_samples(n: int, field: str, count: int,
                     seed: int | np.random.Generator) -> np.ndarray:
    """Uniform samples on the level-n domain sphere (representatives of the quotient)."""
    r = constants.radius(n)
    if field == "real":
        return sphere_points(n + 1, count, seed, radius=r)
    if field == "complex":
        return complex_sphere_points(n + 1, count, seed, radius=r)
    raise ValueError(f"field must be 'real' or 'complex', got {field!r}")


def _round_quotient(n: int, field: str) -> tuple[float, int]:
    """Volume and dimension d of the level-n quotient of the round domain sphere."""
    r = constants.radius(n)
    if field == "real":
        return sphere_volume(n, r) / 2.0, n
    if field == "complex":
        return sphere_volume(2 * n + 1, r) / (2.0 * math.pi * r), 2 * n
    raise ValueError(f"field must be 'real' or 'complex', got {field!r}")


def quotient_volume_factor(n: int, field: str, scale: float) -> float:
    """Total quotient volume when the round metric is multiplied by scale.

    The round quotient volume is Vol(S^n(r))/2 for the antipodal quotient and
    Vol(S^{2n+1}(r))/(2 pi r) for the phase quotient; scaling the metric by a
    constant multiplies it by that constant to the power d/2.  The image
    metric is the homothety factor times the round one.
    """
    base, d = _round_quotient(n, field)
    return base * scale ** (d / 2.0)


def fiber_actions(field: str) -> list:
    """The fiber actions that invariance is spot-checked under: -1 (real), or
    the 16 phases exp(2 pi i j / 17), j = 1..16 (complex)."""
    if field == "real":
        return [-1.0]
    return [np.exp(1j * (2.0 * math.pi * j / 17.0)) for j in range(1, 17)]


def _check_fiber_invariance(f, samples: np.ndarray, field: str):
    spot = samples[: min(8, samples.shape[0])]
    ref = np.asarray(f(spot), dtype=float)
    scale = max(1.0, float(np.max(np.abs(ref))))
    dev = 0.0
    for g in fiber_actions(field):
        dev = max(dev, float(np.max(np.abs(np.asarray(f(g * spot), dtype=float) - ref))))
    if dev > INVARIANCE_TOL * scale:
        raise ValueError(
            f"integrand is not invariant under the fiber action (deviation {dev:.3e})"
        )


def _estimate(values: np.ndarray, factor: float) -> IntegralEstimate:
    values = np.asarray(values, dtype=float)
    first = float(values[0])
    spread = float(np.ptp(values))
    mean = float(np.mean(values))
    if spread <= CONSTANT_SPREAD_TOL * max(1.0, abs(first)):
        # constant integrand: closed-form volume times the constant; the
        # Monte-Carlo mean stays as a cross-check
        if abs(mean - first) > 1e-9 * max(1.0, abs(first)):
            raise RuntimeError("constant integrand failed its Monte-Carlo cross-check")
        return IntegralEstimate(factor * first, 0.0)
    sd = float(np.std(values, ddof=1)) / math.sqrt(len(values)) if len(values) > 1 else 0.0
    return IntegralEstimate(factor * mean, factor * sd)


def integrate_quotient(f, n: int, field: str, sample_count: int, seed: int) -> IntegralEstimate:
    """Integral of a fiber-invariant scalar function over the level-n quotient
    under the image metric.

    f must accept a (count, n+1) batch of domain sphere points and return a
    (count,) array; invariance under the fiber action is spot-checked and a
    violation is a precondition error.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    samples = quotient_samples(n, field, sample_count, seed)
    _check_fiber_invariance(f, samples, field)
    map_ = construct.build(n, field)
    lam, _ = geometry.pullback_factor(map_, geometry.canonical_point(map_)[None])
    factor = quotient_volume_factor(n, field, float(lam[0]))
    values = np.asarray(f(samples), dtype=float)
    if values.shape != (sample_count,):
        raise ValueError("integrand must return one scalar per sample")
    return _estimate(values, factor)


def global_invariants(n: int, field: str, sample_count: int, seed: int) -> dict:
    """Global invariants of the level-n quotient under both metric readings,
    and the pointwise geometry at the canonical point.

    Returns {"image": {...}, "domain": {...}, "canonical": {...}} from one
    curvature field whose first row is the canonical point (r_n, 0, ..., 0)
    and whose other rows are the samples.  lambda is read at the canonical
    point; the domain metric is the image metric times t = 1/lambda.  Each
    metric reading has the total scalar curvature, the integral of |alpha|^2
    (the bending-energy functional), the quotient volume and the homothety
    factor; the Gauss-Bonnet ratio appears for the real level-2 surface and
    the normalized total scalar curvature (sigma quotient) for the real
    level-3 space.  The canonical reading has the image-metric invariants at
    that point and its effective squared radius lambda r_n^2.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    map_ = construct.build(n, field)
    samples = quotient_samples(n, field, sample_count, seed)
    _, d = _round_quotient(n, field)

    geo = geometry.curvature_field(
        map_, np.concatenate([geometry.canonical_point(map_)[None], samples]))
    canonical = {key: float(value[0]) for key, value in geo.items()}
    lam = canonical.pop("lambda")
    canonical["homothety_factor"] = lam
    canonical["effective_radius_sq"] = lam * constants.radius(n) ** 2
    geo = {key: value[1:] for key, value in geo.items()}
    h_sq = geo["mean_curvature_norm"] ** 2
    readings = {"canonical": canonical}
    for metric, t in (("image", 1.0), ("domain", 1.0 / lam)):
        factor = quotient_volume_factor(n, field, lam * t)
        scalar_vals = geo["scalar_curvature_gauss"] / t
        alpha_vals = d * (d - 1) + h_sq - scalar_vals
        total_scalar = _estimate(scalar_vals, factor)
        pi_functional = _estimate(alpha_vals, factor)

        out = {
            "lambda_bar": lam,
            "volume": factor,
            "total_scalar": total_scalar.value,
            "total_scalar_std_error": total_scalar.std_error,
            "pi_functional": pi_functional.value,
            "pi_functional_std_error": pi_functional.std_error,
            "scalar_curvature_mean": float(np.mean(scalar_vals)),
            "alpha_norm_sq_mean": float(np.mean(alpha_vals)),
        }
        if field == "real" and n == 2:
            out["gauss_bonnet_ratio"] = total_scalar.value / (4.0 * math.pi)
        if field == "real" and n == 3:
            out["sigma_quotient"] = total_scalar.value / factor ** (1.0 / 3.0)
        readings[metric] = out
    return readings
