"""Volumes and the global invariants of the embedded images over the
projective quotients.

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

import numpy as np

from . import constants, construct, geometry
from .quadmap import chunks
from .sampling import complex_sphere_points, generator, sphere_points

# An integrand whose spread over the samples is at most this fraction of
# max(1, |first value|) is a constant: its integral is the closed-form volume
# times that value, with zero standard error.  The curvature integrands spread
# at most 8.4e-15 of it (1,000 samples, seeds 0-2, every level of both fields
# under both metrics; the worst is real n=2), about 120 times inside the bound.
CONSTANT_SPREAD_TOL = 1e-12

# Samples are reduced in buffers of this length.  A run that fits one buffer
# reduces each integrand with one call of each numpy reduction; a longer one
# folds the statistics of its buffers.  Either way no figure depends on the
# chunk length of the curvature field.
REDUCE_LENGTH = 20_000


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


def _fold(moments: tuple | None, values: np.ndarray) -> tuple:
    """(count, first, min, max, mean, variance with ddof 1) of the samples reduced
    so far, extended by one buffer of values.  The buffer is reduced by one call
    of each numpy reduction, and the two are combined by the pairwise update of
    Chan, Golub and LeVeque (1979)."""
    count, mean = len(values), float(np.mean(values))
    var = float(np.var(values, ddof=1)) if count > 1 else 0.0
    low, high = float(np.min(values)), float(np.max(values))
    if moments is None:
        return count, float(values[0]), low, high, mean, var
    n0, first, low0, high0, mean0, var0 = moments
    total, delta = n0 + count, mean - mean0
    m2 = var0 * (n0 - 1) + var * (count - 1) + delta * delta * n0 * count / total
    return (total, first, min(low0, low), max(high0, high), mean0 + delta * count / total,
            m2 / (total - 1))


def _estimate(moments: tuple, factor: float) -> tuple[float, float, float]:
    """Integral over the quotient, its standard error and the integrand's mean,
    from the integrand's moments and the total volume."""
    count, first, low, high, mean, var = moments
    if high - low <= CONSTANT_SPREAD_TOL * max(1.0, abs(first)):
        # constant integrand: closed-form volume times the constant; the
        # Monte-Carlo mean stays as a cross-check
        if abs(mean - first) > 1e-9 * max(1.0, abs(first)):
            raise RuntimeError("constant integrand failed its Monte-Carlo cross-check")
        return factor * first, 0.0, mean
    return factor * mean, factor * (math.sqrt(var) / math.sqrt(count)), mean


def global_invariants(n: int, field: str, sample_count: int, seed: int) -> dict:
    """Global invariants of the level-n quotient under both metric readings,
    and the pointwise geometry at the canonical point.

    Returns {"image": {...}, "domain": {...}, "canonical": {...}}.  lambda is
    read at the canonical point (r_n, 0, ..., 0); the domain metric is the
    image metric times t = 1/lambda.  The samples are drawn, put through the
    curvature field and reduced one chunk at a time.  Each metric reading has
    the total scalar curvature, the integral of |alpha|^2 (the bending-energy
    functional), the quotient volume and the homothety factor; the Gauss-Bonnet
    ratio appears for the real level-2 surface and the normalized total scalar
    curvature (sigma quotient) for the real level-3 space.  Under both readings
    |alpha|^2 is the Gauss-relation value d(d-1) + |H|^2 - s with that
    reading's scalar curvature s; in the domain reading it is not a squared
    norm in general and can be negative (-4 at complex n=2).  The canonical
    reading has the image-metric invariants at that point and its effective
    squared radius lambda r_n^2.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    map_ = construct.build(n, field)
    _, d = _round_quotient(n, field)

    geo = geometry.curvature_field(map_, geometry.canonical_point(map_)[None])
    canonical = {key: float(value[0]) for key, value in geo.items()}
    lam = canonical.pop("lambda")
    canonical["homothety_factor"] = lam
    canonical["effective_radius_sq"] = lam * constants.radius(n) ** 2
    metrics = {"image": 1.0, "domain": 1.0 / lam}

    rng = generator(seed)
    buffer = np.empty((2, REDUCE_LENGTH))  # the scalar curvature and |H| of each sample
    # per point: the curvature kernel and the point's real row
    point_bytes = geometry.curvature_point_bytes(map_) + 8 * map_.stack.shape[0]
    moments = {}
    for start in range(0, sample_count, REDUCE_LENGTH):
        length = min(REDUCE_LENGTH, sample_count - start)
        parts = chunks(length, point_bytes)
        blocks = (quotient_samples(n, field, part.stop - part.start, rng) for part in parts)
        for part, geo in zip(parts, geometry.curvature_blocks(map_, blocks)):
            buffer[0, part] = geo["scalar_curvature_gauss"]
            buffer[1, part] = geo["mean_curvature_norm"]
        scalar, h_norm = buffer[:, :length]
        h_sq = h_norm ** 2
        for metric, t in metrics.items():
            scalar_vals = scalar / t
            alpha_vals = d * (d - 1) + h_sq - scalar_vals
            for key, values in (("scalar", scalar_vals), ("alpha", alpha_vals)):
                moments[metric, key] = _fold(moments.get((metric, key)), values)

    readings = {"canonical": canonical}
    for metric, t in metrics.items():
        factor = quotient_volume_factor(n, field, lam * t)
        total_scalar, total_scalar_err, scalar_mean = _estimate(moments[metric, "scalar"], factor)
        pi_functional, pi_functional_err, alpha_mean = _estimate(moments[metric, "alpha"], factor)
        out = {
            "lambda_bar": lam,
            "volume": factor,
            "total_scalar": total_scalar,
            "total_scalar_std_error": total_scalar_err,
            "pi_functional": pi_functional,
            "pi_functional_std_error": pi_functional_err,
            "scalar_curvature_mean": scalar_mean,
            "alpha_norm_sq_mean": alpha_mean,
        }
        if field == "real" and n == 2:
            out["gauss_bonnet_ratio"] = total_scalar / (4.0 * math.pi)
        if field == "real" and n == 3:
            out["sigma_quotient"] = total_scalar / factor ** (1.0 / 3.0)
        readings[metric] = out
    return readings
