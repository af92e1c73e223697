"""Volumes and the global invariants of the embedded images over the
projective quotients.

Every curvature integrand is a constant of the map, so each integral is a
closed-form quotient volume times its value at one point, and samples of the
level-n domain sphere gate that reading; global_invariants reports both readings:

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
from .quadmap import StructuralError, chunks, evaluate, evaluate_point_bytes
from .sampling import quotient_samples

# Every level is F(x) = sqrt(c) Q (x x* - |x|^2 I/(n+1)) with Q orthogonal and
# c r^4 = (n+1)/n, so any two points x, y of the level sphere have
# |F(x) - F(y)|^2 = c (2 r^4 - 2 |<x, y>|^2), and every curvature integrand is a
# constant.  A pair of samples that misses the identity by more than this raises.
# Pairs miss it by at most 4.5e-15 (20,000 pairs at every level of both fields up to
# 6 and 2,000 above, seeds 0-2; 300,000 at real 2 and 3 and 100,000 at complex 2
# and 4), about 220 times inside the bound.
PAIR_TOL = 1e-12


def sphere_volume(dim: int, r: float) -> float:
    """Volume of the dim-sphere of radius r: 2 pi^((dim+1)/2) r^dim / Gamma((dim+1)/2)."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if r <= 0:
        raise ValueError("radius must be positive")
    return 2.0 * math.pi ** ((dim + 1) / 2.0) * r**dim / math.gamma((dim + 1) / 2.0)


def quotient_volume_factor(n: int, field: str, scale: float) -> float:
    """Total quotient volume when the round metric is multiplied by scale.

    The round quotient volume is Vol(S^n(r))/2 for the antipodal quotient and
    Vol(S^{2n+1}(r))/(2 pi r) for the phase quotient; scaling the metric by a
    constant multiplies it by that constant to the power d/2 (d = n or 2n).
    The image metric is the homothety factor times the round one.
    """
    r = constants.radius(n)
    if field == "real":
        return sphere_volume(n, r) / 2.0 * scale ** (n / 2.0)
    if field == "complex":
        return sphere_volume(2 * n + 1, r) / (2.0 * math.pi * r) * scale ** (2 * n / 2.0)
    raise ValueError(f"field must be 'real' or 'complex', got {field!r}")


def global_invariants(n: int, field: str, sample_count: int, seed: int) -> dict:
    """Global invariants of the level-n quotient under both metric readings,
    and the pointwise geometry at the canonical point.

    Returns {"image": {...}, "domain": {...}, "canonical": {...}}.  lambda is
    read at the canonical point (r_n, 0, ..., 0); the domain metric is the
    image metric times t = 1/lambda.  Each metric reading has the total scalar
    curvature, the integral of |alpha|^2 (the bending-energy functional), the
    quotient volume and the homothety factor; the Gauss-Bonnet ratio appears
    for the real level-2 surface and the normalized total scalar curvature
    (sigma quotient) for the real level-3 space.  Under both readings |alpha|^2
    is the Gauss-relation value d(d-1) + |H|^2 - s with that reading's scalar
    curvature s; in the domain reading it is not a squared norm in general and
    can be negative (-4 at complex n=2).  The canonical reading has the
    image-metric invariants at that point and its effective squared radius
    lambda r_n^2.

    The integrands are constants of the map, and each integral is the
    closed-form volume times their value at the first sample, which
    scalar_curvature_mean and alpha_norm_sq_mean hold; the curvature field runs
    once, on the canonical point and that sample.  The samples gate that
    reading: consecutive samples are pairs, drawn and put through evaluate one
    block at a time, each block's last row and image carried into the next,
    and a pair deviation from the congruence identity past PAIR_TOL raises
    StructuralError naming the map.  No figure depends on the block length.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    map_ = construct.build(n, field)
    d, r4 = map_.quotient_dim, float(constants.radius_pow4(n))
    c = (n + 1) / (n * r4)

    points = np.empty((0, n + 1), map_.components.dtype)
    images, worst = np.empty((0, map_.component_count)), 0.0
    # a block peaks in evaluate, at 8 (M K + 2 K + 3 M) bytes a row at most (the tracemalloc
    # peak at every build level of both fields); it counts three times that, as glibc keeps
    # what a block frees, up to twice its largest array, for the next one.  Counted once,
    # blocks raised the audit's peak RSS by 1.4 MB
    for part in chunks(sample_count, 3 * (evaluate_point_bytes(map_) + 16 * map_.stack.shape[0])):
        rows = quotient_samples(n, field, part.stop - part.start, seed, part.start)
        if not part.start:  # the kernel, on the canonical point and row 0
            geo = geometry.curvature_field(
                map_, np.stack([geometry.canonical_point(map_), rows[0]]))
        # pair i is rows i and i + 1, the first of a block the last row of the one before
        points = np.concatenate([points[-1:], rows])
        images = np.concatenate([images[-1:], evaluate(map_, rows)])
        # einsum's row sums: thrice np.add.reduce's speed on short rows; no output reads their bits
        dot = np.conj(points[:-1]) * points[1:]  # <x, y>, term by term
        hermitian_sq = np.einsum("ij->i", dot.real) ** 2 + np.einsum("ij->i", dot.imag) ** 2
        diff = images[1:] - images[:-1]
        deviation = np.abs(np.einsum("ij->i", diff * diff) - c * (2.0 * r4 - 2.0 * hermitian_sq))
        worst = np.max(deviation, initial=worst)  # a NaN stays
    if not worst <= PAIR_TOL:
        raise StructuralError(f"{field} level {n}: the map is not a congruence on the samples: "
                              f"pair deviation {worst:.3e}, bound {PAIR_TOL:.3e}")

    canonical = {key: float(value[0]) for key, value in geo.items()}
    lam = canonical.pop("lambda")
    canonical["homothety_factor"] = lam
    canonical["effective_radius_sq"] = lam * constants.radius(n) ** 2
    metrics = {"image": 1.0, "domain": 1.0 / lam}
    # the integrands at the first sample under each metric t
    scalar = geo["scalar_curvature_gauss"][1] / np.array(list(metrics.values()))
    alpha = d * (d - 1) + geo["mean_curvature_norm"][1:] ** 2 - scalar

    readings = {"canonical": canonical}
    for (metric, t), scalar_value, alpha_value in zip(metrics.items(), scalar.tolist(),
                                                      alpha.tolist()):
        factor = quotient_volume_factor(n, field, lam * t)
        out = {
            "lambda_bar": lam,
            "volume": factor,
            "total_scalar": factor * scalar_value,
            "pi_functional": factor * alpha_value,
            "scalar_curvature_mean": scalar_value,
            "alpha_norm_sq_mean": alpha_value,
        }
        if field == "real" and n == 2:
            out["gauss_bonnet_ratio"] = out["total_scalar"] / (4.0 * math.pi)
        if field == "real" and n == 3:
            out["sigma_quotient"] = out["total_scalar"] / factor ** (1.0 / 3.0)
        readings[metric] = out
    return readings
