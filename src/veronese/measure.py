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
from .quadmap import StructuralError, chunks
from .sampling import generator, quotient_samples

# An integrand whose spread over the samples is at most this fraction of
# max(1, |first value|) is a constant: its integral is the closed-form volume
# times that value.  It is the only gate: a wider spread means the map is not
# the homothetic embedding the construction guarantees, and global_invariants
# raises.  The curvature integrands spread at most 8.9e-15 times
# max(1, |first value|) over 1,000 samples (seeds 0-2, every level of both
# fields under both metrics; the worst is |alpha|^2 at real n=2 in the domain
# metric) and 1.1e-14 times over 100,000 samples there, about 90 times inside
# the bound.
CONSTANT_SPREAD_TOL = 1e-12


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

    The embedding is a homothety, so both integrands are constants of it.  The
    samples are drawn and put through the curvature field one chunk at a time,
    and each chunk keeps only the first, least and largest value of the four
    integrands (scalar curvature and |alpha|^2 under both metrics).  Each
    integral is the closed-form volume times the first sample's value, which
    scalar_curvature_mean and alpha_norm_sq_mean hold; a spread wider than
    CONSTANT_SPREAD_TOL raises StructuralError naming the metric and the
    integrand.  No figure depends on the chunk length.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    map_ = construct.build(n, field)
    d = map_.quotient_dim

    geo = geometry.curvature_field(map_, geometry.canonical_point(map_)[None])
    canonical = {key: float(value[0]) for key, value in geo.items()}
    lam = canonical.pop("lambda")
    canonical["homothety_factor"] = lam
    canonical["effective_radius_sq"] = lam * constants.radius(n) ** 2
    metrics = {"image": 1.0, "domain": 1.0 / lam}
    ts = np.array(list(metrics.values()))[:, None]  # t of each metric, as a column

    rng = generator(seed)
    # per point: the curvature kernel and the point's real row
    parts = chunks(sample_count, geometry.curvature_point_bytes(map_) + 8 * map_.stack.shape[0])
    blocks = (quotient_samples(n, field, part.stop - part.start, rng) for part in parts)
    first, low, high = None, np.inf, -np.inf
    for geo in geometry.curvature_blocks(map_, blocks):
        # rows: the scalar curvature under each metric, then |alpha|^2 under each
        scalar = geo["scalar_curvature_gauss"] / ts
        values = np.concatenate([scalar, d * (d - 1) + geo["mean_curvature_norm"] ** 2 - scalar])
        if first is None:
            first = values[:, 0].tolist()
        low, high = np.minimum(low, values.min(axis=1)), np.maximum(high, values.max(axis=1))
    names = [f"{metric}-metric {integrand}" for integrand in ("scalar curvature", "|alpha|^2")
             for metric in metrics]
    for name, value, spread in zip(names, first, (high - low).tolist()):
        bound = CONSTANT_SPREAD_TOL * max(1.0, abs(value))
        if not spread <= bound:
            raise StructuralError(f"the {name} is not constant over the samples: "
                                  f"spread {spread:.3e}, bound {bound:.3e}")

    readings = {"canonical": canonical}
    for (metric, t), scalar_value, alpha_value in zip(metrics.items(), first[:2], first[2:]):
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
