"""Deterministic random points on real and complex spheres and their projective quotients.

All draws go through a Philox counter-based generator keyed by the caller's seed,
so identical (seed, count) reproduces the same points bit for bit, independently
of global numpy state.  A Generator passed as the seed is used as is.
"""

from __future__ import annotations

import numpy as np

from . import constants
from .quadmap import row_sum

_MASK64 = (1 << 64) - 1


def generator(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def sphere_points(dim: int, count: int, seed: int | np.random.Generator,
                  radius: float = 1.0) -> np.ndarray:
    """Uniform points on the sphere of the given radius in R^dim, shape (count, dim)."""
    if dim < 1 or count < 1:
        raise ValueError("dim and count must be positive")
    x = generator(seed).standard_normal((count, dim))
    # np.linalg.norm's reduction for real rows, then its division in place
    nrm = np.sqrt(row_sum(x * x))[:, None]
    nrm[nrm == 0.0] = 1.0
    np.multiply(radius, x, out=x)
    x /= nrm
    return x


def complex_sphere_points(cdim: int, count: int, seed: int | np.random.Generator,
                          radius: float = 1.0) -> np.ndarray:
    """Uniform points on the real sphere of C^cdim = R^(2 cdim), as complex rows."""
    x = sphere_points(2 * cdim, count, seed, radius)
    return x[:, :cdim] + 1j * x[:, cdim:]


def quotient_samples(n: int, field: str, count: int,
                     seed: int | np.random.Generator) -> np.ndarray:
    """Uniform samples on the level-n domain sphere (representatives of the quotient)."""
    r = constants.radius(n)
    if field == "real":
        return sphere_points(n + 1, count, seed, radius=r)
    if field == "complex":
        return complex_sphere_points(n + 1, count, seed, radius=r)
    raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
