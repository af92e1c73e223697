"""Deterministic random points on spheres and balls.

All draws go through a Philox counter-based generator keyed by the caller's seed,
so identical (seed, count) reproduces the same points bit for bit, independently
of global numpy state.  A Generator passed as the seed is used as is.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

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
    nrm = np.linalg.norm(x, axis=1, keepdims=True)
    nrm[nrm == 0.0] = 1.0
    return radius * x / nrm


def ball_points(dim: int, count: int, seed: int, radius: float = 1.0) -> np.ndarray:
    """Uniform points in the solid ball of the given radius in R^dim."""
    if count < 1:
        raise ValueError("dim and count must be positive")
    return next(ball_point_blocks(dim, [slice(0, count)], seed, radius))


def ball_point_blocks(dim: int, parts: list[slice], seed: int,
                      radius: float = 1.0) -> Iterator[np.ndarray]:
    """ball_points over range(parts[-1].stop), one block per slice of parts, bit
    for bit.  The directions come from generator(seed) and the radii from its
    jumped stream, so each block draws its normals and its radii in turn."""
    if dim < 1 or not parts:
        raise ValueError("dim and count must be positive")
    normals = generator(seed)
    radii = np.random.Generator(normals.bit_generator.jumped())
    for part in parts:
        x = normals.standard_normal((part.stop - part.start, dim))
        nrm = np.linalg.norm(x, axis=1, keepdims=True)
        nrm[nrm == 0.0] = 1.0
        yield radius * radii.random((len(x), 1)) ** (1.0 / dim) * x / nrm


def complex_sphere_points(cdim: int, count: int, seed: int | np.random.Generator,
                          radius: float = 1.0) -> np.ndarray:
    """Uniform points on the real sphere of C^cdim = R^(2 cdim), as complex rows."""
    x = sphere_points(2 * cdim, count, seed, radius)
    return x[:, :cdim] + 1j * x[:, cdim:]

