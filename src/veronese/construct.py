"""Inductive builders for the quadratic sphere maps, plus the Hopf map.

Each level prepends the previous map scaled by 1/sqrt(n+1), then appends
the new cross terms (coefficient a) and the balance component
(coefficient b), everything under the same 1/sqrt(n+1).  Positive square
roots are used throughout; only the squares of the coefficients are
pinned down exactly, and any consistent sign choice gives a congruent
image.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .constants import FIELDS, LEVEL_CAPS, ambient_dims, check_level, step_constants
from .quadmap import QuadMap

# How one cross term between the new variable x_n and an old one x_k is
# split into components: the (n, k) and (k, n) entries of each component's
# matrix.  A real cross term is one symmetric form; a complex one
# conj(z_n) z_k is a (real part, imaginary part) pair of Hermitian forms.
CROSS_SPLIT = {
    "real": ((1.0, 1.0),),
    "complex": ((1.0, 1.0), (-1j, 1j)),
}


def _step(prev: np.ndarray, scale: float, cross, balance: float) -> np.ndarray:
    """One level of the induction on a stack of n x n coefficient matrices.

    Keeps the previous matrices times scale, appends the split components
    of every cross term with the given entries, and ends with the balance
    component diag(balance, ..., balance, -n balance).
    """
    kp, n = prev.shape[0], prev.shape[1]
    m = n + 1
    comps = np.zeros((kp + len(cross) * n + 1, m, m), dtype=prev.dtype)
    comps[:kp, :n, :n] = prev * scale
    for k in range(n):
        for j, (lower, upper) in enumerate(cross):
            comps[kp + len(cross) * k + j, n, k] = lower
            comps[kp + len(cross) * k + j, k, n] = upper
    diag = np.full(m, balance, dtype=prev.dtype)
    diag[n] = -n * balance
    comps[-1] = np.diag(diag)
    return comps


@lru_cache(maxsize=None, typed=True)  # typed: a cached 2 must not answer for 2.0
def build(n: int, field: str) -> QuadMap:
    """Level-n map over the real or complex field.

    The base level is the step applied to an empty previous map with cross
    and balance coefficients 1, which gives (2 x0 x1, x0^2 - x1^2) over the
    reals and (Re 2 z0 conj(z1), Im 2 z0 conj(z1), |z0|^2 - |z1|^2) over the
    complex numbers.  A unit coefficient leaves the split entries as they
    are, so the base keeps the -0.0 real part of the literal -1j at
    entry (1, 1, 0).  The inductive step conjugates the new variable in its
    cross terms, and that convention is kept verbatim at every level.
    """
    if field not in FIELDS:
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
    check_level(n, LEVEL_CAPS["build"][field])
    split = CROSS_SPLIT[field]
    if n == 1:
        comps = _step(np.zeros((0, 1, 1), dtype=np.array(split).dtype), 1.0, split, 1.0)
    else:
        a_sq, b_sq = step_constants(n)
        a, b = math.sqrt(float(a_sq)), math.sqrt(float(b_sq))
        inv = 1.0 / math.sqrt(n + 1.0)
        half_cross = 0.5 * a * inv
        cross = [(lower * half_cross, upper * half_cross) for lower, upper in split]
        comps = _step(build(n - 1, field).components, inv, cross, b * inv)
    comps.setflags(write=False)
    built = QuadMap(n=n, components=comps)
    assert built.component_count == ambient_dims(n)[FIELDS.index(field)] + 1
    return built


def hopf(z) -> np.ndarray:
    """Closed-form circle-fibration map of the 3-sphere onto the 2-sphere.

    Accepts a single point of C^2 or a batch with points in the last axis;
    the formula is total, and continuity fixes the value (0, 0, 1) on the
    circle where the second coordinate vanishes.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0 or z.shape[-1] != 2:
        raise ValueError("hopf expects points of C^2")
    x0, y0 = z[..., 0].real, z[..., 0].imag
    x1, y1 = z[..., 1].real, z[..., 1].imag
    return np.stack(
        [2.0 * (x0 * x1 + y0 * y1),
         2.0 * (y0 * x1 - x0 * y1),
         x0 * x0 + y0 * y0 - x1 * x1 - y1 * y1],
        axis=-1,
    )
