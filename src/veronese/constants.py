"""Exact rational sequences behind the inductive sphere embeddings.

Every identity we verify downstream depends only on the squared
constants, so this module stays in exact integer/rational arithmetic.
Square roots are taken in floating point at map-build time only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

MAX_LEVEL = 12  # the radius sequence needs (n-1)!; kept at desk scale on purpose

FIELDS = ("real", "complex")

# Highest level, per field, that each part of the package handles.
LEVEL_CAPS = {
    "build": {"real": MAX_LEVEL, "complex": 8},   # N_12 = 89, M_8 = 79 coordinates
    # run_claim_audit(n_max), verify --n-max: real levels 1..n_max up to the real cap,
    # complex levels up to min(n_max, the complex cap), which is diagram_check's
    "audit": {"real": 6, "complex": 4},
}


def check_level(n, maximum=MAX_LEVEL, minimum=1):
    """Reject anything but an integer level in minimum..maximum."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"level must be an integer, got {n!r}")
    if not minimum <= n <= maximum:
        raise ValueError(f"level must be in {minimum}..{maximum}, got {n}")


def radius_pow4(n: int, mode: str = "closed") -> Fraction:
    """Fourth power of the level-n domain sphere radius, as an exact rational.

    closed mode evaluates ((n+1)/2)^2 (n-1)!; recursive mode iterates
    r_n^4 = (n+1)(n^2-1)/n^2 * r_{n-1}^4 from the base value 1.  The two
    must agree exactly for every level.
    """
    check_level(n)
    if mode == "closed":
        return Fraction(n + 1, 2) ** 2 * factorial(n - 1)
    if mode == "recursive":
        r4 = Fraction(1)
        for k in range(2, n + 1):
            r4 *= Fraction((k + 1) * (k * k - 1), k * k)
        return r4
    raise ValueError(f"mode must be 'closed' or 'recursive', got {mode!r}")


def step_constants(n: int) -> tuple[Fraction, Fraction]:
    """Squared cross-term and balance-term coefficients (a^2, b^2) at level n >= 2.

    b^2 = 1 / ((n^2-1) r_{n-1}^4) and a^2 = 2n(n+1) b^2; the base map has
    no such coefficients, so n < 2 is a domain error.
    """
    check_level(n, minimum=2)
    b_sq = Fraction(1, n * n - 1) / radius_pow4(n - 1)
    a_sq = 2 * n * (n + 1) * b_sq
    return a_sq, b_sq


def ambient_dims(n: int) -> tuple[int, int]:
    """Image sphere dimensions (real N_n, complex M_n) at level n."""
    check_level(n)
    return n * (n + 3) // 2 - 1, (n + 1) ** 2 - 2


@lru_cache(maxsize=None, typed=True)  # typed: a cached 2 must not answer for 2.0 or True
def radius(n: int) -> float:
    """Domain sphere radius at level n, in floating point."""
    return float(radius_pow4(n)) ** 0.25


def rational_str(q) -> str:
    """Serialize an exact rational as "p/q"; the denominator is always written."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"
