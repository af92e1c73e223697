"""Deterministic random points on real and complex spheres and their projective quotients.

Every point is read from one stream of standard normals per key, a
counter-based stream in the manner of SplitMix64 (Steele, Lea & Flood, OOPSLA
2014) and of the counter-based generators of Salmon et al. (SC 2011): word j
of key s is mix64(mix64(s) + (j + 1) GAMMA mod 2^64), with mix64 the
SplitMix64 finalizer, so normal j is a pure function of (s, j).  Normals 2k and
2k + 1 are one Box-Muller pair of words 2k and 2k + 1.  The top 53 bits of each
word, read as a signed integer a in [-2^52, 2^52), give x = a / 2^53 in
[-1/2, 1/2): word 2k gives the radius R = sqrt(-2 log(1/2 - x)), word 2k + 1
the angle phi = pi x / 2 in [-pi/4, pi/4), and bits 0-1 of word 2k the number t
of quarter turns, so that the normals are R cos(phi + t pi/2) and
R sin(phi + t pi/2).  Within a quarter period libm's sin needs no argument
reduction, and cos phi = sqrt(1 - sin^2 phi) suffers no cancellation.

A draw of count rows of dim coordinates from row start reads normals
start dim .. (start + count) dim - 1, so no row depends on the block it is
drawn in, and identical (seed, start, count) reproduces the same points bit
for bit.  Only the low 64 bits of a seed count.  The arithmetic is numpy's
uint64 and float64; nothing is imported from numpy.random.
"""

from __future__ import annotations

import math

import numpy as np

from . import constants

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)

# 0-d operands, which a ufunc reads about twice as fast as Python or numpy scalars
_GAMMA_U, _MIX1_U, _MIX2_U = (np.array(c, np.uint64) for c in (_GAMMA, *_MIX))
_SHIFT = {s: np.array(s, np.uint64) for s in (27, 30, 31)}
_TOP53, _TURN_BITS = np.array(11, np.int64), np.array(3, np.int64)
_SCALE = np.array([[-2.0**-53], [math.pi / 2 * 2.0**-53]])  # a to -x, and a to phi
_HALF, _ONE, _MINUS_TWO = np.array(0.5), np.array(1.0), np.array(-2.0)
_TURNS = np.array([1, 1j, -1, -1j])


def _mix64(z: int) -> int:
    """The SplitMix64 finalizer of a word held as a Python int."""
    z = (z ^ z >> 30) * _MIX[0] & _MASK64
    z = (z ^ z >> 27) * _MIX[1] & _MASK64
    return z ^ z >> 31


def _pair_words(key: int, first: int, pairs: int) -> np.ndarray:
    """The words of Box-Muller pairs first .. first + pairs - 1 of the key's stream
    as a (2, pairs) uint64 array: words 2k in row 0, words 2k + 1 in row 1."""
    z = np.empty((2, pairs), np.uint64)
    counters = np.arange(2 * first + 1, 2 * (first + pairs) + 1, 2, dtype=np.uint64)
    np.multiply(counters, _GAMMA_U, z[0])
    np.add(z[0], _GAMMA_U, z[1])
    np.add(z, np.array(_mix64(key & _MASK64), np.uint64), z)
    t = np.empty_like(z)
    for shift, mult in ((30, _MIX1_U), (27, _MIX2_U)):
        np.bitwise_xor(z, np.right_shift(z, _SHIFT[shift], t), z)
        np.multiply(z, mult, z)
    return np.bitwise_xor(z, np.right_shift(z, _SHIFT[31], t), z)


def _normals(key: int, first: int, count: int) -> np.ndarray:
    """Normals first .. first + count - 1 of the key's stream, from the whole
    Box-Muller pairs they lie in."""
    lo, hi = first // 2, (first + count + 1) // 2
    z = _pair_words(key, lo, hi - lo)
    r, phi = np.multiply(np.right_shift(z.view(np.int64), _TOP53), _SCALE)
    np.add(r, _HALF, r)
    np.log(r, r)
    np.multiply(r, _MINUS_TWO, r)
    np.sqrt(r, r)
    turn = _TURNS.take(np.bitwise_and(z[0].view(np.int64), _TURN_BITS))
    np.multiply(turn, r, turn)
    # (cos phi + i sin phi) R i^t in the words' memory: normal 2k is the real
    # part of pair k, normal 2k + 1 its imaginary part
    pairs = z.reshape(-1).view(np.complex128)
    sin = np.sin(phi, pairs.imag)
    np.subtract(_ONE, np.multiply(sin, sin, phi), phi)
    np.sqrt(phi, pairs.real)
    np.multiply(pairs, turn, pairs)
    return pairs.view(np.float64)[first - 2 * lo:first - 2 * lo + count]


def sphere_points(dim: int, count: int, seed: int, radius: float = 1.0,
                  start: int = 0) -> np.ndarray:
    """Uniform points on the sphere of the given radius in R^dim, shape (count, dim):
    rows start .. start + count - 1 of the seed's stream."""
    if dim < 1 or count < 1:
        raise ValueError("dim and count must be positive")
    if start < 0:
        raise ValueError("start must be non-negative")
    x = _normals(seed, start * dim, count * dim).reshape(count, dim)
    # np.linalg.norm's reduction for real rows, then its division in place
    nrm = np.sqrt((x * x).sum(-1))[:, None]
    nrm[nrm == 0.0] = 1.0
    np.multiply(radius, x, out=x)
    x /= nrm
    return x


def complex_sphere_points(cdim: int, count: int, seed: int, radius: float = 1.0,
                          start: int = 0) -> np.ndarray:
    """Uniform points on the real sphere of C^cdim = R^(2 cdim), as complex rows."""
    x = sphere_points(2 * cdim, count, seed, radius, start)
    return x[:, :cdim] + 1j * x[:, cdim:]


def quotient_samples(n: int, field: str, count: int, seed: int, start: int = 0) -> np.ndarray:
    """Uniform samples on the level-n domain sphere (representatives of the quotient)."""
    r = constants.radius(n)
    if field == "real":
        return sphere_points(n + 1, count, seed, radius=r, start=start)
    if field == "complex":
        return complex_sphere_points(n + 1, count, seed, radius=r, start=start)
    raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
