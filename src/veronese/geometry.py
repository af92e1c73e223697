"""Pointwise differential geometry of the embedded images.

Tangent bases, pullback metric, second fundamental form inside the unit sphere,
mean curvature, and the scalar curvature implied by the Gauss relation
s = d(d-1) + |H|^2 - |alpha|^2 for a d-manifold in the unit sphere.

Everything analytic about the maps (differentials, accelerations along
great circles) uses the constant coefficient matrices directly; nothing
here is differenced.

The second fundamental form is expressed in an orthonormal frame of the
*image* tangent space (Gram-Schmidt on the pushed-forward basis), i.e.
with respect to the induced image metric.  That frame is fixed first, from
the Cholesky factor L of the pullback Gram matrix: one forward substitution
against L carries the tangent images to the frame and the domain directions
to the directions that the map sends onto it, so the accelerations along
them are already in the image frame and one normal projection, which also
removes the term along the image point, finishes the form.  The pullback of
the round domain metric differs from the induced metric by the measured
homothety factor, and nothing here silently picks one normalization.
"""

from __future__ import annotations

import numpy as np

from . import constants
from .quadmap import QuadMap, StructuralError, chunks

FRAME_TOL = 1e-12        # relative on-sphere tolerance for domain points
# Smallest acceptable pivot of the Cholesky factor of the pullback Gram matrix,
# relative to the largest.  The pivots are the diagonal of R in the QR of the
# tangent images, but the Gram matrix squares their ratio, so a factorization in
# doubles resolves a ratio only down to about sqrt(eps) ~ 1e-8: a map with a ratio
# in 1e-10..1e-8 may fail the factorization instead, which raises the same
# rank-deficiency error.  The maps of the construction have all pivots equal
# (their Gram matrix is lambda I).
RANK_TOL = 1e-10
IMAGE_NORM_TOL = 1e-10   # image points must sit on the unit sphere


def canonical_point(map_: QuadMap) -> np.ndarray:
    """The base point (r_n, 0, ..., 0) of the map's level sphere, in the map's dtype."""
    point = np.zeros(map_.domain_dim, dtype=map_.components.dtype)
    point[0] = constants.radius(map_.n)
    return point


def tangent_bases(map_: QuadMap, points) -> np.ndarray:
    """Orthonormal tangent (real) or horizontal (complex) bases, shape (p, d, n+1).

    points must be a non-empty (p, n+1) batch on the sphere of the map's
    level radius r_n; every geometry entry point checks that here.  One
    deterministic reflection serves both fields: it carries the first
    coordinate axis to the unit point (for a complex map, first turned by the
    phase of its first coordinate) and its images u_k of the remaining axes
    are the real basis, or give the complex one as the pairs (u_k, i u_k),
    which are orthogonal to both z and iz in the real inner product.
    """
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != map_.domain_dim:
        raise ValueError(f"points must be a non-empty (count, {map_.domain_dim}) array "
                         f"at level {map_.n}, got shape {pts.shape}")
    r = constants.radius(map_.n)
    u = map_.domain_points(pts)
    # np.linalg.norm's operations for rows of floats, real or complex
    worst = float(np.max(np.abs(np.sqrt((u.conj() * u).real.sum(-1)) - r)))
    if not worst <= FRAME_TOL * max(1.0, r):  # NaN coordinates fail too
        raise ValueError(f"points are off the level-{map_.n} sphere of radius {r!r} "
                         f"(worst norm deviation {worst:.3e})")
    v = u / r  # the unit points, a new array
    p, m = v.shape
    if map_.field == "complex":
        mag = np.abs(v[:, 0])
        phase = np.where(mag > 0, v[:, 0] / np.where(mag > 0, mag, 1.0), 1.0)
        v = v * np.conj(phase)[:, None]
    v[:, 0] -= 1.0  # v = u - e_0, the reflection's normal
    vv = np.einsum("pi,pi->p", v.conj(), v).real  # conj() of real rows is v itself
    safe = np.where(vv > 1e-32, vv, 1.0)
    coef = np.where(vv > 1e-32, 2.0 / safe, 0.0)
    basis = -(coef[:, None, None] * v[:, 1:, None].conj()) * v[:, None, :]
    idx = np.arange(1, m)
    basis[:, idx - 1, idx] += 1.0
    if map_.field == "real":
        return basis
    basis = basis * phase[:, None, None]
    return np.stack([basis, 1j * basis], axis=2).reshape(p, 2 * (m - 1), m)


def second_fundamental_form(map_: QuadMap, points) -> tuple[np.ndarray, ...]:
    """Second fundamental form at points of the level sphere, with the pullback
    factor (the mean diagonal of the pullback Gram matrix) and its anisotropy
    (its worst deviation from that multiple of I), as (alpha, lambda,
    anisotropy); the kernel that curvature_field runs on each chunk.

    alpha has shape (p, d, d, K); its entry (i, j) is the normal-space
    component of the embedding's second derivative along the orthonormalized
    image directions i and j.

    One product x^T S_k of the point rows x with the stack gives the images
    x^T S_k x and the tangent images T = 2 B (x^T S_k) of the real rows B of the
    tangent_bases.  Every product is batched over points, so no point depends
    on its batch.  The frame is orthonormalized first.  With L the Cholesky
    factor of the pullback Gram matrix T T^T of the tangent images, the rows of
    Q^T = L^-1 T are an orthonormal frame of the image tangent space (the Q of
    the QR factorization T^T = Q L^T, the unique one with a positive
    diagonal), and the domain directions B' = L^-1 B have those rows as their
    images; one forward substitution over the d rows of [T | B] gives both.
    Accelerations of the curves t -> map(great circle) are assembled from the
    constant coefficient matrices: for a circle with initial velocity w the
    component accelerations are 2 q(w, w) - (2 |w|^2 / r^2) map(x), and
    polarization in w is exact because q is bilinear, so 2 q(B'_a, B'_b) is
    already in the image frame.  Its normal part (orthogonal to the image
    point and the image tangent space, one orthonormal frame since |map|^2 is
    constant on the sphere) is the second fundamental form of the image inside
    the unit sphere; the map(x) term lies along the image point, which that
    projection removes, so it is never formed.
    """
    bases = map_.real_rows(tangent_bases(map_, points))
    x = map_.real_rows(map_.domain_points(points))
    (p, d, m), k = bases.shape, map_.component_count
    spare, rows, acc = _work(map_, p)
    dx = np.matmul(x, map_.stack, out=spare[:p * m * k].reshape(p, m * k)).reshape(p, m, k)
    rows = rows[:p * (d + 1) * (k + m)].reshape(p, d + 1, k + m)
    images = np.matmul(x[:, None], dx, out=rows[:, :1, :k])[:, 0]   # x^T S_k x, as evaluate
    dx *= 2.0  # exact, so B (2 dx) is 2 (B dx) bit for bit
    tangent = np.matmul(bases, dx, out=rows[:, 1:, :k])
    rows[:, 1:, k:] = bases
    gram = tangent @ tangent.transpose(0, 2, 1)
    lam = np.diagonal(gram, axis1=1, axis2=2).sum(-1) / d
    anis = np.max(np.abs(gram - lam[:, None, None] * np.eye(d)), axis=(1, 2))
    worst = float(np.max(np.abs(np.sqrt((images * images).sum(-1)) - 1.0)))
    if not worst <= IMAGE_NORM_TOL:
        raise StructuralError(f"{map_.field} level {map_.n}: image points are off the unit "
                              f"sphere (worst deviation {worst:.3e})")

    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:  # not positive definite: a zero pivot
        chol = np.zeros_like(gram)
    pivots = np.diagonal(chol, axis1=1, axis2=2)
    if np.any(pivots.min(axis=1) <= RANK_TOL * pivots.max(axis=1)):
        raise StructuralError(f"{map_.field} level {map_.n}: image tangent space is rank deficient")
    # [Q^T | B'] = L^-1 [T | B], by forward substitution in place
    frame, rows = rows[:, :, :k], rows[:, 1:]
    for i, row in enumerate(rows.transpose(1, 0, 2)):
        if i:  # row 0 has nothing to subtract
            row -= (chol[:, i, None, :i] @ rows[:, :i])[:, 0]
        row /= chol[:, i, i, None]

    # acc[a, b, k] = 2 B'_a^T S_k B'_b
    prod = np.matmul(rows[:, :, k:], map_.stack, out=spare[:p * d * m * k].reshape(p, d, m * k))
    acc = acc[:p * d * d * k].reshape(p, d, d, k)
    np.matmul(rows[:, None, :, k:], prod.reshape(p, d, m, k), out=acc)
    acc *= 2.0
    flat = acc.reshape(p, d * d, k)
    flat -= np.matmul(flat @ frame.transpose(0, 2, 1), frame,
                      out=spare[:flat.size].reshape(flat.shape))
    return acc, lam, anis


def _work(map_: QuadMap, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat arrays second_fundamental_form computes in for count points: the
    (d, M*K) stack products; the (d+1, K+M) rows, the image point over [T | B] made
    [Q^T | B'] in place (the normal frame in the first K columns); and alpha."""
    d, m, k = map_.quotient_dim, map_.stack.shape[0], map_.component_count
    return tuple(np.empty(count * size) for size in (d * m * k, (d + 1) * (k + m), d * d * k))


def curvature_point_bytes(map_: QuadMap) -> int:
    """Working memory per point of a curvature_field chunk, in bytes, eight per
    double.  The kernel's peak (the normal projection) holds the arrays that
    _work allocates on each call, d K (M+d) + (d+1) (K+M); the tangent basis,
    d M; the projection's (d, d, d+1) product, the Gram matrix and its Cholesky
    factor, d d (d+3); the point's real row, M; and a few scalars.  The count is
    K (M+d+1) - M (d+1) above that: it still counts the stack product and the
    frame outside those arrays, slack that only shortens the chunks (report
    runs the kernel on two points)."""
    d, m, k = map_.quotient_dim, map_.stack.shape[0], map_.component_count
    return 8 * (d * k * (m + d) + k * (m + 2 * d + 2) + d * (d * (d + 3) + m) + m + 32)


def curvature_field(map_: QuadMap, points) -> dict:
    """Curvature invariants at many points of the level sphere, chunked to bound memory.

    Returns (p,) arrays 'lambda', 'anisotropy', 'alpha_norm_sq',
    'mean_curvature_norm' and 'scalar_curvature_gauss'.  Each point's values
    are the same for every chunk length and every batch the point sits in.
    """
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.shape[0] == 0:
        tangent_bases(map_, pts)  # raises its shape error
    d, parts = map_.quotient_dim, []
    for part in chunks(len(pts), curvature_point_bytes(map_)):
        a, lam, anis = second_fundamental_form(map_, pts[part])
        hn = np.diagonal(a, axis1=1, axis2=2).sum(-1)  # the trace of alpha, (p, K)
        hn = np.sqrt((hn * hn).sum(-1))
        # alpha squared in place, once |H| is read; a row reduction, not a BLAS
        # dot, whose split depends on the thread count
        a2 = np.square(a, out=a).reshape(len(a), -1).sum(1)
        parts.append({"lambda": lam, "anisotropy": anis, "alpha_norm_sq": a2,
                      "mean_curvature_norm": hn,
                      "scalar_curvature_gauss": d * (d - 1) + hn * hn - a2})
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
