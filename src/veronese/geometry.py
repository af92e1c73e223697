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

from collections.abc import Iterable, Iterator

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
    if np.iscomplexobj(pts) and map_.field == "real":
        raise ValueError("real map expects real coordinates")
    r = constants.radius(map_.n)
    worst = float(np.max(np.abs(np.linalg.norm(pts, axis=1) - r)))
    if not worst <= FRAME_TOL * max(1.0, r):  # NaN coordinates fail too
        raise ValueError(f"points are off the level-{map_.n} sphere of radius {r!r} "
                         f"(worst norm deviation {worst:.3e})")
    v = np.asarray(pts, dtype=map_.components.dtype) / r  # the unit points u, a new array
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


def _pushforward(map_: QuadMap, points):
    """The points as real rows of the map's stack (p, M), the point rows times
    the stack, x^T S_k for every k (p, M*K), the images T of the tangent_bases
    under the differential beside the bases' own real rows B, as one
    (p, d, K + M) array [T | B], the pullback Gram matrix T T^T (p, d, d), and
    at each point the pullback factor (mean diagonal of the Gram matrix) and
    its anisotropy (worst deviation from that multiple of I).

    Products are batched over points, so no point depends on its batch.
    """
    bases = map_.real_rows(tangent_bases(map_, points))
    x = map_.real_rows(np.asarray(points, dtype=map_.components.dtype))
    dx = x @ map_.stack
    p, d, m = bases.shape
    tangent = 2.0 * (bases @ dx.reshape(p, m, -1))
    gram = tangent @ tangent.transpose(0, 2, 1)
    lam = np.trace(gram, axis1=1, axis2=2) / d
    anis = np.max(np.abs(gram - lam[:, None, None] * np.eye(d)), axis=(1, 2))
    return x, dx, np.concatenate([tangent, bases], axis=2), gram, lam, anis


def tangent_images(map_: QuadMap, points) -> np.ndarray:
    """Pushforward of the tangent_bases at the points, shape (p, d, K)."""
    return _pushforward(map_, points)[2][:, :, :map_.component_count]


def second_fundamental_form(map_: QuadMap, points, work=None) -> tuple[np.ndarray, ...]:
    """Second fundamental form at points of the level sphere, with the pullback
    factor (the mean diagonal of the pullback Gram matrix) and its anisotropy
    (its worst deviation from that multiple of I), as (alpha, lambda,
    anisotropy); the kernel that curvature_field runs on each chunk.

    alpha has shape (p, d, d, K); its entry (i, j) is the normal-space
    component of the embedding's second derivative along the orthonormalized
    image directions i and j.

    The frame is orthonormalized first.  With L the Cholesky factor of the
    pullback Gram matrix T T^T of the tangent images T, the rows of
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

    work is None, or a pair of flat float arrays of at least p d M K and
    p d d K doubles that the products are computed in (curvature_blocks keeps
    one pair for all its blocks); alpha is then a view of the second.
    """
    x, dx, rows, gram, lam, anis = _pushforward(map_, points)
    p, d, m, k = *rows.shape[:2], x.shape[1], map_.component_count
    images = (x[:, None] @ dx.reshape(p, m, k))[:, 0]   # x^T S_k x, as evaluate
    worst = float(np.max(np.abs(np.linalg.norm(images, axis=1) - 1.0)))
    if not worst <= IMAGE_NORM_TOL:
        raise StructuralError(f"image points are off the unit sphere "
                              f"(worst deviation {worst:.3e})")

    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise StructuralError("image tangent space is rank deficient") from None
    pivots = np.diagonal(chol, axis1=1, axis2=2)
    if np.any(pivots.min(axis=1) <= RANK_TOL * pivots.max(axis=1)):
        raise StructuralError("image tangent space is rank deficient")
    # [Q^T | B'] = L^-1 [T | B], by forward substitution
    for i, row in enumerate(rows.transpose(1, 0, 2)):
        row -= (chol[:, i, None, :i] @ rows[:, :i])[:, 0]
        row /= chol[:, i, i, None]

    frame = np.concatenate([images[:, None], rows[:, :, :k]], axis=1)
    rows = rows[:, :, k:]
    spare, acc = work if work is not None else _work(map_, p)
    acc = acc[:p * d * d * k].reshape(p, d, d, k)
    # acc[a, b, k] = 2 B'_a^T S_k B'_b
    prod = np.matmul(rows, map_.stack, out=spare[:p * d * m * k].reshape(p, d, m * k))
    np.matmul(rows[:, None], prod.reshape(p, d, m, k), out=acc)
    acc *= 2.0
    flat = acc.reshape(p, d * d, k)
    flat -= np.matmul(flat @ frame.transpose(0, 2, 1), frame,
                      out=spare[:flat.size].reshape(flat.shape))
    return acc, lam, anis


def _dims(map_: QuadMap) -> tuple[int, int, int]:
    """The real tangent dimension d (fiber removed), the stack's rows M and the
    components K."""
    m = map_.stack.shape[0]
    return map_.n * (m // map_.domain_dim), m, map_.component_count


def _work(map_: QuadMap, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The work of second_fundamental_form for count points: room for the
    (d, M*K) products, and for the (d, d, K) accelerations."""
    d, m, k = _dims(map_)
    return np.empty(count * d * m * k), np.empty(count * d * d * k)


def curvature_point_bytes(map_: QuadMap) -> int:
    """Working memory per point of a curvature_field chunk, in bytes, eight per
    double of: the work arrays of the (d, M*K) products and the (d, d, K)
    accelerations, d K (M+d); beside them, at the kernel's peak (the normal
    projection), the stack product, image and frame, K (M + d + 2); the rows
    [Q^T | B'], d (K + M); the projection's (d, d, d+1) product, the Gram
    matrix and its Cholesky factor, d d (d+3); the point's real row, M; and a
    few scalars."""
    d, m, k = _dims(map_)
    return 8 * (d * k * (m + d) + k * (m + 2 * d + 2) + d * (d * (d + 3) + m) + m + 32)


def curvature_blocks(map_: QuadMap, blocks: Iterable[np.ndarray]) -> Iterator[dict]:
    """The curvature_field of each block of points in turn.  The kernel computes
    in one pair of work arrays for all the blocks, so the allocator neither
    gives that memory back nor faults it in again between blocks."""
    d = _dims(map_)[0]
    work, room = None, 0
    for block in blocks:
        if room < len(block):
            work, room = _work(map_, len(block)), len(block)
        a, lam, anis = second_fundamental_form(map_, block, work)
        # a row reduction, not a BLAS dot, whose split depends on the thread count
        a2 = np.square(a.reshape(len(a), -1), out=work[0][:a.size].reshape(len(a), -1))
        a2 = a2.sum(axis=1)
        hn = np.linalg.norm(np.trace(a, axis1=1, axis2=2), axis=1)
        yield {"lambda": lam, "anisotropy": anis, "alpha_norm_sq": a2,
               "mean_curvature_norm": hn, "scalar_curvature_gauss": d * (d - 1) + hn * hn - a2}


def curvature_field(map_: QuadMap, points) -> dict:
    """Curvature invariants at many points of the level sphere, chunked to bound memory.

    Returns (p,) arrays 'lambda', 'anisotropy', 'alpha_norm_sq',
    'mean_curvature_norm' and 'scalar_curvature_gauss'; used for constancy
    checks and quotient integration.  Each point's values are the same for
    every chunk length and every batch the point sits in.
    """
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.shape[0] == 0:
        tangent_bases(map_, pts)  # raises its shape error
    parts = list(curvature_blocks(
        map_, (pts[part] for part in chunks(len(pts), curvature_point_bytes(map_)))))
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
