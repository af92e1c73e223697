"""Pointwise differential geometry of the embedded images.

Tangent bases, pullback metric, second fundamental form inside the unit sphere,
mean curvature, and the scalar curvature implied by the Gauss relation
s = d(d-1) + |H|^2 - |alpha|^2 for a d-manifold in the unit sphere.

Everything analytic about the maps (differentials, accelerations along
great circles) uses the constant coefficient matrices directly; nothing
here is differenced.

The second fundamental form is expressed in an orthonormal frame of the
*image* tangent space (Gram-Schmidt on the pushed-forward basis), i.e.
with respect to the induced image metric.  That frame is fixed first: the
domain directions are solved against the triangular factor of the tangent
images, so the accelerations along them are already in the image frame and
one normal projection, which also removes the term along the image point,
finishes the form.  The pullback of the round domain metric differs from the
induced metric by the measured homothety factor, and nothing here silently
picks one normalization.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from . import constants
from .quadmap import QuadMap, StructuralError, chunks

FRAME_TOL = 1e-12        # relative on-sphere tolerance for domain points
RANK_TOL = 1e-10         # smallest acceptable triangular pivot, relative
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
    """The points and their tangent_bases as real rows of the map's stack
    (p, 1 + d, M), the point rows times the stack, x^T S_k for every k
    (p, 1, M*K), the images of the bases under the differential (p, d, K),
    and at each point the pullback factor (mean diagonal of the pullback Gram
    matrix) and its anisotropy (worst deviation from that multiple of I).

    Products are batched over points, so no point depends on its batch.
    """
    bases = tangent_bases(map_, points)
    rows = map_.real_rows(np.concatenate([np.asarray(points)[:, None], bases], axis=1))
    dx = rows[:, :1] @ map_.stack
    p, d, m = bases.shape[0], bases.shape[1], rows.shape[2]
    tangent = 2.0 * (rows[:, 1:] @ dx.reshape(p, m, -1))
    gram = tangent @ tangent.transpose(0, 2, 1)
    lam = np.trace(gram, axis1=1, axis2=2) / d
    anis = np.max(np.abs(gram - lam[:, None, None] * np.eye(d)), axis=(1, 2))
    return rows, dx, tangent, lam, anis


def tangent_images(map_: QuadMap, points) -> np.ndarray:
    """Pushforward of the tangent_bases at the points, shape (p, d, K)."""
    return _pushforward(map_, points)[2]


def second_fundamental_form(map_: QuadMap, points, work=None) -> tuple[np.ndarray, ...]:
    """Second fundamental form at points of the level sphere, with the pullback
    factor (the mean diagonal of the pullback Gram matrix) and its anisotropy
    (its worst deviation from that multiple of I), as (alpha, lambda,
    anisotropy); the kernel that curvature_field runs on each chunk.

    alpha has shape (p, d, d, K); its entry (i, j) is the normal-space
    component of the embedding's second derivative along the orthonormalized
    image directions i and j.

    The frame is orthonormalized first: with tangent^T = Q R, the domain
    directions B' = R^-T B (one batched solve) have the orthonormal columns
    of Q as their images.  Accelerations of the curves t -> map(great circle)
    are assembled from the constant coefficient matrices: for a circle with
    initial velocity w the component accelerations are
    2 q(w, w) - (2 |w|^2 / r^2) map(x), and polarization in w is exact
    because q is bilinear, so 2 q(B'_a, B'_b) is already in the image frame.
    Its normal part (orthogonal to the image point and the image tangent
    space, one orthonormal frame since |map|^2 is constant on the sphere) is
    the second fundamental form of the image inside the unit sphere; the
    map(x) term lies along the image point, which that projection removes, so
    it is never formed.

    work is None, or a pair of flat float arrays of at least p d M K and
    p d d K doubles that the products are computed in (curvature_blocks keeps
    one pair for all its blocks); alpha is then a view of the second.
    """
    rows, dx, tangent, lam, anis = _pushforward(map_, points)
    p, m = dx.shape[0], rows.shape[2]
    images = (rows[:, :1] @ dx.reshape(p, m, -1))[:, 0]   # x^T S_k x, as evaluate
    worst = float(np.max(np.abs(np.linalg.norm(images, axis=1) - 1.0)))
    if not worst <= IMAGE_NORM_TOL:
        raise StructuralError(f"image points are off the unit sphere "
                              f"(worst deviation {worst:.3e})")

    q_hat, r_tri = np.linalg.qr(tangent.transpose(0, 2, 1))
    pivots = np.abs(np.diagonal(r_tri, axis1=1, axis2=2))
    if np.any(pivots.min(axis=1) <= RANK_TOL * pivots.max(axis=1)):
        raise StructuralError("image tangent space is rank deficient")

    rows = np.linalg.solve(r_tri.transpose(0, 2, 1), rows[:, 1:])   # B' = R^-T B
    d, k = rows.shape[1], images.shape[1]
    spare, acc = work if work is not None else _work(map_, p)
    acc = acc[:p * d * d * k].reshape(p, d, d, k)
    # acc[a, b, k] = 2 B'_a^T S_k B'_b
    prod = np.matmul(rows, map_.stack, out=spare[:p * d * m * k].reshape(p, d, m * k))
    np.matmul(rows[:, None], prod.reshape(p, d, m, k), out=acc)
    acc *= 2.0
    frame = np.concatenate([images[:, :, None], q_hat], axis=2)
    flat = acc.reshape(p, d * d, k)
    flat -= np.matmul(flat @ frame, frame.transpose(0, 2, 1),
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
    """Working memory per point of a curvature_field chunk, in doubles: the work
    arrays of the (d, M*K) products and the (d, d, K) accelerations, d K (M+d);
    beside them, at the kernel's peak (the normal projection), the stack
    product, image, tangent images, their Q factor and the frame, K (M + 3d + 2);
    the projection's (d, d, d+1) product, R and the solved rows B',
    d (d (d+2) + M); and a few scalars."""
    d, m, k = _dims(map_)
    return 8 * (d * k * (m + d) + k * (m + 3 * d + 2) + d * (d * (d + 2) + m) + 32)


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
