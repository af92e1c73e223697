"""Pointwise differential geometry of the embedded images.

Frames, pullback metric, second fundamental form inside the unit sphere,
mean curvature, and the scalar curvature implied by the Gauss relation
s = d(d-1) + |H|^2 - |alpha|^2 for a d-manifold in the unit sphere.

Everything analytic about the maps (differentials, accelerations along
great circles) uses the constant coefficient matrices directly; the only
finite differencing in this module is the intrinsic-Laplacian residual,
which is deliberately an independent check.

The second fundamental form is expressed in an orthonormal frame of the
*image* tangent space (Gram-Schmidt on the pushed-forward basis), i.e.
with respect to the induced image metric.  The pullback of the round
domain metric differs from the induced metric by the measured homothety
factor, and nothing here silently picks one normalization.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import constants
from .quadmap import QuadMap, StructuralError, evaluate

FRAME_TOL = 1e-12        # on-sphere tolerance for frame base points
RANK_TOL = 1e-10         # smallest acceptable triangular pivot, relative
LAPLACE_STEP = 1e-3      # second-difference step; scheme error is O(h^2)
IMAGE_NORM_TOL = 1e-10   # image points must sit on the unit sphere


@dataclass(frozen=True)
class TangentFrame:
    """A base point on the level-n domain sphere plus an orthonormal basis.

    Real field: n vectors spanning the tangent space of S^n(r_n).
    Complex field: 2n vectors spanning the horizontal space at z, i.e.
    orthogonal to both z and iz in the real inner product.
    """

    field: str
    n: int
    radius: float
    base_point: np.ndarray
    basis: np.ndarray  # (d, n+1), real or complex rows

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True)
class GeometryReport:
    homothety_factor: float
    anisotropy: float
    alpha_norm_sq: float
    mean_curvature_norm: float
    scalar_curvature_gauss: float
    effective_radius_sq: float

    def to_dict(self) -> dict:
        return {key: float(value) for key, value in asdict(self).items()}


def real_inner(u, v) -> float:
    """Euclidean inner product, reading complex vectors as real ones of twice the size."""
    return float(np.real(np.vdot(u, v)))


def _basis_real(unit_points: np.ndarray) -> np.ndarray:
    """Orthonormal tangent bases at unit points, shape (p, m-1, m).

    Deterministic: the reflection taking the first coordinate axis to the
    base direction is applied to the remaining coordinate axes.
    """
    p, m = unit_points.shape
    v = unit_points.copy()
    v[:, 0] -= 1.0
    vv = np.einsum("pi,pi->p", v, v)
    safe = np.where(vv > 1e-32, vv, 1.0)
    coef = np.where(vv > 1e-32, 2.0 / safe, 0.0)
    basis = -(coef[:, None, None] * v[:, 1:, None]) * v[:, None, :]
    idx = np.arange(1, m)
    basis[:, idx - 1, idx] += 1.0
    return basis


def _basis_horizontal(unit_points: np.ndarray) -> np.ndarray:
    """Orthonormal horizontal bases at unit complex points, shape (p, 2(m-1), m).

    A unitary reflection (corrected by the phase of the first coordinate)
    carries the first coordinate axis to the base direction; its images of
    the remaining axes u_k give the horizontal pairs (u_k, i u_k).
    """
    p, m = unit_points.shape
    w0 = unit_points[:, 0]
    mag = np.abs(w0)
    phase = np.where(mag > 0, w0 / np.where(mag > 0, mag, 1.0), 1.0)
    wp = unit_points * np.conj(phase)[:, None]
    v = wp.copy()
    v[:, 0] -= 1.0
    vv = np.einsum("pi,pi->p", np.conj(v), v).real
    safe = np.where(vv > 1e-32, vv, 1.0)
    coef = np.where(vv > 1e-32, 2.0 / safe, 0.0)
    cols = -(coef[:, None, None] * np.conj(v[:, 1:, None])) * v[:, None, :]
    idx = np.arange(1, m)
    cols[:, idx - 1, idx] += 1.0
    cols = cols * phase[:, None, None]
    out = np.empty((p, 2 * (m - 1), m), dtype=complex)
    out[:, 0::2] = cols
    out[:, 1::2] = 1j * cols
    return out


def _tangent_bases(points: np.ndarray, radius: float, field: str) -> np.ndarray:
    if field == "real":
        return _basis_real(points / radius)
    return _basis_horizontal(points / radius)


def frame(base_point, field: str) -> TangentFrame:
    """Deterministic orthonormal frame at a point of the level-n domain sphere.

    The level is inferred from the point dimension and the point must lie
    on the sphere of the canonical level radius.
    """
    dtype = {"real": float, "complex": complex}.get(field)
    if dtype is None:
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
    pt = np.asarray(base_point, dtype=dtype)
    if pt.ndim != 1 or pt.size < 2:
        raise ValueError("base point must be a vector of dimension at least 2")
    n = pt.size - 1
    r = constants.radius(n)
    nrm = float(np.linalg.norm(pt))
    if nrm == 0.0 or abs(nrm - r) > FRAME_TOL * max(1.0, r):
        raise ValueError(
            f"base point norm {nrm!r} is off the level-{n} sphere of radius {r!r}"
        )
    basis = _tangent_bases(pt[None, :], r, field)[0]
    return TangentFrame(field=field, n=n, radius=r, base_point=pt, basis=basis)


def _pushforward(map_: QuadMap, points: np.ndarray, bases: np.ndarray):
    """Images of the bases under the differential, shape (p, d, K), with the
    pullback factor (mean diagonal of the pullback Gram matrix) and its
    anisotropy (worst deviation from that multiple of I) at each point."""
    tangent = (2.0 * np.einsum("kij,pi,pbj->pbk", map_.components, np.conj(points), bases)).real
    gram = np.einsum("pbk,pck->pbc", tangent, tangent)
    d = bases.shape[1]
    lam = np.trace(gram, axis1=1, axis2=2) / d
    anis = np.max(np.abs(gram - lam[:, None, None] * np.eye(d)), axis=(1, 2))
    return tangent, lam, anis


def tangent_images(map_: QuadMap, points) -> np.ndarray:
    """Pushforward of the frame bases at on-sphere points, shape (p, d, K).

    The bases are the tangent (real) or horizontal (complex) ones that
    frame() and curvature_field() use.
    """
    pts = np.asarray(points)
    bases = _tangent_bases(pts, constants.radius(map_.n), map_.field)
    return _pushforward(map_, pts, bases)[0]


def pullback_factor(map_: QuadMap, frm: TangentFrame) -> tuple[float, float]:
    """Mean diagonal of the pullback Gram matrix and its worst deviation from a multiple of I."""
    if frm.field != map_.field:
        raise ValueError("frame and map fields disagree")
    _, lam, anis = _pushforward(map_, frm.base_point[None, :], frm.basis[None, :, :])
    return float(lam[0]), float(anis[0])


def _curvature_chunk(map_: QuadMap, points: np.ndarray, radius: float,
                     bases: np.ndarray) -> dict:
    """Batched curvature pipeline at on-sphere points.

    Accelerations of the curves t -> map(great circle) are assembled from
    the constant coefficient matrices: for a circle with initial velocity w
    the component accelerations are 2 q(w, w) - (2 |w|^2 / r^2) map(x), and
    polarization in w is exact because q is bilinear.  The normal part
    (orthogonal to the image point and the image tangent space) transformed
    into the Gram-Schmidt-orthonormalized image frame is the second
    fundamental form of the image inside the unit sphere.
    """
    tangent, lam, anis = _pushforward(map_, points, bases)
    images = evaluate(map_, points)

    q_hat, r_tri = np.linalg.qr(np.swapaxes(tangent, 1, 2))
    pivots = np.abs(np.diagonal(r_tri, axis1=1, axis2=2))
    if np.any(pivots.min(axis=1) <= RANK_TOL * pivots.max(axis=1)):
        raise StructuralError("image tangent space is rank deficient")

    conj_bases = np.conj(bases)
    q_bil = np.einsum("kij,pai,pbj->pabk", map_.components, conj_bases, bases).real
    gram_dom = np.einsum("pai,pbi->pab", bases, conj_bases).real
    acc = 2.0 * q_bil - (2.0 / radius**2) * gram_dom[..., None] * images[:, None, None, :]

    radial = np.einsum("pabk,pk->pab", acc, images)
    acc = acc - radial[..., None] * images[:, None, None, :]
    tang = np.einsum("pabk,pkc->pabc", acc, q_hat)
    acc = acc - np.einsum("pabc,pkc->pabk", tang, q_hat)

    r_inv = np.linalg.inv(r_tri)
    alpha = np.einsum("pma,pnb,pmnk->pabk", r_inv, r_inv, acc)
    return {"alpha": alpha, "lambda": lam, "anisotropy": anis}


def second_fundamental_form(map_: QuadMap, frm: TangentFrame) -> np.ndarray:
    """Second fundamental form at the frame point, shape (d, d, ambient).

    Entry (i, j) is the normal-space component of the embedding's second
    derivative along the orthonormalized image directions i and j.
    """
    if frm.field != map_.field:
        raise ValueError("frame and map fields disagree")
    img = evaluate(map_, frm.base_point)
    if abs(float(np.linalg.norm(img)) - 1.0) > IMAGE_NORM_TOL:
        raise ValueError("image point is off the unit sphere; frame level and map level disagree?")
    res = _curvature_chunk(map_, frm.base_point[None, :], frm.radius, frm.basis[None, :, :])
    return res["alpha"][0]


def curvature_invariants(alpha: np.ndarray, d: int) -> dict:
    """Squared norm of alpha, mean curvature norm, and the Gauss-relation scalar curvature."""
    alpha = np.asarray(alpha, dtype=float)
    alpha_sq = float(np.sum(alpha * alpha))
    mean_curv = np.einsum("aak->k", alpha)
    h_norm = float(np.linalg.norm(mean_curv))
    scalar = d * (d - 1) + h_norm * h_norm - alpha_sq
    return {
        "alpha_norm_sq": alpha_sq,
        "mean_curvature_norm": h_norm,
        "scalar_curvature_gauss": scalar,
    }


def geometry_report(map_: QuadMap, frm: TangentFrame) -> GeometryReport:
    lam, anis = pullback_factor(map_, frm)
    alpha = second_fundamental_form(map_, frm)
    inv = curvature_invariants(alpha, frm.dim)
    return GeometryReport(
        homothety_factor=lam,
        anisotropy=anis,
        alpha_norm_sq=inv["alpha_norm_sq"],
        mean_curvature_norm=inv["mean_curvature_norm"],
        scalar_curvature_gauss=inv["scalar_curvature_gauss"],
        effective_radius_sq=lam * frm.radius**2,
    )


def curvature_field(map_: QuadMap, points, chunk_size: int = 4096) -> dict:
    """Curvature invariants at many on-sphere points, chunked to bound memory.

    Returns arrays keyed like curvature_invariants plus 'lambda' and
    'anisotropy'; used for constancy checks and quotient integration.
    """
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty (count, dim) array")
    r = constants.radius(map_.n)
    parts = []
    for start in range(0, pts.shape[0], chunk_size):
        chunk = pts[start:start + chunk_size]
        res = _curvature_chunk(map_, chunk, r, _tangent_bases(chunk, r, map_.field))
        a = res.pop("alpha")
        d = a.shape[1]
        a2 = np.einsum("pabk,pabk->p", a, a)
        hn = np.linalg.norm(np.einsum("paak->pk", a), axis=1)
        res["alpha_norm_sq"] = a2
        res["mean_curvature_norm"] = hn
        res["scalar_curvature_gauss"] = d * (d - 1) + hn * hn - a2
        parts.append(res)
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def laplace_residual(map_: QuadMap, base_point, r: float) -> float:
    """Deviation of every component from the degree-2 eigenvalue equation.

    A second-order central difference along unit-speed great circles through
    the base point (one per orthonormal tangent direction, the fiber
    direction included in the complex case) approximates the intrinsic
    sphere Laplacian in exact geodesic normal coordinates; each component f
    must satisfy lap f = -k(k + m - 1)/r^2 f with k = 2 on an m-sphere of
    radius r.  Returns the largest componentwise residual.
    """
    pt = np.asarray(base_point, dtype=map_.components.dtype)
    if pt.ndim != 1 or pt.size != map_.domain_dim:
        raise ValueError("base point does not match the map domain")
    nrm = float(np.linalg.norm(pt))
    if nrm == 0.0 or abs(nrm - r) > 1e-9 * max(1.0, r):
        raise ValueError(f"base point norm {nrm!r} is not on the sphere of radius {r!r}")

    dirs = _tangent_bases(pt[None, :], r, map_.field)[0]
    if map_.field == "complex":
        dirs = np.concatenate([dirs, (1j * pt / r)[None, :]], axis=0)
    m_sphere = dirs.shape[0]

    h = LAPLACE_STEP
    c, s = np.cos(h / r), np.sin(h / r)
    plus = c * pt[None, :] + (s * r) * dirs
    minus = c * pt[None, :] - (s * r) * dirs
    vals = evaluate(map_, np.concatenate([plus, minus, pt[None, :]], axis=0))
    f0 = vals[-1]
    lap = (vals[:m_sphere].sum(axis=0) + vals[m_sphere:2 * m_sphere].sum(axis=0)
           - 2.0 * m_sphere * f0) / (h * h)
    expected = -2.0 * (m_sphere + 1) / (r * r) * f0
    return float(np.max(np.abs(lap - expected)))
