"""Quadratic polynomial maps stored as stacks of coefficient matrices.

A map sends z to the vector of Hermitian forms z* A_k z, one matrix A_k
per ambient coordinate; the values are real.  The field follows from the
coefficient stack: real symmetric matrices give a map of R^{n+1} (where
z* A z is x^T A x), complex Hermitian ones a map of C^{n+1}, in which
pairs of components encode the real and imaginary parts of the complex
cross terms of the construction.

Every product with the map goes through one real kernel: a complex map
acts on rows [Re z, Im z] through S_k = [[Re A_k, -Im A_k], [Im A_k, Re A_k]],
the real symmetric form of Re(conj(z)^T A_k w), and a real map through
S_k = A_k.  The map builds that realified stack once.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Iterator

import numpy as np

from .constants import check_level, radius_pow4, rational_str

HERMITIAN_TOL = 1e-14  # relative; real matrices must be exactly symmetric
# Working memory one batched kernel (evaluate, a curvature chunk, a block of
# audit or cloud samples) may hold at once; each divides it by its own per-point
# footprint.  2 MiB gives evaluate's one 2-D product with the stack per chunk
# 161 (complex n=8) to 18,724 (real n=1) points, and still gives the top-level
# curvature chunks four (complex n=8) to seven (real n=12) points (shorter ones
# spend their time in overhead).
CHUNK_BYTES = 1 << 21


class StructuralError(RuntimeError):
    """A built map violates structure the construction is supposed to guarantee."""


@dataclasses.dataclass(frozen=True)
class QuadMap:
    """Map F^{n+1} -> R^K by K Hermitian forms; F is R for a real stack, C for a complex one."""

    n: int
    components: np.ndarray  # (K, n+1, n+1) float64 or complex128
    # (M, M*K) realified stack, S_k[i, j] at (i, j*K + k); M = n+1 real, 2(n+1) complex
    stack: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_level(self.n)
        comps = np.asarray(self.components)
        comps = np.ascontiguousarray(comps, dtype=complex if np.iscomplexobj(comps) else float)
        if comps.ndim != 3 or comps.shape[1] != comps.shape[2]:
            raise ValueError("components must be a stack of square matrices")
        if comps.shape[1] != self.n + 1:
            raise ValueError(f"matrices must be {self.n + 1}x{self.n + 1} at level {self.n}")
        if not np.all(np.isfinite(comps)):
            raise ValueError("coefficients must be finite")
        adjoint = np.conj(np.swapaxes(comps, 1, 2))
        if np.iscomplexobj(comps):
            # the largest real or imaginary magnitude, at least 1, stays finite for finite
            # coefficients where the largest modulus can overflow
            scale = max(1.0, float(np.max(np.abs(comps.real))), float(np.max(np.abs(comps.imag))))
            if np.max(np.abs(comps - adjoint)) > HERMITIAN_TOL * scale:
                raise ValueError("coefficient matrices must be Hermitian")
        elif not np.array_equal(comps, adjoint):
            raise ValueError("coefficient matrices must be exactly symmetric")
        object.__setattr__(self, "components", comps)
        if np.iscomplexobj(comps):
            comps = np.block([[comps.real, -comps.imag], [comps.imag, comps.real]])
        stack = np.ascontiguousarray(comps.transpose(1, 2, 0)).reshape(comps.shape[1], -1)
        object.__setattr__(self, "stack", stack)

    @property
    def field(self) -> str:
        return "complex" if np.iscomplexobj(self.components) else "real"

    @property
    def component_count(self) -> int:
        return self.components.shape[0]

    @property
    def domain_dim(self) -> int:
        return self.n + 1

    @property
    def quotient_dim(self) -> int:
        """Real dimension d of the projective quotient: n real, 2n complex."""
        return self.n * (self.stack.shape[0] // self.domain_dim)

    def domain_points(self, points) -> np.ndarray:
        """points, with points in the last axis, as an array of the map's dtype."""
        if np.iscomplexobj(points) and self.field == "real":
            raise ValueError("real map expects real coordinates")
        pts = np.asarray(points, dtype=self.components.dtype)
        if pts.ndim == 0 or pts.shape[-1] != self.domain_dim:
            raise ValueError(
                f"point dimension {pts.shape[-1] if pts.ndim else 0} does not match "
                f"domain dimension {self.domain_dim}"
            )
        return pts

    def real_rows(self, points) -> np.ndarray:
        """Points of the domain as rows of the real stack: [Re z, Im z] for a complex map."""
        if self.field == "complex":
            return np.concatenate([points.real, points.imag], axis=-1)
        return points


def chunks(count: int, point_bytes: int) -> Iterator[slice]:
    """Slices covering range(count) in order, each holding at most CHUNK_BYTES of
    a kernel whose working memory is point_bytes per point (one point at least);
    made one at a time, so that no list of them grows with count."""
    step = max(1, CHUNK_BYTES // point_bytes)
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def evaluate_point_bytes(map_: QuadMap) -> int:
    """Working memory per point of an evaluate chunk: the row's product with the
    stack, M K doubles; the (1, K) result and the output row, 2 K; the
    realified row, M (a view for a real map, counted all the same); and four
    doubles toward the call's fixed overhead."""
    m, k = map_.stack.shape[0], map_.component_count
    return 8 * (m * k + 2 * k + m + 4)


def evaluate(map_: QuadMap, point) -> np.ndarray:
    """Evaluate the map; accepts a single point or a batch with points in the last axis.

    Each image is x^T S_k x for the point's real row x, taken as x . (x^T S):
    one 2-D (p, M) @ (M, M K) product per chunk, then one (1, M) @ (M, K)
    product per point.  Each entry of either is one length-M dot product of a
    row with a column, so no value depends on its batch.
    """
    pts = map_.domain_points(point)
    flat = pts.reshape(-1, map_.domain_dim)
    m, k = map_.stack.shape[0], map_.component_count
    out = np.empty((len(flat), k))
    for part in chunks(len(flat), evaluate_point_bytes(map_)):
        x = map_.real_rows(flat[part])
        out[part] = (x[:, None] @ (x @ map_.stack).reshape(-1, m, k))[:, 0]
    return out.reshape(pts.shape[:-1] + (k,))


def harmonicity_traces(map_: QuadMap) -> np.ndarray:
    """Trace of every coefficient matrix; all zero iff all components are harmonic."""
    return np.trace(map_.components, axis1=1, axis2=2).real


def norm_identity_residual(map_: QuadMap) -> float:
    """Frobenius norm of the symmetrized quartic |map(x)|^2 - |x|^4 / r^4, times r^4.

    With x the real row of a point, the quartic is sum G[i,j,l,m] x_i x_j x_l x_m
    for G = sum_k S_k (x) S_k - I (x) I / r^4, formed by one (M^2, K) @ (K, M^2)
    product with the stack.  It equals (x (x) x)^T sym G (x (x) x) for the full
    symmetrization of G; G is symmetric within and between its two index pairs,
    so that is the mean of its three pairings.  By Cauchy-Schwarz the returned
    number bounds ||map(x)|^2 - 1|, and with it ||map(x)| - 1|, on the whole
    level sphere |x| = r; a zero certifies the identity on every point of the
    domain.
    """
    m = map_.stack.shape[0]
    r4 = float(radius_pow4(map_.n))
    flat = map_.stack.reshape(m * m, -1)
    gram = (flat @ flat.T - np.outer(np.eye(m), np.eye(m)) / r4).reshape(m, m, m, m)
    sym = (gram + gram.transpose(0, 2, 1, 3) + gram.transpose(0, 3, 2, 1)) / 3.0
    return r4 * float(np.linalg.norm(sym))


def to_json(map_: QuadMap) -> str:
    """json.dumps(..., indent=2) of the map's payload, built directly: matrices
    flattened row-major, complex entries as [re, im] pairs, every coefficient
    through one %r template, which writes a finite float as json does (QuadMap
    holds finite coefficients only)."""
    comps = map_.components.reshape(map_.component_count, -1)
    item, values = "%r", comps
    if map_.field == "complex":
        item, values = "[\n        %r,\n        %r\n      ]", np.stack([comps.real, comps.imag], -1)
    matrix = "    [\n" + ",\n".join(["      " + item] * comps.shape[1]) + "\n    ]"
    body = ",\n".join([matrix] * len(comps)) % tuple(values.ravel().tolist())
    head = {"field": map_.field, "n": map_.n, "ambient_dim": map_.component_count - 1,
            "radius_pow4": rational_str(radius_pow4(map_.n))}
    # the scalar fields' document, up to its closing "\n}"
    return json.dumps(head, indent=2)[:-2] + ',\n  "components": [\n' + body + "\n  ]\n}"
