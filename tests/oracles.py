"""Independent oracles of the package's kernels, used only by the tests.

Each recomputes a quantity the package computes another way: dense
three-operand einsums over the complex coefficient stack, the analytic
differential, central differences (of the map, its pullback metric and its
sphere Laplacian), sampled points, exact rational and sympy arithmetic,
complex points where the package takes real rows, printf, and json.dumps.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import sympy

from veronese import constants, construct
from veronese.audit import SEPARATION_FLOOR
from veronese.constants import radius_pow4, rational_str
from veronese.geometry import tangent_bases
from veronese.quadmap import QuadMap, chunks, evaluate
from veronese.sampling import generator, quotient_samples, sphere_points

SEPARATION_DELTA = 1e-3  # orbits farther apart than this times r count as separated
# fiber_checks and sampled_diagram_check draw their second and third point sets
# from seed + 1 and 2 strides
PAIR_SEED_STRIDE = 0x9E3779B9

LAPLACE_STEP = 1e-3      # second-difference step; scheme error is O(h^2)


def dense_evaluate(map_, points):
    """conj(z)^T A_k z as one three-operand einsum over the complex stack, kept
    as an oracle for the batched real kernel of evaluate."""
    pts = np.asarray(points, dtype=map_.components.dtype)
    return np.einsum("...i,kij,...j->...k", np.conj(pts), map_.components, pts).real


def per_point_evaluate(map_, points):
    """x^T S_k x with both products batched one point at a time, as
    (1, M) @ (M, M K) and (1, M) @ (M, K): the exact oracle that evaluate, whose
    first product is one 2-D (p, M) @ (M, M K) product per chunk, must match bit
    for bit."""
    m, k = map_.stack.shape[0], map_.component_count
    x = map_.real_rows(np.asarray(points, dtype=map_.components.dtype))[:, None]
    return (x @ (x @ map_.stack).reshape(-1, m, k))[:, 0]


def jacobian(map_: QuadMap, point) -> np.ndarray:
    """Differential at a single point; rows are ambient components.

    Real maps: row k is 2 A_k x, one column per domain coordinate.
    Complex maps: the domain is read as real coordinates
    (x_0..x_n, y_0..y_n) for z = x + iy, giving rows (2 Re A_k z, 2 Im A_k z).
    Exact analytic formulas; nothing is differenced.
    """
    pts = np.asarray(point, dtype=map_.components.dtype)
    if pts.ndim != 1:
        raise ValueError("jacobian expects a single point")
    u = np.einsum("kij,j->ki", map_.components, pts)
    if map_.field == "complex":
        u = np.concatenate([u.real, u.imag], axis=1)
    return 2.0 * u


def fd_jacobian(map_, point, h=1e-5):
    """Central-difference differential, the independent oracle for jacobian()."""
    if map_.field == "real":
        x = np.asarray(point, dtype=float)
        cols = []
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = h
            cols.append((evaluate(map_, x + e) - evaluate(map_, x - e)) / (2 * h))
        return np.stack(cols, axis=1)
    z = np.asarray(point, dtype=complex)
    cols = []
    for unit in [1.0, 1j]:
        for j in range(z.size):
            e = np.zeros_like(z)
            e[j] = unit * h
            cols.append((evaluate(map_, z + e) - evaluate(map_, z - e)) / (2 * h))
    return np.stack(cols, axis=1)


def dense_curvature(map_, points):
    """The dense pipeline of unplanned three-operand einsums over the complex
    stack, kept as an oracle for the planned kernel: (alpha, lambda, anisotropy).
    It projects the accelerations along the domain basis, the term along the
    image point included, and changes frame afterwards with R^-1 on both
    sides, where the kernel builds the orthonormal frame first.  The frame is
    the Householder QR's, with each column of Q and row of R multiplied by the
    sign of R's diagonal: the unique QR with a positive diagonal, which is the
    kernel's Cholesky frame."""
    bases = tangent_bases(map_, points)
    tangent = (2.0 * np.einsum("kij,pi,pbj->pbk", map_.components, np.conj(points), bases)).real
    gram = np.einsum("pbk,pck->pbc", tangent, tangent)
    d = bases.shape[1]
    lam = np.trace(gram, axis1=1, axis2=2) / d
    anis = np.max(np.abs(gram - lam[:, None, None] * np.eye(d)), axis=(1, 2))
    images = dense_evaluate(map_, points)
    q_hat, r_tri = np.linalg.qr(np.swapaxes(tangent, 1, 2))
    signs = np.sign(np.diagonal(r_tri, axis1=1, axis2=2))
    q_hat, r_tri = q_hat * signs[:, None, :], r_tri * signs[:, :, None]
    conj_bases = np.conj(bases)
    q_bil = np.einsum("kij,pai,pbj->pabk", map_.components, conj_bases, bases).real
    gram_dom = np.einsum("pai,pbi->pab", bases, conj_bases).real
    radius = constants.radius(map_.n)
    acc = 2.0 * q_bil - (2.0 / radius**2) * gram_dom[..., None] * images[:, None, None, :]
    radial = np.einsum("pabk,pk->pab", acc, images)
    acc = acc - radial[..., None] * images[:, None, None, :]
    tang = np.einsum("pabk,pkc->pabc", acc, q_hat)
    acc = acc - np.einsum("pabc,pkc->pabk", tang, q_hat)
    r_inv = np.linalg.inv(r_tri)
    alpha = np.einsum("pma,pnb,pmnk->pabk", r_inv, r_inv, acc)
    return alpha, lam, anis


def exact_stack(n, field):
    """The realified level-n stack S_k in sympy: the construction redone with the
    exact coefficients sqrt(a^2) and sqrt(b^2) of constants.step_constants."""
    if field == "real":
        re = [sympy.Matrix([[0, 1], [1, 0]]), sympy.Matrix([[1, 0], [0, -1]])]
        im = [sympy.zeros(2, 2)] * 2
        cross = [(1, 0)]  # (real, imaginary) part of the lower entry of a cross term
    else:
        re = [sympy.Matrix([[0, 1], [1, 0]]), sympy.zeros(2, 2), sympy.Matrix([[1, 0], [0, -1]])]
        im = [sympy.zeros(2, 2), sympy.Matrix([[0, 1], [-1, 0]]), sympy.zeros(2, 2)]
        cross = [(1, 0), (0, -1)]
    for level in range(2, n + 1):
        a_sq, b_sq = constants.step_constants(level)
        inv = 1 / sympy.sqrt(level + 1)
        half = sympy.sqrt(sympy.Rational(a_sq)) * inv / 2
        b = sympy.sqrt(sympy.Rational(b_sq)) * inv
        re, im = ([sympy.diag(mat * inv, 0) for mat in mats] for mats in (re, im))
        for k in range(level):
            for lower_re, lower_im in cross:
                r, i = sympy.zeros(level + 1, level + 1), sympy.zeros(level + 1, level + 1)
                r[level, k] = r[k, level] = lower_re * half
                i[level, k], i[k, level] = lower_im * half, -lower_im * half
                re.append(r)
                im.append(i)
        re.append(sympy.diag(*[b] * level, -level * b))
        im.append(sympy.zeros(level + 1, level + 1))
    if field == "real":
        return re
    return [sympy.Matrix(sympy.BlockMatrix([[r, -i], [i, r]])) for r, i in zip(re, im)]


def exact_canonical_curvature(n, field):
    """lambda, |alpha|^2 and |H|^2 at the canonical point r_n e_0, exact, in sympy.

    The tangent basis is the coordinate axes e_1..e_n, and for a complex map
    also the imaginary axes of z_1..z_n (not e_0 or i z_0): orthonormal, and
    orthogonal to the point and its fiber.  At x = r_n e_0 the image is
    r_n^2 S_k[0, 0] and the tangent images are T_a = 2 r_n S_k[a, 0].  Their Gram
    matrix must be exactly lambda I.  alpha is the normal part of
    2 B'_a S_k B'_b for B' = B / sqrt(lambda), against the image point and the
    orthonormal frame T / sqrt(lambda): that is the normal part of 2 S_k[a, b]
    divided by lambda, and the frame's projection is T^T T / lambda.
    """
    stack = exact_stack(n, field)
    axes = list(range(1, n + 1))
    if field == "complex":
        axes += list(range(n + 2, 2 * n + 2))
    r_sq = sympy.sqrt(sympy.Rational(constants.radius_pow4(n)))
    dot = lambda u, v: sympy.expand(sum(x * y for x, y in zip(u, v)))
    image = [sympy.expand(r_sq * s[0, 0]) for s in stack]
    tangent = [[sympy.expand(2 * sympy.sqrt(r_sq) * s[a, 0]) for s in stack] for a in axes]
    lam = dot(tangent[0], tangent[0])
    gram = sympy.Matrix(len(axes), len(axes), lambda i, j: dot(tangent[i], tangent[j]))
    assert gram == lam * sympy.eye(len(axes)), gram
    assert dot(image, image) == 1
    alpha_sq, trace = 0, [0] * len(stack)
    for a in axes:
        for b in axes:
            acc = [2 * s[a, b] for s in stack]
            for u, scale in [(image, 1)] + [(t, lam) for t in tangent]:
                c = dot(acc, u) / scale
                acc = [sympy.expand(x - c * y) for x, y in zip(acc, u)]
            acc = [x / lam for x in acc]
            alpha_sq += dot(acc, acc)
            if a == b:
                trace = [x + y for x, y in zip(trace, acc)]
    return lam, sympy.expand(alpha_sq), dot(trace, trace)


def tangent_images(map_, points):
    """Pushforward of the tangent_bases at the points, shape (p, d, K): the real
    rows B of the bases times the point rows' products with the stack, 2 B (x^T S)
    batched over points, the operations of the tangent rows T that
    geometry.second_fundamental_form forms, so that pullback_factor reads its lambda
    and anisotropy bit for bit."""
    bases = map_.real_rows(tangent_bases(map_, points))
    x = map_.real_rows(np.asarray(points, dtype=map_.components.dtype))
    p, _, m = bases.shape
    return 2.0 * (bases @ (x @ map_.stack).reshape(p, m, -1))


def smallest_singular_value(map_, points) -> float:
    """The least singular value of the tangent images over the points, by SVD."""
    images = np.swapaxes(tangent_images(map_, points), 1, 2)
    return float(np.min(np.linalg.svd(images, compute_uv=False)))


def pullback_factor(map_, points):
    """Mean diagonal of the pullback Gram matrix of the tangent images at each
    point, and its worst deviation from that multiple of I, as two (p,) arrays."""
    tangent = tangent_images(map_, points)
    gram = tangent @ tangent.transpose(0, 2, 1)
    lam = np.trace(gram, axis1=1, axis2=2) / gram.shape[1]
    return lam, np.max(np.abs(gram - lam[:, None, None] * np.eye(gram.shape[1])), axis=(1, 2))


def fd_pullback(map_, point, basis, h=1e-5):
    """Metric pullback through central-difference directional derivatives."""
    cols = [(evaluate(map_, point + h * v) - evaluate(map_, point - h * v)) / (2 * h)
            for v in basis]
    t = np.stack(cols)
    gram = t @ t.T
    return float(np.trace(gram)) / basis.shape[0]


def laplace_residual(map_: QuadMap, base_point) -> float:
    """Deviation of every component from the degree-2 eigenvalue equation.

    A second-order central difference along unit-speed great circles through
    the base point (one per orthonormal tangent direction, the fiber
    direction included in the complex case) approximates the intrinsic
    sphere Laplacian in exact geodesic normal coordinates; each component f
    must satisfy lap f = -k(k + m - 1)/r^2 f with k = 2 on an m-sphere of
    the level radius r.  Returns the largest componentwise residual.
    """
    dirs = tangent_bases(map_, np.asarray(base_point)[None])[0]
    pt = np.asarray(base_point, dtype=map_.components.dtype)
    r = constants.radius(map_.n)
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


def exact_norm_identity_deviation(map_: QuadMap, points) -> Fraction:
    """Evaluate |map(x)|^2 - |x|^4 / r^4 in exact rational arithmetic.

    Coefficients are reinterpreted as the exact rationals the stored doubles
    denote, so the only residue measured here is coefficient rounding; no
    floating-point evaluation error can enter.  Points must be rational
    (Fraction entries for real maps, (Fraction, Fraction) pairs for complex).
    """
    r4 = radius_pow4(map_.n)
    worst = Fraction(0)
    for pt in points:
        pairs = pt if map_.field == "complex" else [(x, 0) for x in pt]
        zr = [Fraction(a) for a, _ in pairs]
        zi = [Fraction(b) for _, b in pairs]
        sq = sum(a * a + b * b for a, b in zip(zr, zi))
        total = Fraction(0)
        for mat in map_.components:
            val = Fraction(0)
            for i in range(len(zr)):
                for j in range(len(zr)):
                    are = Fraction(float(mat[i, j].real))
                    aim = Fraction(float(mat[i, j].imag))
                    # real part of A_ij conj(z_i) z_j
                    val += are * (zr[i] * zr[j] + zi[i] * zi[j])
                    val += aim * (zi[i] * zr[j] - zr[i] * zi[j])
            total += val * val
        dev = abs(total - sq * sq / r4)
        worst = max(worst, dev)
    return worst


def sampled_norm_identity_residual(map_: QuadMap, sample_count: int, seed: int) -> float:
    """Largest deviation of |map(x)|^2 from |x|^4 / r^4 on random points of norm 2.

    The quartic vanishes everywhere exactly when it vanishes on one sphere
    around the origin; the points are drawn uniformly from the sphere of
    radius 2 (real or complex according to the map), off the domain sphere,
    one block at a time from one generator.  A small residual is a
    probabilistic certificate of the identity that norm_identity_residual
    reads from the coefficients.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    r4 = float(radius_pow4(map_.n))
    m, k, cdim = map_.stack.shape[0], map_.component_count, map_.domain_dim
    rng = generator(seed)
    worst = 0.0
    for part in chunks(sample_count, 8 * (m * k + 3 * k + 6 * m + 8)):
        x = sphere_points(m, part.stop - part.start, rng, radius=2.0)
        pts = x[:, :cdim] + 1j * x[:, cdim:] if map_.field == "complex" else x
        sq = np.einsum("pi,pi->p", np.conj(pts), pts).real
        vals = evaluate(map_, pts)
        lhs = np.einsum("pk,pk->p", vals, vals)
        worst = max(worst, float(np.max(np.abs(lhs - sq * sq / r4))))
    return worst


def exact_quartic_residual(map_: QuadMap) -> Fraction:
    """The square of r^4 times the Frobenius norm of the symmetrized quartic
    tensor sum_k S_k (x) S_k - I (x) I / r^4, in exact rational arithmetic:
    compare it squared, or take one final float of it.

    S_k is the realified form of A_k, built here from the exact rationals the
    stored doubles denote, so the only residue measured is coefficient
    rounding.  The symmetrization averages the full tensor over all 24
    orderings of its four indices, not the three pairings the package uses;
    the squared norm sums, over the sorted index combinations, the number of
    distinct orderings of each times the square of its symmetrized entry.
    """
    r4 = radius_pow4(map_.n)
    n1 = map_.domain_dim
    mats = []
    for mat in map_.components:
        re = [[Fraction(float(mat[i, j].real)) for j in range(n1)] for i in range(n1)]
        if map_.field == "real":
            mats.append(re)
            continue
        im = [[Fraction(float(mat[i, j].imag)) for j in range(n1)] for i in range(n1)]
        mats.append([re[i] + [-v for v in im[i]] for i in range(n1)]
                    + [im[i] + re[i] for i in range(n1)])
    m = len(mats[0])
    tensor = {}
    for idx in itertools.product(range(m), repeat=4):
        i, j, l, q = idx
        val = sum(s[i][j] * s[l][q] for s in mats)
        if i == j and l == q:
            val -= 1 / r4
        tensor[idx] = val
    norm_sq = Fraction(0)
    for idx in itertools.combinations_with_replacement(range(m), 4):
        perms = set(itertools.permutations(idx))
        entry = sum(tensor[p] for p in perms) / len(perms)
        norm_sq += len(perms) * entry * entry
    return r4 * r4 * norm_sq


def reference_sphere_points(dim, count, seed, radius=1.0):
    """Normalized Gaussian rows through np.linalg.norm and a fresh array: the
    oracle that sphere_points, which reduces and divides in place, must match
    bit for bit."""
    x = generator(seed).standard_normal((count, dim))
    nrm = np.linalg.norm(x, axis=1, keepdims=True)
    nrm[nrm == 0.0] = 1.0
    return radius * x / nrm


def fiber_actions(field: str) -> np.ndarray:
    """The fiber actions that invariance is spot-checked under, as one array:
    -1 (real), or the 16 phases exp(2 pi i j / 17), j = 1..16 (complex)."""
    if field == "real":
        return np.array([-1.0])
    if field == "complex":
        return np.exp(1j * (2.0 * math.pi * np.arange(1, 17) / 17.0))
    raise ValueError(f"field must be 'real' or 'complex', got {field!r}")


def orbit_distance(x: np.ndarray, y: np.ndarray, field_name: str) -> np.ndarray:
    """Distance between fiber orbits, rowwise over two batches of real rows
    (the rows [Re z, Im z] of complex points for the phase quotient).

    Antipodal quotient: min(|x - y|, |x + y|).  Phase quotient: |x - e^{it} y|
    at the nearest phase, t = arg <x, y> with <x, y> = sum x_i conj(y_i).  The
    difference is taken before its norm, so a near pair keeps its relative
    precision, where the closed form sqrt(|x|^2 + |y|^2 - 2 |<x, y>|) cancels.
    """
    if field_name == "real":
        return np.minimum(np.linalg.norm(x - y, axis=1), np.linalg.norm(x + y, axis=1))
    if field_name != "complex":
        raise ValueError(f"field must be 'real' or 'complex', got {field_name!r}")
    c = x.shape[1] // 2
    z, w = x[:, :c] + 1j * x[:, c:], y[:, :c] + 1j * y[:, c:]
    phase = np.exp(1j * np.angle(np.einsum("pi,pi->p", z, np.conj(w))))
    return np.linalg.norm(z - phase[:, None] * w, axis=1)


def fiber_checks(n: int, field_name: str, pair_count: int, seed: int) -> dict:
    """The fiber claims of one level by sampled search, the oracle of the audit's
    coefficient certificate.

    (a) the image is constant along fibers: the largest change of the images of
        min(pair_count, 200) quotient samples under each of fiber_actions;
    (b) orbits separated by more than delta = 1e-3 r stay separated in the
        image: pair_count pairs x, y drawn as real rows from seed + 1 and 2
        strides, each image difference taken as the polarized product
        (x - y)^T S_k (x + y), one block of pairs at a time; a collision is an
        image distance at most SEPARATION_FLOOR.
    """
    if pair_count < 1:
        raise ValueError("pair_count must be at least 1")
    map_ = construct.build(n, field_name)
    r = constants.radius(n)

    inv_points = quotient_samples(n, field_name, min(pair_count, 200), seed)
    base_vals = evaluate(map_, inv_points)
    invariance = 0.0
    for g in fiber_actions(field_name):
        moved = evaluate(map_, g * inv_points)
        invariance = max(invariance, float(np.max(np.abs(moved - base_vals))))

    x_draw = generator(seed + PAIR_SEED_STRIDE)
    y_draw = generator(seed + 2 * PAIR_SEED_STRIDE)
    m, k = map_.stack.shape[0], map_.component_count
    delta = SEPARATION_DELTA * r
    pairs_tested = collisions = 0
    nearest = math.inf
    for part in chunks(pair_count, 8 * (m * k + 4 * k + 6 * m + 8)):
        count = part.stop - part.start
        x = sphere_points(m, count, x_draw, radius=r)
        y = sphere_points(m, count, y_draw, radius=r)
        separated = orbit_distance(x, y, field_name) > delta
        prod = ((x + y) @ map_.stack).reshape(count, m, k)
        diff = ((x - y)[:, None] @ prod)[:, 0]
        # the image distances of the separated pairs; inf marks the others
        sep_dist = np.where(separated, np.linalg.norm(diff, axis=1), math.inf)
        pairs_tested += int(np.count_nonzero(separated))
        collisions += int(np.count_nonzero(sep_dist <= SEPARATION_FLOOR))
        nearest = min(nearest, float(np.min(sep_dist)))

    return {
        "n": n,
        "field": field_name,
        "invariance_residual": invariance,
        "pairs_tested": pairs_tested,
        "orbit_separation": delta,
        "collisions": collisions,
        "min_image_distance": nearest,
    }


# the tolerance of the audit claim that reads each key of sampled_diagram_check
DIAGRAM_TOLERANCES = {"restriction_residual": 1e-13, "zero_residual": 1e-15,
                      "unit_image_residual": 1e-12, "hopf_residual": 1e-14}


def real_restriction_indices(cmap: QuadMap) -> tuple[list[int], list[int]]:
    """(survivors, zero set) of a complex map on real points: the components
    whose real part is exactly zero vanish there, the others survive, in
    stored order."""
    vanishes = np.all(cmap.components.real == 0.0, axis=(1, 2))
    return np.flatnonzero(~vanishes).tolist(), np.flatnonzero(vanishes).tolist()


def sampled_diagram_check(n: int, sample_count: int, seed: int) -> dict:
    """The diagram readings of one level on sampled points, the oracle of the
    audit's coefficient bounds: the keys of audit.diagram_check, and
    unit_image_residual, the reading that the norm-identity certificates
    (quadmap.norm_identity_residual) of both maps bound.

    (a) on real points drawn from seed, the complex map reproduces the real map
        through the survivors of real_restriction_indices, and the zero set
        vanishes;
    (b) at level 1, on complex points drawn from seed + 2 strides, the complex
        map equals the closed-form Hopf map;
    (c) the real points and complex points drawn from seed + 1 stride land on
        the unit sphere.
    """
    cmap = construct.build(n, "complex")
    rmap = construct.build(n, "real")
    survivors, zero_set = real_restriction_indices(cmap)

    x = quotient_samples(n, "real", sample_count, seed)
    vals_c = evaluate(cmap, x.astype(complex))
    vals_r = evaluate(rmap, x)
    restriction_residual = float(np.max(np.abs(vals_c[:, survivors] - vals_r)))
    zero_residual = float(np.max(np.abs(vals_c[:, zero_set]))) if zero_set else 0.0

    z = quotient_samples(n, "complex", sample_count, seed + PAIR_SEED_STRIDE)
    vals_cz = evaluate(cmap, z)
    unit_residual = max(
        float(np.max(np.abs(np.linalg.norm(vals_r, axis=1) - 1.0))),
        float(np.max(np.abs(np.linalg.norm(vals_cz, axis=1) - 1.0))),
    )

    out = {"restriction_residual": restriction_residual, "zero_residual": zero_residual,
           "unit_image_residual": unit_residual}
    if n == 1:
        zu = quotient_samples(1, "complex", sample_count, seed + 2 * PAIR_SEED_STRIDE)
        out["hopf_residual"] = float(
            np.max(np.abs(construct.hopf(zu) - evaluate(cmap, zu)))
        )
    return out


def complex_orbit_distance(z, w):
    """sqrt(|z|^2 + |w|^2 - 2 |<z, w>|) rowwise, by complex einsums over complex
    points: the closed form of orbit_distance's phase branch, which takes real
    rows and the difference at the nearest phase."""
    nz = np.einsum("pi,pi->p", np.conj(z), z).real
    nw = np.einsum("pi,pi->p", np.conj(w), w).real
    cross = np.abs(np.einsum("pi,pi->p", np.conj(z), w))
    return np.sqrt(np.maximum(nz + nw - 2.0 * cross, 0.0))


def dense_fiber_separation(map_, pair_count, x_seed, y_seed):
    """The separation part of fiber_checks, recomputed the long way: all pairs
    drawn at once through quotient_samples (complex points for a complex map),
    orbit distances from complex_orbit_distance, and image distances as the
    difference of two dense_evaluate images.  Returns (pairs_tested,
    collisions, min_image_distance) for pairs farther apart than 1e-3 r."""
    n, field_name = map_.n, map_.field
    x = quotient_samples(n, field_name, pair_count, x_seed)
    y = quotient_samples(n, field_name, pair_count, y_seed)
    if field_name == "complex":
        orbit = complex_orbit_distance(x, y)
    else:
        orbit = np.minimum(np.linalg.norm(x - y, axis=1), np.linalg.norm(x + y, axis=1))
    separated = orbit > SEPARATION_DELTA * constants.radius(n)
    dist = np.linalg.norm(dense_evaluate(map_, x) - dense_evaluate(map_, y), axis=1)[separated]
    nearest = float(np.min(dist)) if dist.size else float("inf")
    return int(np.sum(separated)), int(np.sum(dist <= SEPARATION_FLOOR)), nearest


def per_action_invariance(map_, point_count, seed):
    """The invariance part of fiber_checks one group element at a time: the
    largest change of the image of point_count quotient samples under -1 (real)
    or each phase exp(2 pi i j / 17), j = 1..16 (complex), one evaluate call per
    element."""
    points = quotient_samples(map_.n, map_.field, point_count, seed)
    base = evaluate(map_, points)
    actions = ([-1.0] if map_.field == "real"
               else [np.exp(1j * (2.0 * math.pi * j / 17.0)) for j in range(1, 17)])
    invariance = 0.0
    for g in actions:
        invariance = max(invariance, float(np.max(np.abs(evaluate(map_, g * points) - base))))
    return invariance


def printf_rows(block):
    """Rows of values as CSV text through one "%.17g" template per row, applied
    once to the block's values: the oracle of the cloud export's formatter."""
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return (row * len(block)) % tuple(block.ravel().tolist())


def json_payload(map_: QuadMap) -> dict:
    """The emit document as a dict, one Python float per coefficient, for
    json.dumps(..., indent=2): the oracle of quadmap.to_json."""
    if map_.field == "real":
        comp_list = [[float(v) for v in mat.reshape(-1)] for mat in map_.components]
    else:
        comp_list = [[[float(v.real), float(v.imag)] for v in mat.reshape(-1)]
                     for mat in map_.components]
    return {
        "field": map_.field,
        "n": map_.n,
        "ambient_dim": map_.component_count - 1,
        "radius_pow4": rational_str(radius_pow4(map_.n)),
        "components": comp_list,
    }
