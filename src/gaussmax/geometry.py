"""Tetrahedra of unit vectors: the geometric side of the expected-maximum
problem.  Dihedral angles, the width-transfer function f(x) =
sqrt(1-x^2)/arccos(x) and its inverse, the quadratic form H built from it,
the stationarity relation satisfied by maximizers, and mean width by
spherical quadrature.

f is sin(t)/t at t = arccos(x), so both directions are closed expressions:
f is evaluated directly, and its inverse is cos(t) for the root t of
sin(t) = y t, found by a fixed number of Newton steps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .corrmat import (
    PAIR_INDEX,
    PAIRS,
    CorrelationMatrix4,
    DomainTag,
    _check_count,
    classify,
    derive,
    eigen_factor,
    gram_of_rows,
    json_number,
    unit_rows,
)

# Facets in the fixed order F1..F4 (0-based vertex triples) and the facet
# pairs indexing the six dihedral angles.
FACETS: tuple[tuple[int, int, int], ...] = ((0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3))
FACET_PAIRS: tuple[tuple[int, int], ...] = PAIRS

# Facet pair (i, j) <-> the unique vertex pair shared by both facets.  The
# dihedral angle between facets i and j sits along that shared edge.
EDGE_OF_FACET_PAIR: tuple[int, ...] = tuple(
    PAIR_INDEX[tuple(sorted(set(FACETS[i]) & set(FACETS[j])))]
    for i, j in FACET_PAIRS
)

_UNIT_TOL = 1e-12

# Index arrays for the array passes: the six vertex pairs in storage order
# (also the facet pairs), the facets' vertices by position and the vertex
# opposite each facet (the four indices sum to 6).
_PAIR_I, _PAIR_J = np.array(PAIRS).T
_FACET_VERTICES = np.array(FACETS).T
_OPPOSITE = 6 - _FACET_VERTICES.sum(axis=0)


@dataclass(frozen=True)
class Tetrahedron:
    """Four unit vectors in R^3 (possibly degenerate)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.shape != (4, 3):
            raise ValueError("vertices must be a 4x3 array")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        norms = np.linalg.norm(v, axis=1)
        if np.max(np.abs(norms - 1.0)) > _UNIT_TOL:
            raise ValueError("vertices must be unit vectors")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    @classmethod
    def regular(cls) -> "Tetrahedron":
        v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
        return cls(v / np.sqrt(3.0))

    @classmethod
    def from_json_obj(cls, obj) -> "Tetrahedron":
        if not isinstance(obj, dict) or "vertices" not in obj:
            raise ValueError("expected a JSON object with a 'vertices' field")
        rows = obj["vertices"]
        if not (isinstance(rows, list) and len(rows) == 4
                and all(isinstance(r, list) and len(r) == 3 for r in rows)):
            raise ValueError("field 'vertices' must be a list of 4 lists of 3 numbers")
        return cls(np.array([[json_number(x, f"field 'vertices' entry [{i}][{j}]")
                              for j, x in enumerate(r)] for i, r in enumerate(rows)]))

    def to_json_obj(self) -> dict:
        return {"vertices": [list(row) for row in self.vertices]}


def load_tetrahedron(path: str) -> Tetrahedron:
    with open(path) as fh:
        return Tetrahedron.from_json_obj(json.load(fh))


@dataclass(frozen=True)
class DihedralSet:
    """Outer dihedral angles alpha_ij, facet-pair order (12,13,14,23,24,34)."""

    alpha: np.ndarray


def embed(m: CorrelationMatrix4) -> Tetrahedron:
    """Unit vectors in R^3 whose Gram matrix is m, a boundary matrix: one the
    domain rule tags interior has rank 4 and no such realization.

    Convention: v1 = (0,0,1); v2 in the xz-plane with x >= 0.  The QR of the
    eigen rows puts v1 on the first axis and v2 in the first plane; R's rows
    flipped to a nonnegative diagonal, with axes (z, x, y), give it at any rank.
    """
    tag = classify(m).tag
    if tag is DomainTag.INVALID:
        raise ValueError("not a correlation matrix")
    if tag is DomainTag.INTERIOR_S:
        raise ValueError("matrix has rank 4: no 3-D unit-vector realization")
    rows = eigen_factor(m)
    r = np.linalg.qr(rows[:, 1:].T, mode="r")
    r *= np.where(np.diag(r) < 0, -1.0, 1.0)[:, None]
    verts = unit_rows(r.T[:, [1, 2, 0]])
    gram = verts @ verts.T
    if np.max(np.abs(gram - m.matrix())) > 1e-10:
        raise ValueError("embedding failed to reproduce the Gram matrix")
    return Tetrahedron(verts)


def corr_of(t: Tetrahedron) -> CorrelationMatrix4:
    """Gram matrix of the vertices as a correlation matrix."""
    return gram_of_rows(t.vertices)


def dihedrals(m: CorrelationMatrix4) -> DihedralSet:
    """Outer dihedral angles from the derived matrix quantities alone.

    The angle along edge (k,l) is the record's angle of that pair; it is
    stored under the facet pair sharing that edge.
    """
    d = derive(m)
    if d.tag is DomainTag.DEGENERATE_UNIT_PAIR:
        raise ValueError("dihedrals require all correlations != 1")
    alpha = d.angles[list(EDGE_OF_FACET_PAIR)]
    alpha.flags.writeable = False
    return DihedralSet(alpha)


def _outward_normals(t: Tetrahedron) -> np.ndarray:
    """Unit facet normals pointing away from the opposite vertex."""
    v = t.vertices
    p, q, r = v[_FACET_VERTICES]
    n = np.cross(q - p, r - p)
    norm = np.linalg.norm(n, axis=1)
    side = np.einsum("ij,ij->i", n, v[_OPPOSITE] - p)
    degenerate = norm < 1e-14
    bad = np.flatnonzero(degenerate | (np.abs(side) < 1e-12 * norm))
    if bad.size:
        i = bad[0]
        if degenerate[i]:
            raise ValueError(f"facet {i + 1} is degenerate")
        raise ValueError(f"flat tetrahedron: the vertex opposite facet {i + 1} "
                         "lies on its plane")
    return np.where(side[:, None] > 0, -n, n) / norm[:, None]


def dihedrals_of(t: Tetrahedron) -> DihedralSet:
    """Outer dihedral angles via facet normals (angles between outward
    normals of adjacent facets); independent cross-check of dihedrals()."""
    normals = _outward_normals(t)
    cosines = np.einsum("ij,ij->i", normals[_PAIR_I], normals[_PAIR_J])
    alpha = np.arccos(np.clip(cosines, -1.0, 1.0))
    alpha.flags.writeable = False
    return DihedralSet(alpha)


def stationarity_residual(m: CorrelationMatrix4) -> float:
    """Relative spread of the six products L_i L_j alpha_ij / sin(alpha_ij),
    L_i the distance from the origin to the plane of facet i; zero exactly
    at stationary configurations."""
    t = embed(m)
    normals = _outward_normals(t)
    lengths = np.einsum("ij,ij->i", normals, t.vertices[_FACET_VERTICES[0]])
    if not np.all(lengths > 0):
        raise ValueError("origin is not strictly inside the tetrahedron")
    alpha = dihedrals(m).alpha
    if np.any(alpha > np.pi - 1e-9):
        raise ValueError("flat fold: an outer dihedral angle equals pi")
    # alpha/sin(alpha) -> 1 as alpha -> 0
    ratio = np.where(alpha > 1e-9, alpha / np.sin(np.clip(alpha, 1e-300, None)), 1.0)
    prods = lengths[_PAIR_I] * lengths[_PAIR_J] * ratio
    gamma = float(np.mean(prods))
    return float(np.max(np.abs(prods - gamma)) / gamma)


# ---------------------------------------------------------------------------
# the width-transfer function f and its inverse


def _f_width_arr(x: np.ndarray) -> np.ndarray:
    # (1-x)(1+x) keeps full relative precision at both ends, where 1 - x*x
    # cancels; arccos vanishes only at x = 1, where f = 1
    a = np.arccos(x)
    return np.divide(np.sqrt((1.0 - x) * (1.0 + x)), a, out=np.ones_like(a), where=a > 0)


def _f_inv_arr(y: np.ndarray) -> np.ndarray:
    # f(cos t) = sin(t)/t, so x = cos t with t the root in [0, pi] of the
    # concave phi(t) = sin t - y t.  The start lies between the maximum of
    # phi (t = arccos y) and that root, so plain Newton steps past the root
    # at most once and then fall to it monotonically; five steps reach
    # rounding on all of [0, 1], the sixth is margin.  phi' < 0 right of
    # the maximum; its floor only keeps y = 1, t = 0 at 0 instead of 0/0.
    t = np.maximum(np.sqrt(6.0 * (1.0 - y)), np.pi * (1.0 - y) / (1.0 + y))
    for _ in range(6):
        t = np.clip(t - (np.sin(t) - y * t) / np.minimum(np.cos(t) - y, -1e-300), 0.0, np.pi)
    return np.cos(t)


def f_width(x):
    """sqrt(1-x^2)/arccos(x) on [-1,1], extended by f(1) = 1; increasing."""
    arr = np.asarray(x, dtype=float)
    if not np.all((-1.0 <= arr) & (arr <= 1.0)):
        raise ValueError("argument must lie in [-1, 1]")
    out = _f_width_arr(arr)
    return float(out) if arr.ndim == 0 else out


def f_width_inv(y):
    """Inverse of f_width on [0, 1]."""
    arr = np.asarray(y, dtype=float)
    if not np.all((0.0 <= arr) & (arr <= 1.0)):
        raise ValueError("argument must lie in [0, 1]")
    out = _f_inv_arr(arr)
    return float(out) if arr.ndim == 0 else out


def h_func(x: float, y: float, z: float) -> float:
    """Quadratic form (x,y,z) Gamma^-1 (x,y,z)^T with Gamma_ij the f-inverse
    of the pairwise products (``_gamma_entries``); defined where det > 0."""
    for name, v in (("x", x), ("y", y), ("z", z)):
        if not v > 0:
            raise ValueError(f"{name} must be positive")
    for name, p in (("xy", x * y), ("xz", x * z), ("yz", y * z)):
        if not p < 1:
            raise ValueError(f"product {name} must be < 1")
    s, e, xi, det = _gamma_entries(x, y, z)
    if det <= 0:
        raise ValueError("det(Gamma) <= 0: triple outside the admissible set")
    g = np.array([[1.0, s, e], [s, 1.0, xi], [e, xi, 1.0]])
    v = np.array([x, y, z])
    return float(v @ np.linalg.solve(g, v))


def _gamma_entries(x, y, z):
    """The off-diagonal entries s, e, xi of Gamma (pairs xy, xz, yz) and its
    determinant; vectorized in z.  Each product must lie in [0, 1]."""
    s, e, xi = f_width_inv(x * y), f_width_inv(x * z), f_width_inv(y * z)
    return s, e, xi, 1.0 - s * s - e * e - xi * xi + 2.0 * s * e * xi


def h_func_expanded(x, y, z):
    """Vectorized H through the expanded rational form; z may be an array.

    Returns (H, det) so scans can keep only det > 0 points.
    """
    s, e, xi, det = _gamma_entries(x, y, z)
    num = (
        x * x * (1 - xi * xi) + y * y * (1 - e * e) + z * z * (1 - s * s)
        + 2 * x * y * (e * xi - s) + 2 * x * z * (s * xi - e) + 2 * y * z * (s * e - xi)
    )
    return num / det, det


def gamma_det(x, y, z):
    """det of the 3x3 matrix with unit diagonal and f_width_inv of the
    pairwise products off the diagonal; vectorized in z."""
    return _gamma_entries(x, y, z)[3]


# ---------------------------------------------------------------------------
# mean width


def mean_width(t: Tetrahedron, quad_order: int = 50) -> float:
    """Twice the spherical average of the support function max_i <u, v_i>.

    Gauss-Legendre in the polar cosine (quad_order nodes); along each
    latitude circle the support function max_i(a_i cos(phi) + b_i sin(phi) +
    c_i) is a piecewise sinusoid, integrated exactly arc by arc between the
    crossings of each pair of sinusoids.  All latitudes go in one array pass.
    leggauss is imported here, its one use, so that importing gaussmax does
    not load numpy.polynomial.
    """
    from numpy.polynomial.legendre import leggauss

    _check_count("quad_order", quad_order, 1)
    nodes, weights = leggauss(quad_order)
    v = t.vertices
    sin_t = np.sqrt(1.0 - nodes ** 2)[:, None]
    a, b, c = sin_t * v[:, 0], sin_t * v[:, 1], nodes[:, None] * v[:, 2]
    # pair (i, j) crosses where da cos(phi) + db sin(phi) = dc; a pair that
    # does not cross puts a cut at 0, and the empty arc it makes adds 0
    da, db = a[:, _PAIR_I] - a[:, _PAIR_J], b[:, _PAIR_I] - b[:, _PAIR_J]
    dc = c[:, _PAIR_J] - c[:, _PAIR_I]
    r = np.hypot(da, db)
    hit = (r >= 1e-15) & (np.abs(dc) <= r)
    base = np.arctan2(db, da)
    half = np.arccos(np.clip(dc / np.where(hit, r, 1.0), -1.0, 1.0))
    cuts = np.where(np.tile(hit, 2), np.hstack([base + half, base - half]) % (2 * np.pi), 0.0)
    zero = np.zeros((quad_order, 1))
    edges = np.hstack([zero, np.sort(cuts, axis=1), zero + 2 * np.pi])
    # the active vertex on each arc is the largest sinusoid at its midpoint
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])[:, :, None]
    top = np.argmax(a[:, None] * np.cos(mid) + b[:, None] * np.sin(mid) + c[:, None], axis=2)
    a, b, c = (np.take_along_axis(x, top, axis=1) for x in (a, b, c))
    totals = np.sum(a * np.diff(np.sin(edges)) - b * np.diff(np.cos(edges))
                    + c * np.diff(edges), axis=1)
    return float(weights @ totals) / (2 * np.pi)


# Radial factor linking the spherical average to the Gaussian expectation:
# E||G_3|| for a standard 3-D Gaussian.
GAUSSIAN_RADIAL_FACTOR = float(2.0 * np.sqrt(2.0 / np.pi))
