"""4x4 correlation matrices (the elliptope) and the derived quantities that
feed the closed-form expected-maximum formulas.

A matrix is stored as its six off-diagonal entries in the fixed order
(12, 13, 14, 23, 24, 34); the unit diagonal is implied.  All gradients,
Hessian rows and file formats use the same storage order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

# Storage order of the six vertex pairs (0-based vertex indices).
PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
PAIR_NAMES: tuple[str, ...] = ("12", "13", "14", "23", "24", "34")

# For each stored pair (k, l): the complementary vertices (m, n), m < n.
# The quadratic combination below and every index-substituted formula are
# generated from this one table so that a single unit test pins it down.
PAIR_COMPLEMENT: tuple[tuple[int, int], ...] = tuple(
    tuple(sorted(set(range(4)) - set(p))) for p in PAIRS
)

PAIR_INDEX: dict[tuple[int, int], int] = {}
for _t, (_i, _j) in enumerate(PAIRS):
    PAIR_INDEX[(_i, _j)] = _t
    PAIR_INDEX[(_j, _i)] = _t

EPS_PSD = 1e-10   # absolute tolerance on the smallest eigenvalue
EPS_ONE = 1e-12   # tolerance for detecting an off-diagonal equal to 1

# Clamp tolerance for arccos arguments: excursions beyond it indicate a broken
# derived quantity rather than roundoff.
EPS_CLAMP = 1e-9
# The arccos radical below this size times the squared scale of the simplex
# is treated as the 0/0 = 1 limit (the term then contributes nothing).
EPS_ZERO_OVER_ZERO = 1e-14


class DomainTag(Enum):
    INTERIOR_S = "InteriorS"
    BOUNDARY_S1 = "BoundaryS1"
    DEGENERATE_UNIT_PAIR = "DegenerateUnitPair"
    INVALID = "Invalid"


@dataclass(frozen=True)
class DomainClass:
    tag: DomainTag
    witness: Optional[tuple[int, int]] = None  # 1-based pair with corr == 1


@dataclass(frozen=True)
class CorrelationMatrix4:
    """Symmetric 4x4 unit-diagonal matrix, stored as six off-diagonals."""

    offdiag: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.offdiag)
        if len(vals) != 6:
            raise ValueError(f"need 6 off-diagonal values, got {len(vals)}")
        if not all(np.isfinite(vals)):
            raise ValueError("off-diagonal values must be finite")
        object.__setattr__(self, "offdiag", vals)

    @classmethod
    def identity(cls) -> "CorrelationMatrix4":
        return cls((0.0,) * 6)

    @classmethod
    def equicorrelated(cls, r: float) -> "CorrelationMatrix4":
        return cls((float(r),) * 6)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "CorrelationMatrix4":
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise ValueError("matrix is not symmetric")
        if np.max(np.abs(np.diag(m) - 1.0)) > 1e-12:
            raise ValueError("diagonal must be 1")
        return cls(tuple(m[i, j] for i, j in PAIRS))

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        for t, (i, j) in enumerate(PAIRS):
            m[i, j] = m[j, i] = self.offdiag[t]
        return m

    def array(self) -> np.ndarray:
        return np.asarray(self.offdiag, dtype=float)

    def permuted(self, perm: Sequence[int]) -> "CorrelationMatrix4":
        """Relabel vertices: entry (i, j) of the result is entry (perm[i], perm[j])."""
        if sorted(perm) != [0, 1, 2, 3]:
            raise ValueError("perm must be a permutation of 0..3")
        m = self.matrix()
        return CorrelationMatrix4(tuple(m[perm[i], perm[j]] for i, j in PAIRS))


def classify(m: CorrelationMatrix4) -> DomainClass:
    """Locate m relative to the elliptope: interior, singular boundary with all
    correlations != 1, boundary with some correlation == 1, or not a
    correlation matrix at all."""
    off = m.array()
    if np.max(np.abs(off)) > 1.0 + EPS_PSD:
        return DomainClass(DomainTag.INVALID)
    eigs = np.linalg.eigvalsh(m.matrix())
    if eigs[0] < -EPS_PSD:
        return DomainClass(DomainTag.INVALID)
    for t, v in enumerate(off):
        if v >= 1.0 - EPS_ONE:
            i, j = PAIRS[t]
            return DomainClass(DomainTag.DEGENERATE_UNIT_PAIR, witness=(i + 1, j + 1))
    if eigs[0] > EPS_PSD:
        return DomainClass(DomainTag.INTERIOR_S)
    return DomainClass(DomainTag.BOUNDARY_S1)


def rank(m: CorrelationMatrix4) -> int:
    """Numerical rank: eigenvalues above EPS_PSD times the largest."""
    eigs = np.linalg.eigvalsh(m.matrix())
    return int(np.sum(eigs > EPS_PSD * eigs[-1]))


def complement_cov(m: CorrelationMatrix4, anchor: int) -> np.ndarray:
    """Covariance of (X_l1 - X_k, X_l2 - X_k, X_l3 - X_k) for anchor vertex k
    (0-based), l1 < l2 < l3 the remaining vertices."""
    mat = m.matrix()
    idx = sorted(set(range(4)) - {anchor})
    out = np.empty((3, 3))
    for a, i in enumerate(idx):
        for b, j in enumerate(idx):
            out[a, b] = mat[i, j] - mat[i, anchor] - mat[j, anchor] + 1.0
    return out


def quad_term(x: Sequence, t: int, one=1.0):
    """Quadratic combination of stored pair ``t`` over any ring: ``x`` holds the
    six correlations in storage order, ``one`` is the ring's unit.  The exact
    identity in ``verify`` evaluates this float expression on polynomials."""
    k, l = PAIRS[t]
    mm, nn = PAIR_COMPLEMENT[t]

    def v(i, j):
        return x[PAIR_INDEX[(i, j)]]

    return (
        (one - v(k, l) + v(k, nn) - v(l, nn))
        * (one - v(k, l) + v(k, mm) - v(l, mm))
        - 2 * (one - v(k, l)) * (one - v(l, mm) - v(l, nn) + v(mm, nn))
    )


def quad_combination(m: CorrelationMatrix4) -> np.ndarray:
    """The six quadratic combinations appearing inside the arccos of the
    closed form, in storage order."""
    return np.array([quad_term(m.offdiag, t) for t in range(6)])


def triangle_factor(cp: Sequence, tri: Sequence[int]):
    """2ab + 2ac + 2bc - a^2 - b^2 - c^2 on the complements ``cp`` (1 - corr)
    of the three pairs spanned by the vertex triple ``tri``, over any ring.

    Symmetric in the three edges; equal to four times the corresponding 2x2
    principal minor of the anchored difference covariance.
    """
    i, j, k = tri
    a = cp[PAIR_INDEX[(i, j)]]
    b = cp[PAIR_INDEX[(i, k)]]
    c = cp[PAIR_INDEX[(j, k)]]
    return 2 * a * b + 2 * a * c + 2 * b * c - a * a - b * b - c * c


@dataclass(frozen=True)
class CorrDerived:
    """Derived quantities of a correlation matrix: the single source that the
    closed-form value, gradient and Hessian and the dihedral angles read.

    ``tag`` is the domain class found by the one ``classify`` call in
    ``derive``; ``cosines`` are the six arccos arguments of the closed form.
    a_sq is None when the matrix is singular (the ratio form is undefined).
    """

    lambda_prime: np.ndarray   # six complements 1 - corr, storage order
    lambda_tilde: np.ndarray   # six quadratic combinations, storage order
    sigma2: np.ndarray         # 3x3 difference covariance anchored at vertex 2
    a_tilde: float             # sqrt(2 det sigma2) >= 0
    a_sq: Optional[float]      # a_tilde^2 / (2 det), only when det > 0
    det_lambda: float
    tag: DomainTag             # never INVALID: derive raises instead

    @property
    def cosines(self) -> np.ndarray:
        """The six arccos arguments lambda_tilde / sqrt(lambda_prime a_tilde^2
        + lambda_tilde^2), storage order, with 0/0 read as 1 and clamping to
        [-1, 1] within EPS_CLAMP.  Entry (k, l) is the cosine of the outer
        dihedral angle along edge (k, l) of the embedded tetrahedron.

        Computed on access, so that ``derive`` never raises on a matrix with
        a unit pair, whose arguments the closed form does not use.
        """
        lp, lt = self.lambda_prime, self.lambda_tilde
        rad = np.sqrt(np.maximum(lp * self.a_tilde ** 2 + lt ** 2, 0.0))
        # the radical is homogeneous of degree 2 in lp and vanishes only when
        # a correlation equals 1, so the 0/0 cut-off scales with the simplex
        degenerate = rad <= EPS_ZERO_OVER_ZERO * min(1.0, float(np.max(lp))) ** 2
        arg = np.where(degenerate, 1.0, lt / np.where(degenerate, 1.0, rad))
        if np.any(np.abs(arg) > 1.0 + EPS_CLAMP):
            raise ValueError(f"arccos argument out of range: {arg}")
        return np.clip(arg, -1.0, 1.0)


def derive(m: CorrelationMatrix4) -> CorrDerived:
    tag = classify(m).tag
    if tag is DomainTag.INVALID:
        raise ValueError("not a correlation matrix")
    lp = 1.0 - m.array()
    lt = quad_combination(m)
    s2 = complement_cov(m, anchor=1)
    det_s2 = float(np.linalg.det(s2))
    a_tilde = float(np.sqrt(max(2.0 * det_s2, 0.0)))
    det_lambda = float(np.linalg.det(m.matrix()))
    a_sq = a_tilde ** 2 / (2.0 * det_lambda) if det_lambda > EPS_PSD else None
    lp.flags.writeable = False
    lt.flags.writeable = False
    s2.flags.writeable = False
    return CorrDerived(lp, lt, s2, a_tilde, a_sq, det_lambda, tag)


@dataclass(frozen=True)
class VertexGramian:
    """Covariance of the root-two-scaled differences ((X_li - X_k)/sqrt2) at an
    anchor vertex, plus the off-diagonal entries of its adjugate."""

    a0: float
    b0: float
    c0: float
    r1: float
    r2: float
    r3: float
    rho1: float
    rho2: float
    rho3: float

    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.a0, self.r1, self.r2],
                [self.r1, self.b0, self.r3],
                [self.r2, self.r3, self.c0],
            ]
        )


def vertex_gramian(m: CorrelationMatrix4, anchor: int) -> VertexGramian:
    """Gramian at ``anchor`` (1-based vertex index, matching witness pairs)."""
    if anchor not in (1, 2, 3, 4):
        raise ValueError("anchor must be in 1..4")
    if classify(m).tag is DomainTag.INVALID:
        raise ValueError("not a correlation matrix")
    u = 0.5 * complement_cov(m, anchor - 1)
    a0, b0, c0 = u[0, 0], u[1, 1], u[2, 2]
    r1, r2, r3 = u[0, 1], u[0, 2], u[1, 2]
    return VertexGramian(
        a0, b0, c0, r1, r2, r3,
        rho1=r2 * r3 - c0 * r1,
        rho2=r1 * r3 - b0 * r2,
        rho3=r1 * r2 - a0 * r3,
    )


# ---------------------------------------------------------------------------
# text / JSON formats


def _from_entries(entries) -> CorrelationMatrix4:
    vals = []
    for name, p in zip(PAIR_NAMES, entries):
        try:
            vals.append(float(p))
        except (TypeError, ValueError):
            raise ValueError(f"entry {name}: cannot parse {p!r} as a number") from None
    return CorrelationMatrix4(tuple(vals))


def parse_offdiag_text(text: str) -> CorrelationMatrix4:
    """Parse 'r12,r13,r14,r23,r24,r34' (one line of six decimals)."""
    parts = [p.strip() for p in text.strip().split(",")]
    if len(parts) != 6:
        raise ValueError(f"expected 6 comma-separated values, got {len(parts)}")
    return _from_entries(parts)


def from_json_obj(obj) -> CorrelationMatrix4:
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object with an 'offdiag' field")
    if "offdiag" not in obj:
        # accept optimizer output: {"argmax": {"offdiag": [...]}, ...}
        if isinstance(obj.get("argmax"), dict) and "offdiag" in obj["argmax"]:
            obj = obj["argmax"]
        else:
            raise ValueError("field 'offdiag' missing")
    off = obj["offdiag"]
    if not isinstance(off, list) or len(off) != 6:
        raise ValueError("field 'offdiag' must be a list of 6 numbers")
    return _from_entries(off)


def load_matrix(path: str) -> CorrelationMatrix4:
    """Load a matrix from a file holding either the text format or a JSON
    object with an 'offdiag' field."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json_obj(json.loads(text))
    return parse_offdiag_text(text)


def to_json_obj(m: CorrelationMatrix4) -> dict:
    return {"offdiag": list(m.offdiag)}
