"""4x4 correlation matrices (the elliptope) and the derived quantities that
feed the closed-form expected-maximum formulas.

A matrix is stored as its six off-diagonal entries in the fixed order
(12, 13, 14, 23, 24, 34); the unit diagonal is implied.  All gradients,
Hessian rows and file formats use the same storage order.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np
from numpy.linalg import LinAlgError

# The gufuncs that np.linalg.eigvalsh (lower triangle) and np.linalg.det run
# on float64 input.  Their numpy wrappers (argument checks, type dispatch, an
# error-state context) cost more than the LAPACK call on a 4x4 matrix.  The
# module is private; tests/test_corrmat.py::TestLinalgBinding checks the
# binding against the public functions.
from numpy.linalg._umath_linalg import det as _det, eigvalsh_lo as _eigvalsh_lo

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

# Storage indices of (k, n), (l, n), (k, m), (l, m), (m, n) for each stored
# pair (k, l) with complement (m, n), read by quad_term: one tuple per pair.
_QUAD_INDEX = tuple(tuple(PAIR_INDEX[p] for p in ((k, n), (l, n), (k, m), (l, m), (m, n)))
                    for (k, l), (m, n) in zip(PAIRS, PAIR_COMPLEMENT))

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


# Module-level aliases: _derive reads these on every call, and a global is
# read faster than an Enum member lookup.
_INVALID = DomainTag.INVALID
_UNIT_PAIR = DomainTag.DEGENERATE_UNIT_PAIR


@dataclass(frozen=True)
class DomainClass:
    tag: DomainTag
    witness: Optional[tuple[int, int]] = None  # 1-based pair with corr == 1


@dataclass(frozen=True)
class CorrelationMatrix4:
    """Symmetric 4x4 unit-diagonal matrix, stored as six off-diagonals."""

    offdiag: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(map(float, self.offdiag))
        if len(vals) != 6:
            raise ValueError(f"need 6 off-diagonal values, got {len(vals)}")
        if not all(map(math.isfinite, vals)):
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
        return _scatter(self.offdiag)

    def array(self) -> np.ndarray:
        return np.asarray(self.offdiag, dtype=float)

    def permuted(self, perm: Sequence[int]) -> "CorrelationMatrix4":
        """Relabel vertices: entry (i, j) of the result is entry (perm[i], perm[j])."""
        if sorted(perm) != [0, 1, 2, 3]:
            raise ValueError("perm must be a permutation of 0..3")
        m = self.matrix()
        return CorrelationMatrix4(tuple(m[perm[i], perm[j]] for i, j in PAIRS))


# The domain rule is a table of tags indexed by 4 * invalid + 2 * unit pair +
# positive definite: invalid wins, then a unit pair, then definiteness.
_RULE = ((DomainTag.BOUNDARY_S1, DomainTag.INTERIOR_S) + (DomainTag.DEGENERATE_UNIT_PAIR,) * 2
         + (DomainTag.INVALID,) * 4)

# A matrix read from its seven slots, the six off-diagonals in storage order
# and then its unit diagonal: entry (i, j) is slot _SLOTS[i, j].
_SLOTS = np.array([[PAIR_INDEX.get((i, j), 6) for j in range(4)] for i in range(4)])
# Flat indices of the stored pairs in a 4x4 matrix, in storage order.
_PAIR_FLAT = tuple(4 * i + j for i, j in PAIRS)


def _scatter(x) -> np.ndarray:
    """The 4x4 matrix of the six off-diagonals ``x`` and a unit diagonal."""
    return np.array([*x, 1.0])[_SLOTS]


def is_unit(r):
    """The unit-pair predicate: a correlation within EPS_ONE of 1.  The domain
    rule, the ``classify`` witness and the unit classes read it."""
    return r >= 1.0 - EPS_ONE


def has_unit_pair(x):
    """Whether the six off-diagonals ``x`` hold a unit pair: the unit bit of
    the domain rule."""
    return is_unit(max(x))


def _unit_classes(m: CorrelationMatrix4) -> list[list[int]]:
    """Union-find over vertices joined by a correlation equal to 1; returns
    the members of each class.  The partition does not depend on the
    labelling."""
    parent = list(range(4))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (i, j), r in zip(PAIRS, m.offdiag):
        if is_unit(r):
            parent[find(i)] = find(j)
    classes: dict[int, list[int]] = {}
    for i in range(4):
        classes.setdefault(find(i), []).append(i)
    return list(classes.values())


def _domain_rule(x) -> DomainTag:
    """The domain rule: the tag of the six off-diagonals ``x``, from the
    smallest eigenvalue of their matrix."""
    lam_min = float(eigvalsh(_scatter(x))[0])
    invalid = max(map(abs, x)) > 1.0 + EPS_PSD or lam_min < -EPS_PSD
    return _RULE[4 * invalid + 2 * has_unit_pair(x) + (lam_min > EPS_PSD)]


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh`` of a float64 n x n matrix, bit for bit: the same
    gufunc, without the wrapper.  A matrix on which LAPACK does not converge
    comes back all NaN; then this raises the wrapper's LinAlgError (numpy may
    also have warned of the invalid value)."""
    w = _eigvalsh_lo(a)
    if w[0] != w[0]:
        raise LinAlgError("Eigenvalues did not converge")
    return w


def classify(m: CorrelationMatrix4) -> DomainClass:
    """Locate m relative to the elliptope: interior, singular boundary with all
    correlations != 1, boundary with some correlation == 1, or not a
    correlation matrix at all.  A unit pair's witness is the first pair in
    storage order whose correlation equals 1."""
    x = m.offdiag
    tag = _domain_rule(x)
    if tag is DomainTag.DEGENERATE_UNIT_PAIR:
        i, j = PAIRS[next(t for t, r in enumerate(x) if is_unit(r))]
        return DomainClass(tag, witness=(i + 1, j + 1))
    return DomainClass(tag)


# For each anchor vertex k: the slots of (i, j), (i, k) and (j, k) for each
# entry (i, j) of the anchored difference covariance, i and j running over
# the other three vertices in increasing order; row by row.
_ANCHOR_SLOTS = tuple(tuple((int(_SLOTS[i, j]), int(_SLOTS[i, k]), int(_SLOTS[j, k]))
                            for i in range(4) if i != k for j in range(4) if j != k)
                      for k in range(4))


def _anchored_cov(slots, anchor: int) -> np.ndarray:
    """The anchored difference covariance at vertex ``anchor`` from a matrix's
    seven slots: entry (i, j) is r_ij - r_i - r_j + 1, r_i the correlation of
    i with the anchor."""
    return np.array([slots[a] - slots[b] - slots[c] + 1.0
                     for a, b, c in _ANCHOR_SLOTS[anchor]]).reshape(3, 3)


def complement_cov(m: CorrelationMatrix4, anchor: int) -> np.ndarray:
    """Covariance of (X_l1 - X_k, X_l2 - X_k, X_l3 - X_k) for anchor vertex k
    (0-based), l1 < l2 < l3 the remaining vertices."""
    return _anchored_cov([*m.offdiag, 1.0], anchor)


def quad_term(x: Sequence, t: int, one=1.0):
    """Quadratic combination of stored pair ``t`` over any ring: ``x`` holds the
    six correlations in storage order, ``one`` is the ring's unit.  The exact
    identity in ``verify`` evaluates this float expression on polynomials."""
    kn, ln, km, lm, mn = _QUAD_INDEX[t]
    return (
        (one - x[t] + x[kn] - x[ln])
        * (one - x[t] + x[km] - x[lm])
        - 2 * (one - x[t]) * (one - x[lm] - x[ln] + x[mn])
    )


def triangle_factor(cp: Sequence, tri: Sequence[int]):
    """2ab + 2ac + 2bc - a^2 - b^2 - c^2 on the complements ``cp`` (1 - corr)
    of the three pairs spanned by the vertex triple ``tri``, over any ring.

    Symmetric in the three edges; equal to four times the corresponding 2x2
    principal minor of the anchored difference covariance.
    """
    i, j, k = tri
    return triangle_form(cp[PAIR_INDEX[(i, j)]], cp[PAIR_INDEX[(i, k)]], cp[PAIR_INDEX[(j, k)]])


def triangle_form(a, b, c):
    """``triangle_factor`` of the complements a, b, c of pairs (i, j), (i, k),
    (j, k), over any ring; the closed-form Hessian divides by it."""
    return 2 * a * b + 2 * a * c + 2 * b * c - a * a - b * b - c * c


def arccos_arguments(lp, lt, a_tilde):
    """The six arccos arguments lambda_tilde / sqrt(lambda_prime a_tilde^2 +
    lambda_tilde^2), storage order, with 0/0 read as 1 and clamping to [-1, 1]
    within EPS_CLAMP.  Entry (k, l) is the cosine of the outer dihedral angle
    along edge (k, l) of the embedded tetrahedron.

    ``lp`` and ``lt`` are one matrix's six complements and quadratic
    combinations as Python floats, and the arguments come back as a list.
    """
    # squares by multiplication: float ** 2 goes through libm pow, which is
    # not always correctly rounded
    at2 = a_tilde * a_tilde
    scale = min(1.0, max(lp))
    # the radical is homogeneous of degree 2 in lp and vanishes only when
    # a correlation equals 1, so the 0/0 cut-off scales with the simplex
    cut = EPS_ZERO_OVER_ZERO * (scale * scale)

    def cosine(p, q):
        rad = math.sqrt(max(p * at2 + q * q, 0.0))
        return 1.0 if rad <= cut else q / rad

    arg = list(map(cosine, lp, lt))
    worst = max(map(abs, arg))
    if worst > 1.0 + EPS_CLAMP:
        raise ValueError(f"arccos argument out of range: {np.array(arg)}")
    if worst > 1.0:  # clamping leaves an argument in [-1, 1] as it is
        arg = [min(max(a, -1.0), 1.0) for a in arg]
    return arg


@dataclass(frozen=True)
class CorrDerived:
    """Derived quantities of a correlation matrix: the single source that the
    closed-form value, gradient and Hessian and the dihedral angles read.

    ``derive`` fills it.  ``tag`` is the domain class found by its one
    classification; ``angles`` are the arccos of the six ``arccos_arguments``
    of the closed form, the outer dihedral angles, and NaN on a matrix with a
    unit pair (whose value the closed form does not give).
    """

    tag: DomainTag             # never INVALID: derive raises instead
    lambda_prime: np.ndarray   # six complements 1 - corr, storage order
    lambda_tilde: np.ndarray   # six quadratic combinations, storage order
    a_tilde: float             # sqrt(2 det) of the difference covariance at vertex 2
    angles: np.ndarray         # six outer dihedral angles, storage order


def _derive(x: tuple[float, ...]) -> CorrDerived:
    """The one derivation pass on one matrix's six off-diagonals, as Python
    floats: one scatter and one eigvalsh for the domain rule, one det for
    a_tilde, the record's formulas on Python floats and one arccos."""
    lpx = [1.0 - v for v in x]
    tag = _domain_rule(x)
    if tag is _INVALID:
        raise ValueError("not a correlation matrix")
    lt = [quad_term(x, t) for t in range(6)]
    a_tilde = math.sqrt(max(2.0 * _det(_anchored_cov([*x, 1.0], 1)), 0.0))
    if tag is _UNIT_PAIR:
        angles = np.full(6, np.nan)
    else:
        angles = np.arccos(arccos_arguments(lpx, lt, a_tilde))
    lp, lt = np.array(lpx), np.array(lt)
    for a in (lp, lt, angles):
        a.flags.writeable = False
    return CorrDerived(tag, lp, lt, np.float64(a_tilde), angles)


# The last matrix ``derive`` was given and its record, read and rebound as
# one tuple.  Holding the matrix keeps its id from being reused.  It starts
# with a placeholder that no caller holds.
_last: tuple = (object(), None)


def derive(m: CorrelationMatrix4) -> CorrDerived:
    """The ``CorrDerived`` record of one matrix; raises ValueError if ``m`` is
    not a correlation matrix.

    The last matrix derived and its record are kept in one slot, keyed on
    the object's identity: called again on that same object, ``derive``
    returns the same record without deriving.  Any other object, even one
    with equal entries, is derived afresh and takes the slot.  A matrix that
    raises leaves the slot as it was.  Sharing the record is sound because
    the matrix is frozen and the record is read-only: a frozen dataclass of
    read-only arrays.  The slot is read and replaced as one tuple, so
    concurrent callers can only miss it, never read another matrix's
    record."""
    global _last
    last, record = _last
    if last is m:
        return record
    record = _derive(m.offdiag)
    _last = (m, record)
    return record


def unit_rows(v: np.ndarray) -> np.ndarray:
    """The rows of v scaled to unit length: the operations of
    ``np.linalg.norm(v, axis=1, keepdims=True)``, without its dispatch."""
    return v / np.sqrt(np.add.reduce(v * v, axis=1, keepdims=True))


def gram_of_rows(v: np.ndarray) -> CorrelationMatrix4:
    """The correlation matrix of the unit rows of v, entries clipped to [-1, 1]."""
    g = (v @ v.T).ravel().tolist()
    return CorrelationMatrix4(tuple(min(max(g[k], -1.0), 1.0) for k in _PAIR_FLAT))


def eigen_factor(m: CorrelationMatrix4) -> np.ndarray:
    """The factor u sqrt(max(w, 0)) of m, w its eigenvalues, ascending, and u
    its eigenvectors."""
    w, u = np.linalg.eigh(m.matrix())
    return u * np.sqrt(np.clip(w, 0.0, None))


# ---------------------------------------------------------------------------
# text / JSON formats


def parse_entries(text: str, names: Sequence[str]) -> list[float]:
    """Parse one comma-separated decimal per entry name; an error names the
    entry it is about."""
    parts = [p.strip() for p in text.strip().split(",")]
    if len(parts) != len(names):
        raise ValueError(f"expected {len(names)} comma-separated values, got {len(parts)}")
    vals = []
    for name, p in zip(names, parts):
        try:
            vals.append(float(p))
        except ValueError:
            raise ValueError(f"entry {name}: cannot parse {p!r} as a number") from None
    return vals


def parse_offdiag_text(text: str) -> CorrelationMatrix4:
    """Parse 'r12,r13,r14,r23,r24,r34' (one line of six decimals)."""
    return CorrelationMatrix4(tuple(parse_entries(text, PAIR_NAMES)))


def json_number(value, field: str) -> float:
    """A finite JSON number as a float.  Booleans and strings are not numbers,
    even where Python's ``float`` would accept them."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"{field}: expected a finite number, got {value!r}")


def _check_count(name: str, value, least: int) -> None:
    """A count must be an integer, not a bool, and at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


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
    return CorrelationMatrix4(tuple(json_number(p, f"entry {name}") for name, p in zip(PAIR_NAMES, off)))


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
