"""Closed-form expected maximum of a 4-D centered unit-variance Gaussian
vector, with exact first and second derivatives in the six correlations.

Everything is evaluated from one ``corrmat.CorrDerived`` record: its
``tag`` picks the branch and its ``angles``, the arccos taken once by
``derive``, are the outer dihedral angles.  ``value_of``, ``gradient_of``
and ``hessian_of`` are the formulas on that record, so a caller that
already holds it (the ascent, the checks in ``verify``) derives once; ``hessian_of`` on a record with zero angles is the Hessian's rational
part.  ``f_max``, ``gradient`` and ``hessian`` call them on ``derive(m)``,
which keeps the last matrix's record: calling them, and
``geometry.dihedrals``, in a row on one matrix object derives it once.
``f_max`` of a matrix with a unit pair only classifies it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .corrmat import (
    EPS_PSD,
    PAIR_COMPLEMENT,
    PAIR_INDEX,
    PAIRS,
    CorrDerived,
    CorrelationMatrix4,
    DomainTag,
    _unit_classes,
    classify,
    derive,
    eigvalsh,
    has_unit_pair,
    triangle_form,
)

SQRT_PI = math.sqrt(math.pi)
SQRT_PI3 = float(np.sqrt(np.pi ** 3))
_PI3 = np.pi ** 3

# Upper bound for the value on coplanar configurations, 4*pi / (2*sqrt(pi^3)).
COPLANAR_BOUND = float(4 * np.pi / (2 * SQRT_PI3))


def _f_max3_value(r) -> float:
    """``f_max3`` without its input checks, for correlations taken from a
    matrix that ``derive`` has already classified.  Python floats, summed
    from the first to the last, as numpy sums three numbers."""
    total = 0.0
    for v in r:
        total += math.sqrt(max(1.0 - v, 0.0))
    return total / (2 * SQRT_PI)


def f_max3(r12: float, r13: float, r23: float) -> float:
    """Expected maximum of a 3-D centered unit-variance Gaussian vector."""
    if not np.all(np.isfinite((r12, r13, r23))):
        raise ValueError("correlations must be finite")
    mat = np.array([[1.0, r12, r13], [r12, 1.0, r23], [r13, r23, 1.0]])
    if eigvalsh(mat)[0] < -EPS_PSD:
        raise ValueError("3x3 correlation matrix is not positive semidefinite")
    return _f_max3_value((r12, r13, r23))


def _f_max_degenerate(m: CorrelationMatrix4) -> float:
    """Value when some correlation equals 1: drop duplicated variables and
    fall back to the 3-, 2- or 1-variable formula.  The members of a class
    may differ slightly (their correlation need only be within EPS_ONE of 1),
    so every choice of one representative per class is scored (correlations
    in sorted order) and the largest value is taken: the result does not
    depend on the labelling."""
    classes = _unit_classes(m)
    if len(classes) >= 4:  # a unit pair always merges two vertices
        raise AssertionError("degenerate dispatch called without a unit pair")

    def r(i, j):
        return m.offdiag[PAIR_INDEX[(i, j)]]

    choices = itertools.product(*classes)
    if len(classes) == 3:
        return max(_f_max3_value(sorted((r(a, b), r(a, c), r(b, c)))) for a, b, c in choices)
    if len(classes) == 2:
        return max(math.sqrt(max(1.0 - r(a, b), 0.0) / math.pi) for a, b in choices)
    return 0.0


def value_of(d: CorrDerived) -> float:
    """The closed-form value of one matrix as a Python float; NaN where the
    matrix has a unit pair.

    The terms are summed on Python floats from the first to the last, the
    order in which numpy sums six numbers."""
    # a loop, not sum(): from Python 3.12 sum() compensates its rounding
    total = 0.0
    for p, a in zip(d.lambda_prime.tolist(), d.angles.tolist()):
        total += math.sqrt(max(p, 0.0)) * a
    return total / (2 * SQRT_PI3)


def gradient_of(d: CorrDerived) -> np.ndarray:
    """``gradient`` from one matrix's derived quantities: -angle /
    (4 sqrt(pi^3 lambda_prime)) per pair, on Python floats."""
    if d.tag is DomainTag.DEGENERATE_UNIT_PAIR:
        raise ValueError("gradient requires all correlations != 1")
    return np.array([-a / (4 * math.sqrt(_PI3 * p))
                     for p, a in zip(d.lambda_prime.tolist(), d.angles.tolist())])


# Index tables of ``hessian_of``, built once.  The four facets i < j < k, each
# as the storage indices of its pairs (i, j), (i, k), (j, k): ``hessian_of``
# evaluates one triangle factor per facet.  Facet f omits vertex 3 - f, and
# an entry names each triangle factor it divides by with that index.
_HESS_TRIS = tuple((PAIR_INDEX[(i, j)], PAIR_INDEX[(i, k)], PAIR_INDEX[(j, k)])
                   for i, j, k in itertools.combinations(range(4), 3))
# Diagonal entry of pair (k, l) with complement (m, n): it divides by the
# facets omitting n and m, and reads (k, m), (l, m), (k, n), (l, n).
_HESS_DIAG = tuple((s, 3 - n, 3 - m, PAIR_INDEX[(k, m)], PAIR_INDEX[(l, m)],
                    PAIR_INDEX[(k, n)], PAIR_INDEX[(l, n)])
                   for s, ((k, l), (m, n)) in enumerate(zip(PAIRS, PAIR_COMPLEMENT)))
# Off-diagonal entries s < t.  Two pairs u, v that share a vertex divide by
# facet 3 - o = sum(u | v) - 3, o = 6 - sum(u | v) the vertex in neither, and
# read the pair u ^ v of their other two vertices; disjoint pairs divide by none.
_HESS_OFF = tuple((s, t, sum(u | v) - 3, PAIR_INDEX[tuple(u ^ v)]) if u & v
                  else (s, t, None, None)
                  for (s, u), (t, v) in itertools.combinations(enumerate(map(set, PAIRS)), 2))


def hessian_of(d: CorrDerived) -> np.ndarray:
    """``hessian`` from one matrix's derived quantities."""
    if d.tag is not DomainTag.INTERIOR_S:
        raise ValueError("hessian requires an interior (positive definite) matrix")
    lp, lt, at = d.lambda_prime.tolist(), d.lambda_tilde.tolist(), float(d.a_tilde)
    angle = d.angles.tolist()
    tf = [triangle_form(lp[a], lp[b], lp[c]) for a, b, c in _HESS_TRIS]
    h = [[0.0] * 6 for _ in range(6)]
    for s, d1, d2, km, lm, kn, ln in _HESS_DIAG:
        bracket = (
            lt[km] * (lp[s] + lp[lm] - lp[km]) / tf[d1]
            + lt[kn] * (lp[s] + lp[ln] - lp[kn]) / tf[d2]
        )
        h[s][s] = (
            -angle[s] / (8 * math.sqrt(_PI3 * lp[s] ** 3))
            + bracket / (4 * SQRT_PI3 * lp[s] * at)
        )
    for s, t, dfac, ij in _HESS_OFF:
        if dfac is None:
            val = -1.0 / (2 * SQRT_PI3 * at)
        else:
            val = -lt[ij] / (2 * SQRT_PI3 * at * tf[dfac])
        h[s][t] = h[t][s] = val
    return np.array(h)


def f_max(m: CorrelationMatrix4) -> float:
    """Expected maximum of the 4 coordinates, exact closed form.  A matrix
    with a unit pair needs only its domain class, not the derivation."""
    if has_unit_pair(m.offdiag):
        if classify(m).tag is DomainTag.INVALID:
            raise ValueError("not a correlation matrix")
        return _f_max_degenerate(m)
    return value_of(derive(m))


def gradient(m: CorrelationMatrix4) -> np.ndarray:
    """The six partial derivatives of f_max, storage order; all negative."""
    return gradient_of(derive(m))


def hessian(m: CorrelationMatrix4) -> np.ndarray:
    """Symmetric 6x6 matrix of second partials of f_max (interior only)."""
    return hessian_of(derive(m))


@dataclass(frozen=True)
class QuadrantIntegralParams:
    """Positive-definite 2x2 quadratic form (a1, c1; c1, b1) and a scale."""

    a1: float
    b1: float
    c1: float
    scale: float

    def __post_init__(self):
        if not (self.a1 > 0 and self.b1 > 0):
            raise ValueError("diagonal entries must be positive")
        if self.a1 * self.b1 - self.c1 ** 2 <= 0:
            raise ValueError("form must be positive definite")
        if not self.scale > 0:
            raise ValueError("scale must be positive")


def quadrant_integral(p: QuadrantIntegralParams) -> float:
    """Integral over the positive quadrant of
    exp(-(a1 y^2 + b1 z^2 + 2 c1 y z) / (2 scale^2))."""
    disc = p.a1 * p.b1 - p.c1 ** 2
    return float(p.scale ** 2 / np.sqrt(disc) * np.arccos(p.c1 / np.sqrt(p.a1 * p.b1)))
