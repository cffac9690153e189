"""Machine-checkable reproductions of the identities, inequalities and scans
behind the maximum theorem: the exact second-derivative balance polynomial,
monotonicity of the H function, the kernel functions K and P with their
ordering, the interval structure of the admissible set, the non-concavity
example, the nonobtuse Hessian facts, and the value bounds.  The exact
identity evaluates corrmat's float expressions on integer polynomials, and the
mpmath refinements evaluate the numpy expressions of P at high precision."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import closedform
from .corrmat import (
    PAIR_NAMES,
    PAIRS,
    CorrelationMatrix4,
    DomainTag,
    _check_count,
    derive,
    quad_term,
    triangle_factor,
    triangle_form,
)
from .geometry import gamma_det, h_func_expanded
from .polynomial import IntPolynomial6


class ObtuseInputError(ValueError):
    """The tetrahedron has an obtuse dihedral angle: the nonobtuse-Hessian
    hypothesis fails, so the check does not apply."""


@dataclass(frozen=True)
class ScanReport:
    name: str
    grid: str
    passed: bool
    worst_margin: float
    worst_location: tuple | None = None
    details: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "grid": self.grid,
            "pass": self.passed,
            "worst_margin": self.worst_margin,
            "worst_location": list(self.worst_location) if self.worst_location else None,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# exact polynomial identity


_VARS = tuple(IntPolynomial6.variable(i) for i in range(6))
_ONE = IntPolynomial6.const(1)


def quad_combination_poly(pair: int) -> IntPolynomial6:
    """The quadratic combination of pair ``pair`` as an exact polynomial in
    the six correlations: ``corrmat.quad_term`` evaluated over the integers."""
    return quad_term(_VARS, pair, _ONE)


def triangle_factor_poly(tri) -> IntPolynomial6:
    """``corrmat.triangle_factor`` of the triangle as an exact polynomial."""
    return triangle_factor([_ONE - v for v in _VARS], tri)


def euler_row_poly(pair: int) -> IntPolynomial6:
    """Denominator-cleared residual of the second-derivative balance row for
    the given base pair; identically zero when the closed forms are
    consistent.

    Row ``pair`` of ``closedform.hessian_of`` without its angle term, summed
    against the complements 1 - corr and multiplied by the row's two triangle
    factors, read from the same index tables."""
    cp = [_ONE - v for v in _VARS]
    tris = closedform._HESS_TRIS
    s, d1, d2, km, lm, kn, ln = closedform._HESS_DIAG[pair]
    t1, t2 = (triangle_form(*(cp[i] for i in tris[d])) for d in (d1, d2))
    total = (quad_combination_poly(km) * (cp[s] + cp[lm] - cp[km]) * t2
             + quad_combination_poly(kn) * (cp[s] + cp[ln] - cp[kn]) * t1)
    for u, v, dfac, ij in closedform._HESS_OFF:
        if pair not in (u, v):
            continue
        other = u + v - pair
        if dfac is None:  # disjoint pairs
            total = total - 2 * (cp[other] * t1 * t2)
        else:
            # the entry divides by one of the row's triangles; clear with the other
            clear = t2 if dfac == d1 else t1
            total = total - 2 * (quad_combination_poly(ij) * cp[other] * clear)
    return total


def _base_row(a, b, c, d, e, f, one):
    """The base-pair residual transcribed term by term from its printed form,
    over any ring whose elements support + - * among themselves and * with
    ints; a..f are the correlations in storage order."""

    def om(x):
        return one - x

    qb = om(b) * om(b) - om(b) * (om(a) + om(c) + om(d) + om(f) - 2 * om(e)) \
        + (a - d) * (c - f)
    qc_ = om(c) * om(c) - om(c) * (om(a) + om(b) + om(e) + om(f) - 2 * om(d)) \
        + (a - e) * (b - f)
    qd = om(d) * om(d) - om(d) * (om(a) + om(b) + om(e) + om(f) - 2 * om(c)) \
        + (a - b) * (e - f)
    qe = om(e) * om(e) - om(e) * (om(a) + om(c) + om(d) + om(f) - 2 * om(b)) \
        + (a - c) * (d - f)
    lin1 = one - a - d + b
    lin2 = one - a - e + c
    d1 = 4 * (om(a) * om(d)) - lin1 * lin1
    d2 = 4 * (om(a) * om(e)) - lin2 * lin2
    return (
        qb * (om(a) + om(d) - om(b)) * d2
        + qc_ * (om(a) + om(e) - om(c)) * d1
        - 2 * (qd * om(b) * d2)
        - 2 * (qe * om(c) * d1)
        - 2 * (qb * om(d) * d2)
        - 2 * (qc_ * om(e) * d1)
        - 2 * (om(f) * (d1 * d2))
    )


def base_row_poly_literal() -> IntPolynomial6:
    """The base-pair residual as an exact polynomial (variables a..f =
    correlations in storage order)."""
    return _base_row(*_VARS, _ONE)


def polynomial_identity() -> ScanReport:
    """Exact expansion of the balance polynomial for all six base pairs."""
    rows = [euler_row_poly(pair) for pair in range(6)]
    details = {"literal_matches_generated": base_row_poly_literal() == rows[0]}
    for name, p in zip(PAIR_NAMES, rows):
        details[f"row_{name}_terms"] = p.num_terms()
    leftover = sum(p.num_terms() for p in rows)
    passed = leftover == 0 and details["literal_matches_generated"]
    return ScanReport(
        name="polynomial_identity",
        grid="exact integer expansion, 6 base pairs",
        passed=passed,
        worst_margin=float(leftover),
        details=details,
    )


def base_row_value_at(vals) -> Fraction:
    """The unexpanded base-pair expression evaluated exactly at rational
    correlations (product form, no polynomial expansion)."""
    return _base_row(*(Fraction(v) for v in vals), Fraction(1))


# ---------------------------------------------------------------------------
# derivative balance, numerically


EULER_REL_TOL = 1e-8  # bound on each row's relative residual


def euler_relation_check(m: CorrelationMatrix4) -> ScanReport:
    """Residual of sum_kl (1-corr_kl) H[pq, kl] = grad_pq / 2 for all six rows."""
    d = derive(m)
    grad = closedform.gradient_of(d)
    hess = closedform.hessian_of(d)
    lhs = hess @ d.lambda_prime
    rhs = 0.5 * grad
    rel = np.abs(lhs - rhs) / np.abs(rhs)
    worst = int(np.argmax(rel))
    return ScanReport(
        name="euler_relation",
        grid="six rows",
        passed=bool(np.max(rel) <= EULER_REL_TOL),
        worst_margin=float(EULER_REL_TOL - np.max(rel)),
        worst_location=(PAIRS[worst][0] + 1, PAIRS[worst][1] + 1),
        details={"max_rel_residual": float(np.max(rel)), "rel_tol": EULER_REL_TOL},
    )


# ---------------------------------------------------------------------------
# kernel functions K and P

_P_NEAR_BAND = 1e-4  # |u - theta| below this: evaluate in extended precision


def _check_ku_domain(u: float, theta: float, allow_theta: bool):
    if not 0 < theta < np.pi:
        raise ValueError("theta must lie in (0, pi)")
    if not 0 <= u < 2 * np.pi - theta:
        raise ValueError("u must lie in [0, 2*pi - theta)")
    if not allow_theta and u == theta:
        raise ValueError("u == theta is outside the domain")


def k_func(u: float, theta: float) -> float:
    """((u-t)^2 sin t + 2 u t (sin t - sin u)) / (t (cos t - cos u))."""
    _check_ku_domain(u, theta, allow_theta=False)
    num = (u - theta) ** 2 * np.sin(theta) + 2 * u * theta * (np.sin(theta) - np.sin(u))
    return float(num / (theta * (np.cos(theta) - np.cos(u))))


def p_limit(theta):
    """Limit of p_func(u, theta) as u -> theta; theta may be an array."""
    t = np.asarray(theta, dtype=float)
    if not np.all((0 < t) & (t < np.pi)):
        raise ValueError("theta must lie in (0, pi)")
    s = np.sin(t)
    out = (t * t - s * s) / (t * s * s)
    return float(out) if t.ndim == 0 else out


def _p_terms(u, theta, cos, sin):
    """P as the quotient of its numerator and denominator, over numpy arrays
    (``np.cos``, ``np.sin``) or mpmath numbers (``mp.cos``, ``mp.sin``)."""
    ct, st = cos(theta), sin(theta)
    cu, su = cos(u), sin(u)
    num = (
        (u * u + theta * theta) * theta * (1 - ct * cu)
        - (u * u - theta * theta) * st * (ct - cu)
        - 2 * u * theta * theta * su * st
    )
    return num / (theta ** 2 * (ct - cu) ** 2)


_HIGH_PRECISION_DPS = 60  # mpmath digits of the refinements


def _high_precision(expr, u: float, theta: float) -> float:
    """``expr(u, theta, cos, sin)``, one of the numpy expressions above,
    evaluated in mpmath at ``_HIGH_PRECISION_DPS`` digits and rounded to a
    float.  mpmath is imported here, its one use, so that importing gaussmax
    does not load it."""
    import mpmath as mp

    with mp.workdps(_HIGH_PRECISION_DPS):
        return float(expr(mp.mpf(u), mp.mpf(theta), mp.cos, mp.sin))


def p_func(u: float, theta: float) -> float:
    """The theta-derivative of k_func; continuous across u = theta with
    value p_limit(theta)."""
    _check_ku_domain(u, theta, allow_theta=True)
    if u == theta:
        return p_limit(theta)
    if abs(u - theta) < _P_NEAR_BAND:
        # near the removable singularity the double-precision form cancels badly
        return _high_precision(_p_terms, u, theta)
    return float(_p_terms(np.asarray(u, dtype=float), theta, np.cos, np.sin))


def _p_inequality_terms(u, theta, cos, sin):
    """Left side of the positivity inequality equivalent to dP/du > 0, over
    numpy arrays or mpmath numbers as ``_p_terms``."""
    ct, st = cos(theta), sin(theta)
    cu, su = cos(u), sin(u)
    dc = ct - cu
    b1 = 2 * u * theta * (1 - ct * cu) - 2 * u * st * dc + su * st * (u * u - 3 * theta * theta)
    b2 = (2 * u * theta ** 2 * st * (su * su + 1 - ct * cu)
          - (u * u + theta * theta) * theta * su * (st * st + 1 - ct * cu))
    return dc * dc * b1 + dc * b2


def _p_inequality_noise_scale(u: np.ndarray, theta) -> np.ndarray:
    """Magnitude of the largest cancelling intermediates; the double-precision
    result is only sign-reliable well above ~1e-16 times this."""
    ct, st = np.cos(theta), np.sin(theta)
    cu, su = np.cos(u), np.sin(u)
    dc = np.abs(ct - cu)
    s1 = (2 * np.abs(u) * theta * np.abs(1 - ct * cu) + 2 * np.abs(u * st) * dc
          + np.abs(su * st) * (u * u + 3 * theta * theta))
    s2 = (2 * np.abs(u) * theta ** 2 * np.abs(st) * (su * su + 1 + np.abs(ct * cu))
          + (u * u + theta * theta) * theta * np.abs(su) * (st * st + 1 + np.abs(ct * cu)))
    return dc * dc * s1 + dc * s2


# ---------------------------------------------------------------------------
# scans


_H_W_MIN, _H_W_MAX = 0.15, 1.3
_H_EDGE_BAND = 1e-3  # fraction of the admissible interval skipped at each end
_H_BISECTIONS = 45  # halvings of each end's coarse bracket
_H_BLOCK = 1 << 19  # grid points per block of pairs; bounds peak memory


@dataclass(frozen=True)
class HMonotonicityGrid:
    """Grid for the H-decrease scan: n_pairs^2 points (w1, w2) in [0.15, 1.3]^2
    with w1*w2 < 1; for each, z sweeps z_steps points strictly inside the
    admissible interval, whose ends a det_samples-point sign scan brackets."""

    n_pairs: int = 50
    z_steps: int = 200
    det_samples: int = 64

    def __post_init__(self):
        _check_count("n_pairs", self.n_pairs, 1)
        _check_count("z_steps", self.z_steps, 2)
        _check_count("det_samples", self.det_samples, 2)

    def describe(self) -> str:
        return (f"{self.n_pairs}x{self.n_pairs} pairs in "
                f"[{_H_W_MIN},{_H_W_MAX}]^2, {self.z_steps} z-steps")


def _interval_of_positive_det(x, y, n: int):
    """Sign scan of det at n points of z in (0, 1/max(x,y)), one row per pair: the z
    grid, and each row's first and last det > 0 index and number of det > 0 runs."""
    zmax = 1.0 / np.maximum(x, y)
    z = np.linspace(zmax * 1e-6, zmax * (1 - 1e-9), n, axis=-1)
    pos = gamma_det(x[:, None], y[:, None], z) > 0
    runs = pos[:, 0] + np.sum(pos[:, 1:] & ~pos[:, :-1], axis=1)
    return z, np.argmax(pos, axis=1), n - 1 - np.argmax(pos[:, ::-1], axis=1), runs


def _det_roots(x: np.ndarray, y: np.ndarray, n: int):
    """Per pair: the sign scan's det > 0 runs, and its first and last det > 0
    z, each bisected toward the det root just outside it."""
    z, first, last, runs = _interval_of_positive_det(x, y, n)
    ends = np.stack([first, last], axis=1)
    inside = np.take_along_axis(z, ends, axis=1)
    outside = np.take_along_axis(z, np.clip(ends + [-1, 1], 0, n - 1), axis=1)
    for _ in range(_H_BISECTIONS):
        mid = 0.5 * (inside + outside)
        pos = gamma_det(x[:, None], y[:, None], mid) > 0
        inside, outside = np.where(pos, mid, inside), np.where(pos, outside, mid)
    return runs, inside[:, 0], inside[:, 1]


def _h_block(x: np.ndarray, y: np.ndarray, grid: HMonotonicityGrid):
    """Per pair: its det > 0 runs, the least decrease of H along its sweep (inf
    without a run), and whether it has several runs or meets det <= 0 on the sweep."""
    runs, z1, z2 = _det_roots(x, y, grid.det_samples)
    hit = runs > 0
    band = _H_EDGE_BAND * (z2[hit] - z1[hit])
    h, det = h_func_expanded(x[hit, None], y[hit, None], np.linspace(
        z1[hit] + band, z2[hit] - band, grid.z_steps, axis=-1))
    margin, flawed = np.full(len(hit), np.inf), runs > 1
    margin[hit] = -np.max(np.diff(h, axis=1), axis=1)  # least decrease between steps
    flawed[hit] |= np.any(det <= 0, axis=1)
    return runs, margin, flawed


def h_monotonicity_scan(grid: HMonotonicityGrid | None = None) -> ScanReport:
    """H(w1, w2, z) must strictly decrease in z throughout the admissible
    interval, for every admissible pair (w1, w2)."""
    grid = grid or HMonotonicityGrid()
    ws = np.linspace(_H_W_MIN, _H_W_MAX, grid.n_pairs)
    w1, w2 = np.repeat(ws, len(ws)), np.tile(ws, len(ws))
    w1, w2 = w1[w1 * w2 < 1], w2[w1 * w2 < 1]
    rows = max(1, _H_BLOCK // max(grid.det_samples, grid.z_steps))
    runs, margin, flawed = (np.concatenate(parts) for parts in zip(
        *(_h_block(w1[i:i + rows], w2[i:i + rows], grid) for i in range(0, len(w1), rows))))
    pairs_scanned = int(np.count_nonzero(runs))
    i = int(np.argmin(margin))
    return ScanReport(
        name="h_monotonicity",
        grid=grid.describe(),
        passed=bool(pairs_scanned and margin[i] > 0 and not flawed.any()),
        worst_margin=float(margin[i]),
        worst_location=(float(w1[i]), float(w2[i])) if pairs_scanned else None,
        details={"pairs_scanned": pairs_scanned, "pairs_not_one_run": int(flawed.sum())},
    )


def u_interval_scan(x: float, y: float, n: int = 10_000) -> ScanReport:
    """The admissible z-set must be empty or a single contiguous interval."""
    if not (x > 0 and y > 0):
        raise ValueError("x and y must be positive")
    if not x * y < 1:
        raise ValueError("product xy must be < 1")
    _check_count("n", n, 2)
    (z,), (first,), (last,), (runs,) = _interval_of_positive_det(np.array([x]), np.array([y]), n)
    z1, z2 = (float(z[first]), float(z[last])) if runs else (None, None)
    return ScanReport(
        name="u_interval",
        grid=f"{n} z samples on (0, {1.0 / max(x, y):.6g})",
        passed=bool(runs <= 1),
        worst_margin=float(1 - runs),
        worst_location=(x, y),
        details={"runs": int(runs), "z1": z1, "z2": z2},
    )


_P_THETA_MIN, _P_THETA_MAX = 0.01, float(np.pi) - 0.01
_P_DIAG_BAND = 1e-3  # half-width of the skipped band around u = theta


@dataclass(frozen=True)
class PInequalityGrid:
    """theta x u grid for the positivity scan, avoiding the removable zeros
    at u = theta (diagonal band) and at the endpoints u = 0, 2*pi - theta."""

    n_theta: int = 500
    n_u: int = 500

    def __post_init__(self):
        _check_count("n_theta", self.n_theta, 1)
        _check_count("n_u", self.n_u, 1)

    def describe(self) -> str:
        return f"{self.n_theta} theta x {self.n_u} u, band {_P_DIAG_BAND}"


def p_inequality_scan(grid: PInequalityGrid | None = None) -> ScanReport:
    """The inequality equivalent to dP/du > 0, for each theta at n_u points
    spaced evenly inside (0, 2*pi - theta), outside the band around u = theta."""
    grid = grid or PInequalityGrid()
    thetas = np.linspace(_P_THETA_MIN, _P_THETA_MAX, grid.n_theta)
    u = np.linspace(0.0, 2 * np.pi - thetas, grid.n_u + 2, axis=-1)[:, 1:-1]
    theta = np.broadcast_to(thetas[:, None], u.shape)
    vals = _p_inequality_terms(u, theta, np.cos, np.sin)
    vals[np.abs(u - theta) < _P_DIAG_BAND] = np.inf  # the band is skipped
    # points below the double-precision noise floor get a high-precision
    # re-evaluation so the sign is meaningful, not roundoff
    unsure = np.abs(vals) < 1e-13 * _p_inequality_noise_scale(u, theta)
    vals[unsure] = [_high_precision(_p_inequality_terms, float(uj), float(tj))
                    for uj, tj in zip(u[unsure], theta[unsure])]
    i = np.unravel_index(np.argmin(vals), vals.shape)
    return ScanReport(
        name="p_inequality",
        grid=grid.describe(),
        passed=bool(vals[i] > 0),
        worst_margin=float(vals[i]),
        worst_location=(float(u[i]), float(theta[i])),
        details={"points_refined": int(np.count_nonzero(unsure))},
    )


def p_ordering_scan(n_theta: int = 20, n_u: int = 25) -> ScanReport:
    """P(u, theta) < P(theta) for u < theta and > for u > theta, n_u points each side."""
    _check_count("n_theta", n_theta, 1)
    _check_count("n_u", n_u, 1)
    thetas = np.linspace(0.1, 3.0, n_theta)
    gap = 0.02 * (2 * np.pi - 2 * thetas)
    u = np.concatenate(np.linspace([thetas * 0.02, thetas + gap],
                                   [thetas * 0.98, 2 * np.pi - thetas - gap], n_u, axis=-1), axis=1)
    theta = thetas[:, None]
    # lim - P below theta, P - lim above it (negation is exact)
    margins = np.sign(u - theta) * (_p_terms(u, theta, np.cos, np.sin) - p_limit(theta))
    i = np.unravel_index(np.argmin(margins), margins.shape)
    return ScanReport(
        name="p_ordering",
        grid=f"{u.size} (u, theta) points",
        passed=bool(margins[i] > 0),
        worst_margin=float(margins[i]),
        worst_location=(float(u[i]), float(thetas[i[0]])),
    )


# ---------------------------------------------------------------------------
# concavity remarks and bounds

NONCONCAVITY_OFFDIAG = (0.93, 0.91, 0.90, 0.75, 0.77, 0.75)
NONCONCAVITY_DIFF = 0.0003994782
NONCONCAVITY_TOL = 1e-9


def nonconcavity_example() -> ScanReport:
    """The averaged matrix has the smaller value: concavity would force the
    opposite, so a positive difference refutes it."""
    m = CorrelationMatrix4(NONCONCAVITY_OFFDIAG)
    mbar = CorrelationMatrix4.equicorrelated(float(np.mean(NONCONCAVITY_OFFDIAG)))
    diff = closedform.f_max(m) - closedform.f_max(mbar)
    err = abs(diff - NONCONCAVITY_DIFF)
    return ScanReport(
        name="nonconcavity_example",
        grid="single matrix pair",
        passed=bool(err <= NONCONCAVITY_TOL and diff > 0),
        worst_margin=float(NONCONCAVITY_TOL - err),
        details={"difference": float(diff), "expected": NONCONCAVITY_DIFF},
    )


def nonobtuse_hessian_check(m: CorrelationMatrix4) -> ScanReport:
    """For a nonobtuse interior matrix: the negated Hessian has positive
    diagonal and positive determinant, and its non-diagonal part annihilates
    the complement vector."""
    d = derive(m)
    # interior dihedral angle = pi - outer angle; nonobtuse means every
    # outer angle is at least pi/2
    if np.any(d.angles < np.pi / 2):
        raise ObtuseInputError("tetrahedron has an obtuse dihedral angle")
    neg = -closedform.hessian_of(d)
    # the rational part: the Hessian with its angle terms set to zero
    psi = -closedform.hessian_of(replace(d, angles=np.zeros(6)))
    v = d.lambda_prime
    kernel_resid = float(np.linalg.norm(psi @ v) / np.linalg.norm(v))
    diag_min = float(np.min(np.diag(neg)))
    det = float(np.linalg.det(neg))
    passed = diag_min > 0 and det > 0 and kernel_resid <= 1e-8
    return ScanReport(
        name="nonobtuse_hessian",
        grid="single matrix",
        passed=bool(passed),
        worst_margin=min(diag_min, det, 1e-8 - kernel_resid),
        details={"diag_min": diag_min, "det": det, "kernel_resid": kernel_resid},
    )


def sample_nonobtuse_interior(rng: np.random.Generator) -> CorrelationMatrix4:
    """Rejection-sample an interior matrix whose tetrahedron is strictly
    nonobtuse (all interior dihedral cosines >= 1e-6), in at most 10,000
    draws."""
    for _ in range(10_000):
        off = -0.25 + rng.uniform(-0.15, 0.15, size=6)
        m = CorrelationMatrix4(tuple(off))
        try:
            d = derive(m)
        except ValueError:  # not positive semidefinite
            continue
        if d.tag is DomainTag.INTERIOR_S and np.all(-np.cos(d.angles) >= 1e-6):
            return m
    raise RuntimeError("failed to sample a nonobtuse interior matrix")


def bounds_check(m: CorrelationMatrix4) -> ScanReport:
    """Value bounds: sum(sqrt(1-corr)) / (4 sqrt pi) <= value <= same / 3."""
    s = float(np.sum(np.sqrt(np.clip(1.0 - m.array(), 0.0, None))))
    lower = s / (4 * np.sqrt(np.pi))
    upper = s / (3 * np.sqrt(np.pi))
    value = closedform.f_max(m)
    margin = min(value - lower, upper - value)
    return ScanReport(
        name="bounds",
        grid="single matrix",
        passed=bool(margin > -1e-12),
        worst_margin=float(margin),
        details={"lower": lower, "value": value, "upper": upper},
    )
