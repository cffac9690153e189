"""Riemannian gradient ascent over the elliptope, certifying numerically that
the value is maximized exactly at the all-(-1/3) matrix.

A 4x4 correlation matrix is the Gram matrix V V^T of four unit vectors, the
rows of V (the Burer-Monteiro factorization); the all-(-1/3) matrix is the
regular tetrahedron.  The ascent moves each row along its sphere and
renormalizes, so every iterate is a correlation matrix by construction and
the singular maximizer is reached without any projection.  It stops where
the Riemannian gradient vanishes and the matrix S = diag(d) - G is positive
semidefinite (G the gradient in the correlations, d_i = <(G V)_i, v_i>); a
saddle that fails the second test is left along a direction orthogonal to
the rows.

Each gradient step is an Armijo backtracking line search whose first trial
is the Barzilai-Borwein step <s, y> / <y, y> (Barzilai & Borwein, IMA J.
Numer. Anal. 1988), s the change in the four rows and y the decrease of the
Riemannian gradient over the previous step, both in ambient coordinates,
clamped to [STEP_MIN, STEP_MAX].  On the first iteration and after an
escape step the first trial is STEP_INIT.  Where <s, y> <= 0 or the ratio
is not finite, as on the way out of a saddle while the gradient grows, it
is twice the last accepted step, clamped alike.  Near the optimum the
curvatures differ by less than a factor of two, so no fixed step matches
all of them and the adaptive one saves about a quarter of the iterations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import closedform
from .corrmat import (PAIRS, CorrelationMatrix4, DomainTag, _SLOTS, _check_count, classify,
                      derive, eigen_factor, eigvalsh, gram_of_rows, unit_rows)
from .verify import ScanReport

STEP_INIT = 4.0   # first trial step on the first iteration and after an escape
STEP_MIN = STEP_INIT / 1024  # bounds of the Barzilai-Borwein first trial: a tiny one
STEP_MAX = STEP_INIT * 1024  # would reach line_search's eta floor after few trials
BACKTRACK = 0.5   # step shrink factor per rejected trial
ARMIJO = 1e-4     # fraction of the predicted increase a step must gain
PROJ_TOL = 1e-11  # project_elliptope stops when no entry moves more than this
PROJ_MAX_ITERS = 1000


@dataclass(frozen=True)
class AscentConfig:
    grad_tol: float = 1e-8      # on the Riemannian gradient norm and on -min eig(S)
    max_iters: int = 10_000

    def __post_init__(self):
        tol = self.grad_tol
        if isinstance(tol, bool) or not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"grad_tol must be a finite number > 0, got {tol!r}")
        _check_count("max_iters", self.max_iters, 1)


@dataclass(frozen=True)
class OptResult:
    argmax: CorrelationMatrix4
    value: float
    iterations: int
    # (value after the step, step size eta, Riemannian gradient norm before it)
    trajectory_summary: tuple[tuple[float, float, float], ...]
    converged: bool
    # both from the last iteration, which ran at argmax when converged
    grad_norm: float = float("nan")   # Riemannian gradient norm
    s_min_eig: float = float("nan")   # smallest eigenvalue of S; nan if not tested


def project_elliptope(sym) -> CorrelationMatrix4:
    """Nearest (Frobenius) correlation matrix to a symmetric 4x4 input, by
    alternating projections between the PSD cone (with Dykstra correction)
    and the unit-diagonal affine set."""
    sym = np.asarray(sym, dtype=float)
    if sym.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not np.all(np.isfinite(sym)):
        raise ValueError("entries must be finite")
    if np.max(np.abs(sym - sym.T)) > 1e-12:
        raise ValueError("matrix must be symmetric")
    x = sym.copy()
    np.fill_diagonal(x, 1.0)
    correction = np.zeros_like(x)
    for _ in range(PROJ_MAX_ITERS):
        adjusted = x - correction
        w, v = np.linalg.eigh(adjusted)
        psd = (v * np.clip(w, 0.0, None)) @ v.T
        correction = psd - adjusted
        x_new = psd.copy()
        np.fill_diagonal(x_new, 1.0)
        residual = float(np.max(np.abs(x_new - x)))
        x = x_new
        if residual < PROJ_TOL:
            return CorrelationMatrix4(tuple(np.clip(x[i, j], -1.0, 1.0) for i, j in PAIRS))
    raise RuntimeError(f"projection did not reach residual {PROJ_TOL} in {PROJ_MAX_ITERS} iterations")


def maximize(start: CorrelationMatrix4, cfg: AscentConfig | None = None) -> OptResult:
    """Backtracking Riemannian gradient ascent on the expected maximum, over
    four unit vectors whose Gram matrix is the correlation matrix."""
    cfg = cfg or AscentConfig()
    tag = classify(start).tag
    if tag in (DomainTag.INVALID, DomainTag.DEGENERATE_UNIT_PAIR):
        raise ValueError("start must have all correlations != 1")
    v = unit_rows(eigen_factor(start))
    m = gram_of_rows(v)
    derived = derive(m)
    value = closedform.value_of(derived)

    def line_search(direction, gain, power, eta):
        """Armijo backtracking from the first trial step eta, where
        gain * eta**power is the predicted increase.  Each trial is derived
        once; a trial with a unit pair scores NaN and is rejected.  Returns
        (rows, matrix, derived, value, eta) or None."""
        while eta > 1e-16:
            cand = unit_rows(v + eta * direction)
            cand_m = gram_of_rows(cand)
            cand_derived = derive(cand_m)
            cand_val = closedform.value_of(cand_derived)
            if cand_val >= value + ARMIJO * gain * eta ** power:
                return cand, cand_m, cand_derived, cand_val, eta
            eta *= BACKTRACK
        return None

    trajectory: list[tuple[float, float, float]] = []
    converged = False
    iterations = 0
    grad_norm = s_min = float("nan")
    secant = None  # (rows, Riemannian gradient) of the last gradient step's start
    for it in range(1, cfg.max_iters + 1):
        # the gradient as a symmetric 4x4 matrix with a zero diagonal
        g = np.array(closedform.gradient_of(derived).tolist() + [0.0])[_SLOTS]
        e = g @ v
        d = np.einsum("ij,ij->i", e, v)
        r = e - d[:, None] * v
        flat = r.ravel()
        grad_norm = math.sqrt(flat.dot(flat))  # np.linalg.norm(r), without its dispatch
        s_min = float("nan")
        eta0 = STEP_INIT
        if secant is not None:
            # the Barzilai-Borwein step <s,y>/<y,y>, s the change in the rows
            # and y the decrease of the Riemannian gradient
            s = (v - secant[0]).ravel()
            y = (secant[1] - r).ravel()
            sy = float(s.dot(y))
            bb = sy / float(y.dot(y)) if sy > 0 else math.nan
            # without positive curvature along s (leaving a saddle, say) the
            # ratio means nothing: try twice the last accepted step instead
            eta0 = min(max(bb if math.isfinite(bb) else 2 * eta, STEP_MIN), STEP_MAX)
        secant = v, r
        step = line_search(r, grad_norm ** 2, 1, eta0) if grad_norm > cfg.grad_tol else None
        if step is None or step[3] <= value:
            # stationary, or the gradient step gains nothing in floating point:
            # test the second-order condition S = diag(d) - G >= 0
            s_eig, s_vec = np.linalg.eigh(np.diag(d) - g)
            s_min = float(s_eig[0])
            if s_min < -cfg.grad_tol:
                # a saddle: with w the right singular vector of V's smallest
                # singular value (orthogonal to every row when V is rank
                # deficient), the step u w^T gains -s_min * eta^2 / 2 to
                # second order, u the eigenvector of s_min
                escape = np.outer(s_vec[:, 0], np.linalg.svd(v)[2][-1])
                step = line_search(escape, -0.5 * s_min, 2, STEP_INIT)
                secant = None
            elif grad_norm <= cfg.grad_tol:
                converged = True
                break
            # else keep the gradient step: the first-order test has not passed
        if step is None:
            break
        v, m, derived, value, eta = step
        iterations = it
        trajectory.append((float(value), float(eta), grad_norm))
    return OptResult(
        argmax=m,
        value=value,
        iterations=iterations,
        trajectory_summary=tuple(trajectory),
        converged=converged,
        grad_norm=grad_norm,
        s_min_eig=s_min,
    )


EQUICORRELATED_OPTIMUM = -1.0 / 3.0
DIST_TOL = 1e-4
CERTIFY_SEED = 20240401
CERTIFY_RIVALS = 100  # random matrices certify scores against the run


def optimal_value() -> float:
    """Closed-form value at the equicorrelated optimum."""
    return closedform.f_max(CorrelationMatrix4.equicorrelated(EQUICORRELATED_OPTIMUM))


def random_psd(rng: np.random.Generator, dim: int = 4) -> CorrelationMatrix4:
    """Gram matrix of four random unit vectors in R^dim, from one draw of
    4 * dim normals."""
    return gram_of_rows(unit_rows(rng.normal(size=(4, dim))))


def random_interior(rng: np.random.Generator, min_eig: float = 0.05) -> CorrelationMatrix4:
    for _ in range(10_000):
        m = random_psd(rng)
        if eigvalsh(m.matrix())[0] > min_eig:
            return m
    raise RuntimeError("failed to sample an interior matrix")


@functools.cache
def _certify_targets() -> tuple[float, float]:
    """``optimal_value()`` and the best ``f_max`` among the ``CERTIFY_RIVALS``
    rivals drawn from ``default_rng(CERTIFY_SEED)``.  Both are constants, so
    they are computed once per process."""
    rng = np.random.default_rng(CERTIFY_SEED)
    return optimal_value(), max(closedform.f_max(random_psd(rng)) for _ in range(CERTIFY_RIVALS))


def certify(res: OptResult) -> ScanReport:
    """Certify a converged run: the value does not beat the equicorrelated
    closed form, the argmax sits at the equicorrelated point, and no random
    correlation matrix does better."""
    if not res.converged:
        raise ValueError("certify requires a converged result")
    target, worst_random = _certify_targets()
    value_ok = res.value <= target + 1e-9
    dist = float(np.max(np.abs(res.argmax.array() - EQUICORRELATED_OPTIMUM)))
    dist_ok = dist <= DIST_TOL
    random_ok = worst_random <= res.value + 1e-9
    return ScanReport(
        name="optimizer_certificate",
        grid=f"{CERTIFY_RIVALS} random matrices, seed {CERTIFY_SEED}",
        passed=bool(value_ok and dist_ok and random_ok),
        worst_margin=float(min(target + 1e-9 - res.value, DIST_TOL - dist,
                               res.value + 1e-9 - worst_random)),
        details={
            "value": res.value,
            "target": target,
            "argmax_max_dev": dist,
            "worst_random_value": worst_random,
            "grad_norm": res.grad_norm,
            "s_min_eig": res.s_min_eig,
            "value_ok": bool(value_ok),
            "dist_ok": bool(dist_ok),
            "random_ok": bool(random_ok),
        },
    )
