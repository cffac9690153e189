"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest
from scipy import integrate

from conftest import F_STAR, make_battery, special_cases

from gaussmax.closedform import (
    COPLANAR_BOUND,
    QuadrantIntegralParams,
    f_max,
    f_max3,
    gradient,
    hessian,
    quadrant_integral,
)
from gaussmax.corrmat import CorrelationMatrix4, derive
from gaussmax.geometry import (
    GAUSSIAN_RADIAL_FACTOR,
    Tetrahedron,
    corr_of,
    mean_width,
)
from gaussmax.montecarlo import estimate_max, estimate_order_stats
from gaussmax.optimize import certify, maximize, random_psd
from gaussmax.verify import (
    euler_row_poly,
    h_monotonicity_scan,
    nonconcavity_example,
    nonobtuse_hessian_check,
    p_inequality_scan,
    p_ordering_scan,
    sample_nonobtuse_interior,
    u_interval_scan,
)

BATTERY = make_battery()
SPECIALS = special_cases()


def report(criterion: int, passed: bool, detail: str):
    print(f"\nACCEPTANCE {criterion:02d} {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_maximum_value():
    value = f_max(CorrelationMatrix4.equicorrelated(-1.0 / 3.0))
    target = 3 * np.sqrt(4.0 / 3.0) * np.arccos(-1.0 / 3.0) / np.sqrt(np.pi**3)
    ok = value == pytest.approx(target, rel=1e-14) and round(value, 5) == 1.18862
    report(1, ok, f"maximum value {value:.10f} (rounds to {round(value, 5)})")


def test_criterion_02_three_variable_and_coplanar_values():
    v3 = f_max3(-0.5, -0.5, -0.5)
    ok3 = round(v3, 6) == 1.036482
    okc = round(COPLANAR_BOUND, 6) == 1.128379
    report(2, ok3 and okc,
           f"3-D maximum {v3:.7f} -> {round(v3, 6)}, coplanar bound "
           f"{COPLANAR_BOUND:.7f} -> {round(COPLANAR_BOUND, 6)}")


def test_criterion_03_nonconcavity_value():
    rep = nonconcavity_example()
    diff = rep.details["difference"]
    ok = rep.passed and abs(diff - 0.0003994782) <= 1e-9 and diff > 0
    report(3, ok, f"non-concavity difference {diff:.10e} vs 0.0003994782")


def test_criterion_04_polynomial_identity_exact():
    t0 = time.time()
    leftovers = [euler_row_poly(pair).num_terms() for pair in range(6)]
    elapsed = time.time() - t0
    ok = all(n == 0 for n in leftovers) and elapsed < 1.0
    report(4, ok, f"all 6 balance rows expand to zero exactly in {elapsed:.3f}s")


def test_criterion_05_closed_form_vs_monte_carlo():
    t0 = time.time()
    worst = 0.0
    for m in BATTERY + SPECIALS:
        est = estimate_max(m, 10_000_000, seed=777)
        err = abs(est.mean - f_max(m))
        if est.std_error > 0:
            worst = max(worst, err / est.std_error)
        else:
            worst = max(worst, 0.0 if err == 0 else np.inf)
    elapsed = time.time() - t0
    ok = worst <= 4.0 and elapsed <= 120.0
    report(5, ok, f"25 matrices x 1e7 samples: worst |closed-MC| = {worst:.2f} SE "
                  f"(<= 4), {elapsed:.0f}s")


def test_criterion_06_gradient_hessian_finite_differences():
    worst_g = worst_h = worst_e = 0.0
    for m in BATTERY:
        off = m.array()
        g = gradient(m)
        fd_g = np.empty(6)
        for t in range(6):
            up, dn = off.copy(), off.copy()
            up[t] += 1e-5
            dn[t] -= 1e-5
            fd_g[t] = (f_max(CorrelationMatrix4(tuple(up)))
                       - f_max(CorrelationMatrix4(tuple(dn)))) / 2e-5
        worst_g = max(worst_g, float(np.max(np.abs(g - fd_g) / np.abs(fd_g))))

        h = hessian(m)
        fd_h = np.empty((6, 6))
        for t in range(6):
            up, dn = off.copy(), off.copy()
            up[t] += 1e-4
            dn[t] -= 1e-4
            fd_h[:, t] = (gradient(CorrelationMatrix4(tuple(up)))
                          - gradient(CorrelationMatrix4(tuple(dn)))) / 2e-4
        worst_h = max(worst_h, float(np.max(np.abs(h - fd_h) / np.maximum(np.abs(fd_h), 1e-12))))

        lp = derive(m).lambda_prime
        resid = np.abs(h @ lp - 0.5 * g) / np.abs(0.5 * g)
        worst_e = max(worst_e, float(np.max(resid)))
    ok = worst_g <= 1e-6 and worst_h <= 1e-5 and worst_e <= 1e-8
    report(6, ok, f"gradient FD rel {worst_g:.2e} (<=1e-6), hessian FD rel "
                  f"{worst_h:.2e} (<=1e-5), balance rel {worst_e:.2e} (<=1e-8)")


def test_criterion_07_optimizer_certification():
    t0 = time.time()
    worst_dist = worst_val = 0.0
    all_converged = True
    last = None
    for start in BATTERY:
        res = maximize(start)
        all_converged &= res.converged
        worst_dist = max(worst_dist, float(np.max(np.abs(res.argmax.array() + 1.0 / 3.0))))
        worst_val = max(worst_val, abs(res.value - F_STAR))
        last = res
    cert = certify(last)
    rng = np.random.default_rng(31415)
    worst_random = max(f_max(random_psd(rng)) for _ in range(100))
    elapsed = time.time() - t0
    ok = (all_converged and worst_dist <= 1e-4 and worst_val <= 1e-6
          and cert.passed and worst_random <= F_STAR + 1e-9 and elapsed <= 30.0)
    report(7, ok, f"20 starts: worst dist {worst_dist:.2e} (<=1e-4), worst value err "
                  f"{worst_val:.2e} (<=1e-6), 100 random <= max ({worst_random:.6f}), "
                  f"{elapsed:.0f}s")


def test_criterion_08_h_monotonicity_and_p_inequality():
    hrep = h_monotonicity_scan()  # default 50x50 pairs x 200 z-steps
    orep = p_ordering_scan(n_theta=10, n_u=25)  # 10*2*25 = 500 grid points
    irep = p_inequality_scan()  # default 500x500, |u-theta| >= 1e-3
    ok = hrep.passed and hrep.worst_margin > 0 and orep.passed and irep.passed \
        and irep.worst_margin > 0
    report(8, ok, f"H decreasing (margin {hrep.worst_margin:.2e} over "
                  f"{hrep.details['pairs_scanned']} pairs), P ordering on 500 points "
                  f"(margin {orep.worst_margin:.2e}), inequality min "
                  f"{irep.worst_margin:.2e} > 0")


def test_criterion_09_admissible_interval_structure():
    rng = np.random.default_rng(999)
    checked = 0
    ok = True
    while checked < 100:
        x, y = rng.uniform(0.05, 1.5, 2)
        if x * y >= 1:
            continue
        rep = u_interval_scan(x, y, n=10_000)
        ok &= rep.passed
        checked += 1
    report(9, ok, f"100 random (x, y): admissible z-set always empty or one interval")


def test_criterion_10_mean_width_equivalence():
    reg = Tetrahedron.regular()
    target = 2 * F_STAR / GAUSSIAN_RADIAL_FACTOR
    w50 = mean_width(reg, quad_order=50)
    w200 = mean_width(reg, quad_order=200)
    rel50 = abs(GAUSSIAN_RADIAL_FACTOR * w50 / 2 - F_STAR) / F_STAR
    rel200 = abs(GAUSSIAN_RADIAL_FACTOR * w200 / 2 - F_STAR) / F_STAR
    rng = np.random.default_rng(2718)
    below = True
    for _ in range(1000):
        v = rng.normal(size=(4, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        t = Tetrahedron(v)
        w = mean_width(t, quad_order=50)
        if w > w50 - 1e-6:
            # equality is only allowed within 1e-6 of regularity
            off = corr_of(t).array()
            below &= bool(np.max(np.abs(off + 1.0 / 3.0)) <= 1e-3)
        else:
            below &= w <= w50
    ok = rel50 <= 1e-4 and rel200 <= 1e-6 and below
    report(10, ok, f"regular width rel err {rel50:.2e} @50 (<=1e-4), "
                   f"{rel200:.2e} @200 (<=1e-6); 1000 random all below")


def test_criterion_11_quadrant_integral_vs_quadrature():
    rng = np.random.default_rng(1618)
    worst = 0.0
    for _ in range(50):
        a1, b1 = rng.uniform(0.3, 3.0, 2)
        c1 = rng.uniform(-0.95, 0.95) * np.sqrt(a1 * b1)
        p = QuadrantIntegralParams(a1, b1, c1, rng.uniform(0.5, 2.0))
        oracle, _ = integrate.dblquad(
            lambda z, y: np.exp(-(p.a1 * y * y + p.b1 * z * z + 2 * p.c1 * y * z)
                                / (2 * p.scale**2)),
            0, np.inf, 0, np.inf, epsabs=1e-12, epsrel=1e-10)
        worst = max(worst, abs(quadrant_integral(p) - oracle) / oracle)
    ok = worst <= 1e-6
    report(11, ok, f"50 random forms: worst closed-form vs quadrature rel {worst:.2e} (<=1e-6)")


def test_criterion_12_bounds_and_order_statistics():
    sqrt_pi = np.sqrt(np.pi)
    bounds_ok = True
    for m in BATTERY + SPECIALS:
        s = float(np.sum(np.sqrt(np.clip(1.0 - m.array(), 0.0, None))))
        v = f_max(m)
        bounds_ok &= (s / (4 * sqrt_pi) - 1e-12 <= v <= s / (3 * sqrt_pi) + 1e-12)
    worst = 0.0
    for m in BATTERY[:10] + SPECIALS:
        os_ = estimate_order_stats(m, 2_000_000, seed=4242)
        s = float(np.sum(np.sqrt(np.clip(1.0 - m.array(), 0.0, None))))
        res3 = abs(os_.e3 - (3 * os_.e1 - s / sqrt_pi))
        res2 = abs(os_.e2 - (-3 * os_.e1 + s / sqrt_pi))
        for res, se in ((res3, os_.se_third_identity), (res2, os_.se_second_identity)):
            if se > 0:
                worst = max(worst, res / se)
            elif res > 0:
                worst = np.inf
    ok = bounds_ok and worst <= 4.0
    report(12, ok, f"value bounds hold on 25 matrices; order-statistic identities "
                   f"worst {worst:.2f} SE (<= 4)")


def test_criterion_13_nonobtuse_hessian():
    rng = np.random.default_rng(5555)
    worst_resid = 0.0
    min_diag = min_det = np.inf
    ok = True
    for _ in range(10):
        m = sample_nonobtuse_interior(rng)
        rep = nonobtuse_hessian_check(m)
        ok &= rep.passed
        worst_resid = max(worst_resid, rep.details["kernel_resid"])
        min_diag = min(min_diag, rep.details["diag_min"])
        min_det = min(min_det, rep.details["det"])
    report(13, ok, f"10 nonobtuse interior: min diag {min_diag:.2e} > 0, min det "
                   f"{min_det:.2e} > 0, worst kernel resid {worst_resid:.2e} (<=1e-8)")
