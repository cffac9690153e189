import os
import re
import subprocess
import sys

import numpy as np
import pytest

import mpmath as mp

from gaussmax import geometry, verify
from gaussmax.corrmat import CorrelationMatrix4, DomainTag, classify
from gaussmax.montecarlo import estimate_max
from gaussmax.verify import (
    NONCONCAVITY_OFFDIAG,
    HMonotonicityGrid,
    ObtuseInputError,
    PInequalityGrid,
    _high_precision,
    _p_inequality_noise_scale,
    _p_inequality_terms,
    _p_terms,
    bounds_check,
    euler_relation_check,
    h_monotonicity_scan,
    k_func,
    nonconcavity_example,
    nonobtuse_hessian_check,
    p_func,
    p_inequality_scan,
    p_limit,
    p_ordering_scan,
    polynomial_identity,
    sample_nonobtuse_interior,
    u_interval_scan,
)


class TestEulerRelation:
    def test_identity_matrix(self):
        rep = euler_relation_check(CorrelationMatrix4.identity())
        assert rep.passed
        assert rep.details["max_rel_residual"] <= 1e-10

    def test_random_battery(self, battery20):
        for m in battery20:
            assert euler_relation_check(m).passed

    def test_near_boundary_conditioning(self, battery20):
        # blend toward the singular equicorrelated point until the smallest
        # eigenvalue is ~1e-4; the relation still holds at a relaxed 1e-6
        target = CorrelationMatrix4.equicorrelated(-1.0 / 3.0).array()
        base = battery20[0].array()
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            m = CorrelationMatrix4(tuple((1 - mid) * base + mid * target))
            if np.linalg.eigvalsh(m.matrix())[0] > 1e-4:
                lo = mid
            else:
                hi = mid
        m = CorrelationMatrix4(tuple((1 - lo) * base + lo * target))
        assert np.linalg.eigvalsh(m.matrix())[0] == pytest.approx(1e-4, rel=0.2)
        assert euler_relation_check(m).details["max_rel_residual"] <= 1e-6

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            euler_relation_check(CorrelationMatrix4.equicorrelated(-1.0 / 3.0))


class TestKernelFunctions:
    def test_k_at_zero(self):
        for theta in (0.4, 1.3, 2.9):
            val = k_func(0.0, theta)
            assert val == pytest.approx(theta * np.sin(theta) / (np.cos(theta) - 1), rel=1e-13)
            assert val < 0

    def test_p_limit_at_right_angle(self):
        assert p_limit(np.pi / 2) == pytest.approx((np.pi**2 - 4) / (2 * np.pi), rel=1e-15)

    def test_p_equals_dk_dtheta(self):
        for u, theta in ((2.0, 1.0), (0.5, 1.2), (4.0, 2.0), (0.1, 2.5)):
            h = 1e-6
            fd = (k_func(u, theta + h) - k_func(u, theta - h)) / (2 * h)
            assert p_func(u, theta) == pytest.approx(fd, rel=1e-6)

    def test_p_ordering_examples(self):
        assert p_func(2.0, 1.0) > p_limit(1.0)
        assert p_func(0.3, 1.0) < p_limit(1.0)

    def test_p_continuous_at_the_diagonal(self):
        # relative tolerance: the limit value grows unboundedly as theta -> pi,
        # so an absolute 1e-4 band cannot hold near the top of the range
        for theta in np.linspace(0.1, 3.0, 15):
            lim = p_limit(theta)
            for du in (1e-6, -1e-6):
                assert abs(p_func(theta + du, theta) - lim) <= 1e-4 * max(1.0, abs(lim))

    def test_p_limit_on_an_array_equals_the_scalar_calls(self):
        thetas = np.linspace(0.01, np.pi - 0.01, 37).reshape(37, 1)
        arr = p_limit(thetas)
        assert arr.shape == thetas.shape
        assert arr.ravel().tolist() == [p_limit(float(t)) for t in thetas.ravel()]

    @pytest.mark.parametrize("bad", [0.0, np.pi, -1.0])
    def test_p_limit_rejects_an_array_with_one_bad_entry(self, bad):
        with pytest.raises(ValueError, match="theta must lie in"):
            p_limit(np.array([1.0, bad, 2.0]))

    def test_p_at_diagonal_returns_limit(self):
        assert p_func(1.3, 1.3) == p_limit(1.3)

    def test_near_diagonal_branch_is_cancellation_safe(self):
        # 60-digit evaluation as the oracle for the |u - theta| < 1e-4 branch
        theta, u = 2.5, 2.5 + 3e-5
        with mp.workdps(60):
            um, tm = mp.mpf(u), mp.mpf(theta)
            num = ((um**2 + tm**2) * tm * (1 - mp.cos(tm) * mp.cos(um))
                   - (um**2 - tm**2) * mp.sin(tm) * (mp.cos(tm) - mp.cos(um))
                   - 2 * um * tm**2 * mp.sin(um) * mp.sin(tm))
            oracle = float(num / (tm**2 * (mp.cos(tm) - mp.cos(um)) ** 2))
        assert p_func(u, theta) == pytest.approx(oracle, rel=1e-12)

    def test_mpmath_is_imported_on_first_use(self):
        # importing gaussmax does not load mpmath; the near-diagonal branch
        # loads it and gives the value recorded when mpmath was imported with
        # verify.  Nor does it load numpy.polynomial or concurrent.futures,
        # which mean_width and the Monte-Carlo calls load and then give the
        # values they give here.
        src = os.path.dirname(os.path.dirname(verify.__file__))
        code = ("import sys\n"
                "import gaussmax, gaussmax.cli\n"
                "from gaussmax import geometry, verify\n"
                "from gaussmax.corrmat import CorrelationMatrix4\n"
                "from gaussmax.montecarlo import estimate_max\n"
                "lazy = ('mpmath', 'numpy.polynomial', 'concurrent.futures')\n"
                "print([name in sys.modules for name in lazy])\n"
                "print(repr(verify.p_func(1.0 + 1e-5, 1.0)), 'mpmath' in sys.modules)\n"
                "print(repr(geometry.mean_width(geometry.Tetrahedron.regular(), 50)),"
                " 'numpy.polynomial' in sys.modules)\n"
                "print(repr(estimate_max(CorrelationMatrix4.identity(), 20_000, 0)),"
                " 'concurrent.futures' in sys.modules)\n")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        width = geometry.mean_width(geometry.Tetrahedron.regular(), 50)
        est = estimate_max(CorrelationMatrix4.identity(), 20_000, 0)
        assert proc.stdout.splitlines() == ["[False, False, False]", "0.412284403038525 True",
                                            f"{width!r} True", f"{est!r} True"]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            k_func(1.0, 0.0)
        with pytest.raises(ValueError):
            k_func(1.3, 1.3)
        with pytest.raises(ValueError):
            k_func(6.0, 1.0)  # beyond 2*pi - theta
        with pytest.raises(ValueError):
            p_limit(np.pi)

    def test_ordering_scan(self):
        rep = p_ordering_scan(n_theta=10, n_u=10)
        assert rep.passed and rep.worst_margin > 0

    @pytest.mark.parametrize("counts", [(0, 10), (10, 0)])
    def test_ordering_scan_rejects_empty_grid(self, counts):
        with pytest.raises(ValueError, match="must be >= 1"):
            p_ordering_scan(*counts)

    def test_theta_derivative_of_difference_positive(self, rng):
        # p(a, theta) - p(b, theta) > 0 whenever b < theta < a in the domain
        for _ in range(50):
            theta = rng.uniform(0.2, 3.0)
            a = rng.uniform(theta * 1.01, 2 * np.pi - theta)
            b = rng.uniform(0.0, theta * 0.99)
            assert p_func(a, theta) - p_func(b, theta) > 0

    def test_kernel_chain_matches_h_through_angle_change(self, rng):
        # (2/(a^2-b^2)) (K(a, theta) - K(b, theta)) with a = mu+nu, b = |mu-nu|
        # equals H at the triple recovered from the three angles
        from gaussmax.geometry import f_width, h_func

        checked = 0
        while checked < 20:
            theta, nu, mu = rng.uniform(0.3, 2.6, 3)
            lo = abs(mu - nu)
            hi = mu + nu if mu + nu <= np.pi else 2 * np.pi - (mu + nu)
            if not lo + 1e-3 < theta < hi - 1e-3:
                continue
            ft, fn, fm = f_width(np.cos(theta)), f_width(np.cos(nu)), f_width(np.cos(mu))
            x = np.sqrt(ft * fn / fm)
            y = np.sqrt(ft * fm / fn)
            z = np.sqrt(fm * fn / ft)
            a, b = mu + nu, abs(mu - nu)
            if b < 1e-6:
                continue
            chain = 2 * (k_func(a, theta) - k_func(b, theta)) / (a * a - b * b)
            assert chain == pytest.approx(h_func(x, y, z), rel=1e-8)
            checked += 1


class TestHMonotonicity:
    def test_small_grid_all_decreasing(self):
        rep = h_monotonicity_scan(HMonotonicityGrid(n_pairs=10, z_steps=50, det_samples=500))
        assert rep.passed
        assert rep.worst_margin > 0
        assert rep.details["pairs_scanned"] > 0

    def test_scan_of_no_pair_does_not_pass(self):
        # two det samples sit at the ends of (0, 1/max(w1, w2)), where det <= 0
        rep = h_monotonicity_scan(HMonotonicityGrid(n_pairs=2, z_steps=2, det_samples=2))
        assert rep.details["pairs_scanned"] == 0
        assert not rep.passed

    def test_default_grid_finds_one_run_per_pair(self):
        rep = h_monotonicity_scan()
        assert rep.passed
        assert rep.details == {"pairs_scanned": 2175, "pairs_not_one_run": 0}

    def test_bisected_ends_bracket_the_dense_scan(self):
        # each end is a det root to ~2^-45 of a coarse step, so it lies at or
        # outside the dense scan's end sample and within one dense step of it
        from gaussmax.verify import _det_roots

        xs, ys = np.array([0.15, 0.5, 0.6, 0.9714, 1.3]), np.array([0.15, 0.5, 0.7, 0.9714, 0.2])
        runs, z1, z2 = _det_roots(xs, ys, HMonotonicityGrid().det_samples)
        assert np.all(runs == 1)
        for x, y, lo, hi in zip(xs, ys, z1, z2):
            dense = u_interval_scan(x, y, n=10_000).details
            zmax = 1.0 / max(x, y)
            step = (zmax * (1 - 1e-9) - zmax * 1e-6) / (10_000 - 1)
            assert 0 <= dense["z1"] - lo < step
            assert 0 <= hi - dense["z2"] < step

    def test_blocks_do_not_change_the_result(self, monkeypatch):
        import gaussmax.verify as verify

        grid = HMonotonicityGrid(n_pairs=10, z_steps=50)
        whole = h_monotonicity_scan(grid).to_json_obj()
        monkeypatch.setattr(verify, "_H_BLOCK", 100)  # one pair per block
        assert h_monotonicity_scan(grid).to_json_obj() == whole

    def test_det_at_or_below_zero_on_a_sweep_fails_the_pair(self, monkeypatch):
        import gaussmax.verify as verify

        real = verify.h_func_expanded
        monkeypatch.setattr(verify, "h_func_expanded", lambda x, y, z: (real(x, y, z)[0], -z))
        rep = h_monotonicity_scan(HMonotonicityGrid(n_pairs=4, z_steps=10))
        assert rep.details["pairs_not_one_run"] == rep.details["pairs_scanned"] > 0
        assert not rep.passed

    def test_single_pair_sweep_monotone(self):
        from gaussmax.geometry import h_func_expanded
        from gaussmax.verify import _interval_of_positive_det

        (z,), (first,), (last,), (runs,) = _interval_of_positive_det(
            np.array([0.5]), np.array([0.5]), 2000)
        assert runs == 1
        z1, z2 = z[first], z[last]
        z = np.linspace(z1 + 1e-3 * (z2 - z1), z2 - 1e-3 * (z2 - z1), 100)
        h, det = h_func_expanded(0.5, 0.5, z)
        assert np.all(det > 0)
        assert np.all(np.diff(h) < 0)

    def test_h_finite_near_interval_endpoints(self):
        from gaussmax.geometry import h_func
        from gaussmax.verify import _interval_of_positive_det

        (z,), (first,), (last,), _ = _interval_of_positive_det(
            np.array([0.6]), np.array([0.7]), 5000)
        z1, z2 = z[first], z[last]
        width = z2 - z1
        for z in (z1 + 1e-4 * width, z2 - 1e-4 * width):
            val = h_func(0.6, 0.7, z)
            assert np.isfinite(val)


class TestUInterval:
    def test_single_run(self):
        rep = u_interval_scan(0.5, 0.5, n=10_000)
        assert rep.passed
        assert rep.details["runs"] == 1
        assert rep.details["z1"] < rep.details["z2"]

    def test_near_unit_products(self):
        rep = u_interval_scan(0.99, 0.99, n=10_000)
        assert rep.passed
        assert rep.details["runs"] <= 1

    def test_small_x_limit(self):
        rep = u_interval_scan(1e-3, 0.5, n=10_000)
        assert rep.passed
        assert rep.details["runs"] <= 1

    def test_random_pairs(self, rng):
        for _ in range(20):
            x, y = rng.uniform(0.05, 1.4, 2)
            if x * y >= 1:
                continue
            assert u_interval_scan(x, y, n=2000).passed

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            u_interval_scan(-0.1, 0.5)
        with pytest.raises(ValueError):
            u_interval_scan(2.0, 0.6)


@pytest.mark.parametrize("scan, name, bad", [
    (lambda v: HMonotonicityGrid(n_pairs=v), "n_pairs", True),
    (lambda v: HMonotonicityGrid(z_steps=v), "z_steps", 2.5),
    (lambda v: HMonotonicityGrid(det_samples=v), "det_samples", 100.0),
    (lambda v: PInequalityGrid(n_theta=v), "n_theta", True),
    (lambda v: PInequalityGrid(n_u=v), "n_u", 2.5),
    (lambda v: u_interval_scan(0.5, 0.5, n=v), "n", 2.5),
    (lambda v: p_ordering_scan(n_theta=v), "n_theta", 3.0),
    (lambda v: p_ordering_scan(n_u=v), "n_u", True),
], ids=["h-n_pairs-bool", "h-z_steps-float", "h-det_samples-float", "p-n_theta-bool",
        "p-n_u-float", "u-n-float", "ordering-n_theta-float", "ordering-n_u-bool"])
def test_grid_counts_must_be_integers(scan, name, bad):
    with pytest.raises(TypeError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
        scan(bad)


def test_grid_counts_accept_numpy_integers():
    assert PInequalityGrid(n_theta=np.int64(3), n_u=np.int64(4)).describe().startswith("3 theta x 4 u")


class TestPInequality:
    def test_spot_positive(self):
        assert _p_inequality_terms(np.array([2.0]), 1.0, np.cos, np.sin)[0] > 0

    def test_removable_zero_at_diagonal(self):
        # the left side vanishes like a high power of (u - theta)
        theta = 1.0
        vals = [_p_inequality_terms(np.array([theta + d]), theta, np.cos, np.sin)[0]
                for d in (1e-1, 1e-2, 1e-3)]
        assert all(v > 0 for v in vals)
        assert vals[2] < vals[1] < vals[0]

    def test_endpoints_vanish_exactly(self):
        theta = 1.2
        assert _p_inequality_terms(np.array([0.0]), theta, np.cos, np.sin)[0] == 0.0
        end = _p_inequality_terms(np.array([2 * np.pi - theta]), theta, np.cos, np.sin)
        assert abs(end[0]) < 1e-13

    def test_mpmath_path_evaluates_the_numpy_expression(self):
        # the refinements are the float formulas at high precision: away from
        # the diagonal both paths agree to double-precision rounding
        checked = 0
        for theta in np.linspace(0.05, np.pi - 0.05, 13):
            u = np.linspace(0.0, 2 * np.pi - theta, 33)[1:-1]
            u = u[np.abs(u - theta) > 0.05]
            p = _p_terms(u, theta, np.cos, np.sin)
            lhs = _p_inequality_terms(u, theta, np.cos, np.sin)
            scale = _p_inequality_noise_scale(u, theta)
            for j, uj in enumerate(u):
                assert _high_precision(_p_terms, float(uj), float(theta)) == pytest.approx(
                    p[j], rel=1e-9)
                if abs(lhs[j]) > 1e-10 * scale[j]:
                    assert _high_precision(_p_inequality_terms, float(uj),
                                           float(theta)) == pytest.approx(lhs[j], rel=1e-9)
                    checked += 1
        assert checked > 300

    def test_small_grid(self):
        rep = p_inequality_scan(PInequalityGrid(n_theta=60, n_u=60))
        assert rep.passed
        assert rep.worst_margin > 0


class TestNonconcavity:
    def test_reported_difference(self):
        rep = nonconcavity_example()
        assert rep.passed
        assert rep.details["difference"] == pytest.approx(0.0003994782, abs=1e-9)

    def test_already_averaged_matrix_has_zero_gap(self):
        from gaussmax.closedform import f_max

        m = CorrelationMatrix4.equicorrelated(-0.1)
        mbar = CorrelationMatrix4.equicorrelated(float(np.mean(m.array())))
        assert f_max(m) - f_max(mbar) == 0.0

    def test_example_matrix_is_interior(self):
        assert classify(CorrelationMatrix4(NONCONCAVITY_OFFDIAG)).tag is DomainTag.INTERIOR_S

    def test_small_spread_gap_sign_is_unconstrained(self, rng):
        # concavity fails only somewhere: for generic small spreads the gap
        # against the averaged matrix merely has to be finite (sign recorded)
        from gaussmax.closedform import f_max

        for _ in range(5):
            off = -0.1 + rng.uniform(-0.05, 0.05, size=6)
            m = CorrelationMatrix4(tuple(off))
            mbar = CorrelationMatrix4.equicorrelated(float(np.mean(off)))
            gap = f_max(m) - f_max(mbar)
            assert np.isfinite(gap)


class TestNonobtuseHessian:
    def test_equicorrelated_quarter(self):
        rep = nonobtuse_hessian_check(CorrelationMatrix4.equicorrelated(-0.25))
        assert rep.passed
        assert rep.details["diag_min"] > 0
        assert rep.details["det"] > 0
        assert rep.details["kernel_resid"] <= 1e-8

    def test_obtuse_input_raises(self):
        with pytest.raises(ObtuseInputError):
            nonobtuse_hessian_check(CorrelationMatrix4(NONCONCAVITY_OFFDIAG))

    def test_rejection_sampled_batch(self, rng):
        for _ in range(10):
            m = sample_nonobtuse_interior(rng)
            assert classify(m).tag is DomainTag.INTERIOR_S
            assert nonobtuse_hessian_check(m).passed


class TestBounds:
    def test_identity(self):
        rep = bounds_check(CorrelationMatrix4.identity())
        assert rep.passed
        assert rep.details["lower"] == pytest.approx(6 / (4 * np.sqrt(np.pi)), rel=1e-14)
        assert rep.details["upper"] == pytest.approx(6 / (3 * np.sqrt(np.pi)), rel=1e-14)

    def test_all_ones_degenerate(self):
        rep = bounds_check(CorrelationMatrix4.equicorrelated(1.0))
        assert rep.passed
        assert rep.details["lower"] == rep.details["upper"] == rep.details["value"] == 0.0

    def test_equicorrelated_optimum(self):
        rep = bounds_check(CorrelationMatrix4.equicorrelated(-1.0 / 3.0))
        assert rep.passed
        assert rep.details["upper"] == pytest.approx(6 * np.sqrt(4 / 3) / (3 * np.sqrt(np.pi)),
                                                     rel=1e-12)

    def test_battery_and_specials(self, battery20, special5):
        for m in battery20 + special5:
            assert bounds_check(m).passed


def test_polynomial_identity_report_shape():
    rep = polynomial_identity()
    assert rep.passed
    assert rep.details["literal_matches_generated"]
    obj = rep.to_json_obj()
    assert obj["pass"] is True
