import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import F_STAR

import gaussmax
from gaussmax import closedform, corrmat, optimize
from gaussmax.closedform import f_max
from gaussmax.corrmat import PAIRS, CorrelationMatrix4, DomainTag, classify
from gaussmax.optimize import (
    CERTIFY_SEED,
    AscentConfig,
    OptResult,
    certify,
    maximize,
    optimal_value,
    project_elliptope,
    random_interior,
    random_psd,
)


class TestProjection:
    def test_valid_matrix_is_fixed_point(self, battery20):
        for m in battery20[:5]:
            p = project_elliptope(m.matrix())
            assert np.max(np.abs(p.array() - m.array())) <= 1e-9

    def test_all_minus_half_projects_to_optimum(self):
        # the symmetric non-PSD point projects onto the equicorrelated
        # boundary; a 1-D search over the feasible equicorrelated segment
        # confirms r = -1/3 is the closest point
        p = project_elliptope(CorrelationMatrix4.equicorrelated(-0.5).matrix())
        assert np.max(np.abs(p.array() + 1.0 / 3.0)) <= 1e-7
        rs = np.linspace(-1.0 / 3.0, 1.0, 2001)
        dists = 6 * (rs + 0.5) ** 2
        assert rs[np.argmin(dists)] == pytest.approx(-1.0 / 3.0, abs=1e-3)

    def test_projection_is_feasible(self, rng):
        for _ in range(10):
            sym = rng.normal(size=(4, 4))
            sym = 0.5 * (sym + sym.T)
            p = project_elliptope(sym)
            assert classify(p).tag is not DomainTag.INVALID

    def test_small_perturbation_unchanged(self):
        m = CorrelationMatrix4.equicorrelated(0.1).matrix()
        m[0, 1] += 1e-13
        m[1, 0] += 1e-13
        p = project_elliptope(m)
        assert np.max(np.abs(p.matrix() - m)) <= 1e-12

    def test_asymmetric_rejected(self):
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            project_elliptope(bad)


class TestMaximize:
    def test_from_identity(self):
        res = maximize(CorrelationMatrix4.identity())
        assert res.converged
        assert np.max(np.abs(res.argmax.array() + 1.0 / 3.0)) <= 1e-4
        assert abs(res.value - F_STAR) <= 1e-6
        assert res.value == pytest.approx(f_max(res.argmax), abs=1e-12)

    def test_from_positive_start(self):
        res = maximize(CorrelationMatrix4.equicorrelated(0.5))
        assert res.converged
        assert np.max(np.abs(res.argmax.array() + 1.0 / 3.0)) <= 1e-4

    def test_start_at_optimum_terminates_immediately(self):
        res = maximize(CorrelationMatrix4.equicorrelated(-1.0 / 3.0))
        assert res.converged
        assert res.iterations <= 1
        assert abs(res.value - F_STAR) <= 2e-10  # projection tolerance bounds the overshoot

    def test_ascent_along_trajectory(self):
        res = maximize(CorrelationMatrix4.identity())
        vals = [t[0] for t in res.trajectory_summary]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_unit_pair_start_rejected(self):
        with pytest.raises(ValueError):
            maximize(CorrelationMatrix4((0, 0, 1.0, 0, 0, 0)))

    def test_escapes_planar_square_saddle(self):
        # v3 = -v1, v4 = -v2, v1 orthogonal to v2: the Riemannian gradient is
        # exactly zero here, so only the second-order test moves the ascent on
        res = maximize(CorrelationMatrix4((0.0, -1.0, 0.0, 0.0, -1.0, 0.0)))
        assert res.converged
        assert np.max(np.abs(res.argmax.array() + 1.0 / 3.0)) <= 1e-4
        assert abs(res.value - F_STAR) <= 1e-6
        # the escape clears the secant pair: the gradient step after it
        # starts from STEP_INIT (about 10.3 from the escape's secant)
        assert res.trajectory_summary[1][1] == optimize.STEP_INIT

    def test_tiny_simplex_start_converges(self):
        # every correlation is 1 - 1e-10: a small regular simplex, not the
        # 0/0 limit, so the gradient is nonzero and the ascent moves
        res = maximize(CorrelationMatrix4.equicorrelated(0.9999999999))
        assert res.converged
        assert res.iterations > 0
        assert np.max(np.abs(res.argmax.array() + 1.0 / 3.0)) <= 1e-6

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rank_deficient_starts_converge(self, rng, dim):
        for _ in range(5):
            res = maximize(random_psd(rng, dim))
            assert res.converged
            assert np.max(np.abs(res.argmax.array() + 1.0 / 3.0)) <= 1e-4
            assert abs(res.value - F_STAR) <= 1e-6

    def test_first_step_is_step_init_then_secant(self, identity_run):
        # the first iteration has no secant pair; later ones start their
        # line search from the Barzilai-Borwein step
        etas = [t[1] for t in identity_run.trajectory_summary]
        assert etas[0] == optimize.STEP_INIT
        assert any(eta != optimize.STEP_INIT for eta in etas[1:])

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_random_psd_starts_converge_within_60_iterations(self, dim):
        # some rank-2 starts reach a saddle and take the escape, which
        # resets the secant pair (8 escapes over the 30 at dim 2)
        rng = np.random.default_rng(19 + dim)
        for _ in range(30):
            res = maximize(random_psd(rng, dim))
            assert res.converged
            assert res.iterations <= 60
            assert np.max(np.abs(res.argmax.array() + 1.0 / 3.0)) <= 1e-6

    def test_steps_grow_out_of_a_saddle(self):
        # leaving a saddle <s, y> <= 0, so the first trial is twice the last
        # accepted step: from STEP_INIT instead, seed 3 took 29 iterations,
        # 14 of them at exactly STEP_INIT, and the 100 starts 24.0 on average
        res = maximize(random_psd(np.random.default_rng(3), 2))
        assert res.converged
        assert res.iterations <= 25
        iterations = [maximize(random_psd(np.random.default_rng(s), 2)).iterations
                      for s in range(100)]
        assert np.mean(iterations) <= 20

    def test_records_optimality_measures(self):
        cfg = AscentConfig()
        res = maximize(CorrelationMatrix4.identity(), cfg)
        assert res.converged
        assert res.grad_norm <= cfg.grad_tol
        assert res.s_min_eig >= -cfg.grad_tol
        assert all(t[2] > cfg.grad_tol for t in res.trajectory_summary)

    @pytest.mark.parametrize("kwargs, error, name", [
        ({"grad_tol": float("nan")}, ValueError, "grad_tol"),
        ({"grad_tol": float("inf")}, ValueError, "grad_tol"),
        ({"grad_tol": -1.0}, ValueError, "grad_tol"),
        ({"grad_tol": 0.0}, ValueError, "grad_tol"),
        ({"grad_tol": True}, ValueError, "grad_tol"),
        ({"max_iters": 0}, ValueError, "max_iters"),
        ({"max_iters": -5}, ValueError, "max_iters"),
        ({"max_iters": 2.5}, TypeError, "max_iters"),
        ({"max_iters": True}, TypeError, "max_iters"),
    ], ids=["tol-nan", "tol-inf", "tol-negative", "tol-zero", "tol-bool", "iters-0", "iters-negative",
            "iters-float", "iters-bool"])
    def test_config_rejects_bad_values(self, kwargs, error, name):
        with pytest.raises(error, match=name):
            AscentConfig(**kwargs)

    def test_config_accepts_one_iteration(self):
        assert AscentConfig(grad_tol=1e-3, max_iters=1).max_iters == 1

    def test_iteration_budget_respected(self):
        res = maximize(CorrelationMatrix4.identity(), AscentConfig(max_iters=3))
        assert res.iterations <= 3
        assert not res.converged


class TestOneDerivePerIterate:
    @pytest.mark.parametrize("seed", [None, 7])
    def test_each_matrix_built_is_derived_once(self, seed, monkeypatch):
        # the line search derives each trial once and the next gradient reads
        # the accepted trial's derivation; derive is counted in optimize and
        # behind the closed-form entry points alike
        start = (CorrelationMatrix4.identity() if seed is None
                 else random_interior(np.random.default_rng(seed)))
        counts = {"derive": 0, "gram_of_rows": 0}

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(optimize, "gram_of_rows",
                            counting("gram_of_rows", corrmat.gram_of_rows))
        monkeypatch.setattr(optimize, "derive", counting("derive", optimize.derive))
        monkeypatch.setattr(closedform, "derive", counting("derive", closedform.derive))
        res = maximize(start)
        assert res.converged and res.iterations > 0
        assert counts["derive"] == counts["gram_of_rows"] > res.iterations


class TestStepGlue:
    """The ascent's row normalization and Gram read give the bits of the
    numpy expressions they stand for."""

    ROWS, COLS = zip(*PAIRS)

    @staticmethod
    def row_sets():
        rng = np.random.default_rng(21)
        sets = [rng.normal(size=(4, 4)) * rng.uniform(0.1, 10.0) for _ in range(200)]
        for v in sets[:100]:  # repeated and opposite rows put Gram entries at +-1
            v[3], v[2] = v[0], -v[1]
        return sets

    def test_unit_rows(self):
        for v in self.row_sets():
            expected = v / np.linalg.norm(v, axis=1, keepdims=True)
            assert corrmat.unit_rows(v).tobytes() == expected.tobytes()

    def test_gram(self):
        clipped = 0
        for v in self.row_sets():
            u = corrmat.unit_rows(v)
            raw = (u @ u.T)[self.ROWS, self.COLS]
            expected = np.clip(raw, -1.0, 1.0)
            clipped += int(np.sum(raw != expected))
            assert np.array(corrmat.gram_of_rows(u).offdiag).tobytes() == expected.tobytes()
        assert clipped > 0


def test_optimizer_battery_script_runs():
    root = pathlib.Path(__file__).resolve().parents[1]
    src = str(pathlib.Path(gaussmax.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "optimizer_battery.py"), "--starts", "3"],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout[proc.stdout.index("{"):])
    assert summary["starts"] == 3
    assert summary["all_converged"]
    assert summary["mean_iterations"] <= summary["max_iterations"] <= 100


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_random_psd_equals_one_draw_of_a_stack(dim):
    # successive matrices consume the stream as one draw of 25 stacked sets
    # of four vectors; this pins the rivals that certify scores
    a = np.random.default_rng(11).normal(size=(25, 4, dim))
    a /= np.linalg.norm(a, axis=2, keepdims=True)
    g = a @ a.transpose(0, 2, 1)
    rows, cols = zip(*PAIRS)
    expected = np.clip(g[:, rows, cols], -1.0, 1.0)
    rng = np.random.default_rng(11)
    got = np.array([random_psd(rng, dim).offdiag for _ in range(25)])
    assert got.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def identity_run():
    return maximize(CorrelationMatrix4.identity())


class TestCertify:
    def test_certifies_identity_run(self):
        res = maximize(CorrelationMatrix4.identity())
        rep = certify(res)
        assert rep.passed
        assert rep.details["value_ok"] and rep.details["dist_ok"] and rep.details["random_ok"]
        assert rep.details["grad_norm"] == res.grad_norm
        assert rep.details["s_min_eig"] == res.s_min_eig

    def test_fake_too_large_value_fails(self):
        res = maximize(CorrelationMatrix4.identity())
        fake = OptResult(argmax=res.argmax, value=1.2, iterations=res.iterations,
                         trajectory_summary=(), converged=True)
        rep = certify(fake)
        assert not rep.details["value_ok"]
        assert not rep.passed

    def test_fake_displaced_argmax_fails(self):
        res = maximize(CorrelationMatrix4.identity())
        fake = OptResult(argmax=CorrelationMatrix4.equicorrelated(-0.30),
                         value=res.value, iterations=res.iterations,
                         trajectory_summary=(), converged=True)
        rep = certify(fake)
        assert not rep.details["dist_ok"]
        assert not rep.passed

    def test_unconverged_rejected(self):
        res = maximize(CorrelationMatrix4.identity(), AscentConfig(max_iters=2))
        with pytest.raises(ValueError):
            certify(res)

    def test_worst_random_equals_scalar_loop(self, identity_run):
        rng = np.random.default_rng(CERTIFY_SEED)
        expected = max(f_max(random_psd(rng)) for _ in range(100))
        assert certify(identity_run).details["worst_random_value"] == expected

    def test_optimal_value_matches_equal_correlation_formula(self):
        assert optimal_value() == pytest.approx(
            3 * np.sqrt(4.0 / 3.0) * np.arccos(-1.0 / 3.0) / np.sqrt(np.pi**3), rel=1e-14)


class TestCertifyRivals:
    """The rivals' scores are a constant, kept for the process."""

    def test_each_call_gets_the_kept_rivals_and_a_fresh_report(self, identity_run):
        rng = np.random.default_rng(CERTIFY_SEED)
        expected = max(f_max(random_psd(rng)) for _ in range(100))
        for _ in range(3):
            rep = certify(identity_run)
            assert rep.details["worst_random_value"] == expected
            assert rep.details["target"] == optimal_value()
            assert rep.grid == f"100 random matrices, seed {CERTIFY_SEED}"
            # a caller that edits its report does not edit the next one
            rep.details["worst_random_value"] = rep.details["target"] = float("nan")


class TestBasin:
    def test_five_random_starts_reach_the_same_point(self, rng):
        # the acceptance suite runs the full 20-start battery
        for _ in range(5):
            start = random_interior(rng)
            res = maximize(start)
            assert res.converged
            assert np.max(np.abs(res.argmax.array() + 1.0 / 3.0)) <= 1e-4
            assert abs(res.value - F_STAR) <= 1e-6

    def test_battery20_converges_tightly(self, battery20):
        worst = 0.0
        iterations = []
        for start in battery20:
            res = maximize(start)
            assert res.converged
            iterations.append(res.iterations)
            worst = max(worst, float(np.max(np.abs(res.argmax.array() + 1.0 / 3.0))))
        assert worst <= 1e-6
        # about 9.6 and 10 with the Barzilai-Borwein first trial, 13.2 and 14
        # from a fixed first trial of STEP_INIT
        assert np.mean(iterations) <= 11
        assert max(iterations) <= 12
