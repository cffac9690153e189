import json

import numpy as np
import pytest

from gaussmax import verify
from gaussmax.cli import main

REG = "-0.333333333333,-0.333333333333,-0.333333333333,-0.333333333333,-0.333333333333,-0.333333333333"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_equicorrelated_optimum(self, capsys):
        code, out, _ = run(capsys, "compute", "--corr", REG)
        assert code == 0
        doc = json.loads(out)
        assert round(doc["f_max"], 5) == 1.18862
        assert doc["classification"] == "BoundaryS1"
        assert "tolerances" in doc

    def test_corr3(self, capsys):
        code, out, _ = run(capsys, "compute", "--corr3", "-0.5,-0.5,-0.5")
        assert code == 0
        assert round(json.loads(out)["f_max3"], 6) == 1.036482

    def test_single_json_document(self, capsys):
        code, out, _ = run(capsys, "compute", "--corr", "0,0,0,0,0,0")
        assert len(out.strip().splitlines()) == 1
        json.loads(out)

    def test_byte_identical_output(self, capsys):
        _, out1, _ = run(capsys, "compute", "--corr", REG)
        _, out2, _ = run(capsys, "compute", "--corr", REG)
        assert out1 == out2

    def test_pretty_flag_same_document(self, capsys):
        _, compact, _ = run(capsys, "compute", "--corr", REG)
        code, pretty, _ = run(capsys, "--pretty", "compute", "--corr", REG)
        assert code == 0
        assert len(pretty.splitlines()) > 1
        assert json.loads(pretty) == json.loads(compact)

    def test_missing_matrix_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compute")
        assert code == 2
        assert "corr" in err.lower() or "file" in err.lower()

    def test_malformed_file_names_field(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0, xx, 0, 0, 0, 0\n")
        code, _, err = run(capsys, "compute", "--file", str(p))
        assert code == 2
        assert "13" in err

    def test_non_numeric_json_entry_names_field(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"offdiag": [None, 0, 0, 0, 0, 0]}))
        code, out, err = run(capsys, "compute", "--file", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith("error: entry 12:")

    def test_truncated_json_file_is_usage_error(self, capsys, tmp_path):
        p = tmp_path / "truncated.json"
        p.write_text('{"offdiag": [0, 0, 0')
        code, out, err = run(capsys, "compute", "--file", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith("error: Expecting")

    @pytest.mark.parametrize("entry, bad", [("12", True), ("34", "0.5")])
    def test_json_entry_must_be_a_number(self, capsys, tmp_path, entry, bad):
        off = [0.0] * 6
        off["12 13 14 23 24 34".split().index(entry)] = bad
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"offdiag": off}))
        code, out, err = run(capsys, "compute", "--file", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: entry {entry}:")

    def test_non_finite_corr3_is_domain_error(self, capsys):
        code, out, err = run(capsys, "compute", "--corr3", "nan,0,0")
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_unparsable_corr3_names_entry(self, capsys):
        code, out, err = run(capsys, "compute", "--corr3", "0,abc,0")
        assert code == 2
        assert out == ""
        assert err == "error: entry 13: cannot parse 'abc' as a number\n"

    def test_invalid_matrix_is_domain_error(self, capsys):
        code, _, err = run(capsys, "compute", "--corr", "-0.5,-0.5,-0.5,-0.5,-0.5,-0.5")
        assert code == 2


class TestGradHessian:
    def test_grad(self, capsys):
        code, out, _ = run(capsys, "grad", "--corr", "0,0,0,0,0,0")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["gradient"]) == 6
        assert all(g < 0 for g in doc["gradient"])

    def test_hessian(self, capsys):
        code, out, _ = run(capsys, "hessian", "--corr", "0,0,0,0,0,0")
        doc = json.loads(out)
        assert code == 0
        h = np.array(doc["hessian"])
        assert h.shape == (6, 6)
        assert np.allclose(h, h.T)

    def test_hessian_singular_rejected(self, capsys):
        code, _, err = run(capsys, "hessian", "--corr", REG)
        assert code == 2


class TestMC:
    def test_deterministic_and_close(self, capsys):
        args = ("mc", "--corr", "0,0,0,0,0,0", "--samples", "1000000", "--seed", "7")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        doc = json.loads(out1)
        est = doc["estimate"]
        assert abs(est["mean"] - 1.0293753730039641) <= 4 * est["std_error"]
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_more_shards_than_pairs_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "mc", "--corr", "0,0,0,0,0,0",
                             "--samples", "10000", "--shards", "5001")
        assert (code, out) == (2, "")
        assert "shards must be <= n // 2" in err

    def test_order_stats_flag(self, capsys):
        code, out, _ = run(capsys, "mc", "--corr", "0,0,0,0,0,0",
                           "--samples", "100000", "--seed", "1", "--order-stats")
        doc = json.loads(out)
        assert code == 0
        os_ = doc["order_stats"]
        assert os_["e1"] >= os_["e2"] >= os_["e3"] >= os_["e4"]
        assert os_["e4"] == -os_["e1"]


class TestMeanwidthDihedrals:
    def test_meanwidth_from_corr(self, capsys):
        code, out, _ = run(capsys, "meanwidth", "--corr", REG, "--order", "50")
        doc = json.loads(out)
        assert code == 0
        fm = doc["gaussian_radial_factor"] * doc["mean_width"] / 2
        assert fm == pytest.approx(1.1886202974020204, rel=1e-4)

    def test_meanwidth_from_tetra_file(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
        p.write_text(json.dumps({"vertices": v.tolist()}))
        code, out, _ = run(capsys, "meanwidth", "--tetra", str(p), "--order", "30")
        assert code == 0
        assert json.loads(out)["mean_width"] == pytest.approx(1.489715, rel=1e-3)

    @pytest.mark.parametrize("bad", [None, "nan"])
    def test_meanwidth_rejects_non_finite_vertex(self, capsys, tmp_path, bad):
        p = tmp_path / "t.json"
        v = (np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)).tolist()
        v[2][1] = bad
        p.write_text(json.dumps({"vertices": v}))
        code, out, err = run(capsys, "meanwidth", "--tetra", str(p), "--order", "10")
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("row, bad", [(0, [True, False, False]), (3, [0, 0, "-1"])])
    def test_meanwidth_vertex_must_be_numbers(self, capsys, tmp_path, row, bad):
        p = tmp_path / "t.json"
        v = (np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)).tolist()
        v[row] = bad
        p.write_text(json.dumps({"vertices": v}))
        code, out, err = run(capsys, "meanwidth", "--tetra", str(p), "--order", "10")
        assert code == 2
        assert out == ""
        assert f"'vertices' entry [{row}]" in err

    def test_dihedrals(self, capsys):
        code, out, _ = run(capsys, "dihedrals", "--corr", REG)
        doc = json.loads(out)
        assert code == 0
        assert np.allclose(doc["alpha"], np.arccos(-1 / 3), atol=1e-10)
        assert doc["facet_pairs"] == ["12", "13", "14", "23", "24", "34"]


class TestOptimize:
    def test_identity_start_and_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "optimize", "--start", "identity")
        doc = json.loads(out)
        assert code == 0
        assert doc["converged"]
        assert np.max(np.abs(np.array(doc["argmax"]["offdiag"]) + 1 / 3)) <= 1e-4
        # compute on the optimizer's own output file reproduces the value
        p = tmp_path / "opt.json"
        p.write_text(out)
        code2, out2, _ = run(capsys, "compute", "--file", str(p))
        assert code2 == 0
        assert json.loads(out2)["f_max"] == pytest.approx(doc["value"], abs=1e-12)

    @pytest.mark.parametrize("argv, name", [
        (("--tol", "nan"), "grad_tol"),
        (("--tol", "-1"), "grad_tol"),
        (("--tol", "0"), "grad_tol"),
        (("--max-iters", "0"), "max_iters"),
        (("--max-iters", "-5"), "max_iters"),
    ], ids=["tol-nan", "tol-negative", "tol-zero", "max-iters-0", "max-iters-negative"])
    def test_bad_ascent_settings_are_usage_errors(self, capsys, argv, name):
        code, out, err = run(capsys, "optimize", *argv)
        assert code == 2
        assert out == ""
        assert f"error: {name} must be" in err


class TestVerify:
    def test_identity_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "identity")
        doc = json.loads(out)
        assert code == 0
        assert doc["pass"] is True
        assert doc["residual"] == 0

    def test_nonconcavity_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "nonconcavity")
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["details"]["difference"] == pytest.approx(
            0.0003994782, abs=1e-9)

    def test_bounds_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bounds")
        assert code == 0


class TestFailingVerification:
    """One failing report makes its command exit 1, with the whole document
    on stdout; the verify suite's other report (the H scan) still passes."""

    @pytest.mark.parametrize("argv", [
        ("scan", "--kind", "p-ordering", "--n-theta", "2", "--n-u", "2"),
        ("verify", "--suite", "monotonicity"),
    ], ids=["scan", "verify"])
    def test_failing_report_exits_1(self, capsys, monkeypatch, argv):
        failing = verify.ScanReport(name="p_ordering", grid="stub", passed=False,
                                    worst_margin=-1.0)
        monkeypatch.setattr(verify, "p_ordering_scan", lambda **grid: failing)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == ""
        doc = json.loads(out)
        assert doc["command"] == argv[0]
        assert doc["pass"] is False


class TestScan:
    def test_u_interval(self, capsys):
        code, out, _ = run(capsys, "scan", "--kind", "u-interval",
                           "--x", "0.5", "--y", "0.5", "--n", "2000")
        doc = json.loads(out)
        assert code == 0
        assert doc["report"]["details"]["runs"] == 1

    def test_p_inequality_small(self, capsys):
        code, out, _ = run(capsys, "scan", "--kind", "p-inequality",
                           "--n-theta", "40", "--n-u", "40")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_h_monotonicity_small(self, capsys):
        code, out, _ = run(capsys, "scan", "--kind", "h-monotonicity",
                           "--n-pairs", "8", "--z-steps", "40")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_p_ordering_reads_grid_flags(self, capsys):
        code, out, _ = run(capsys, "scan", "--kind", "p-ordering", "--n-theta", "4", "--n-u", "5")
        assert code == 0
        assert json.loads(out)["report"]["grid"] == "40 (u, theta) points"

    def test_p_ordering_default_grid(self, capsys):
        code, out, _ = run(capsys, "scan", "--kind", "p-ordering")
        assert code == 0
        assert json.loads(out)["report"]["grid"] == "1000 (u, theta) points"

    @pytest.mark.parametrize("argv, flag", [
        (("--kind", "p-ordering", "--n-pairs", "3"), "--n-pairs"),
        (("--kind", "p-ordering", "--n", "7"), "--n"),
        (("--kind", "p-inequality", "--x", "0.7"), "--x"),
        (("--kind", "h-monotonicity", "--y", "0.2"), "--y"),
        (("--kind", "u-interval", "--n-theta", "4"), "--n-theta"),
        (("--kind", "h-monotonicity", "--n-u", "4"), "--n-u"),
        (("--kind", "p-inequality", "--z-steps", "40"), "--z-steps"),
    ], ids=["n-pairs", "n", "x", "y", "n-theta", "n-u", "z-steps"])
    def test_flag_of_another_kind_is_usage_error(self, capsys, argv, flag):
        code, out, err = run(capsys, "scan", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} does not apply to --kind {argv[1]}\n"

    @pytest.mark.parametrize("argv, name", [
        (("--kind", "h-monotonicity", "--n-pairs", "0"), "n_pairs"),
        (("--kind", "h-monotonicity", "--n-pairs", "4", "--z-steps", "1"), "z_steps"),
        (("--kind", "p-inequality", "--n-theta", "0"), "n_theta"),
        (("--kind", "p-inequality", "--n-theta", "4", "--n-u", "0"), "n_u"),
        (("--kind", "u-interval", "--n", "0"), "n"),
        (("--kind", "u-interval", "--n", "1"), "n"),
    ], ids=["n-pairs-0", "z-steps-1", "n-theta-0", "n-u-0", "n-0", "n-1"])
    def test_empty_grid_is_usage_error(self, capsys, argv, name):
        code, out, err = run(capsys, "scan", *argv)
        assert code == 2
        assert out == ""
        assert f"error: {name} must be >=" in err


class TestInputConflicts:
    """Two input sources for one command are a usage error, not one of them
    silently ignored."""

    @pytest.mark.parametrize("argv", [
        ("compute", "--corr", "0,0,0,0,0,0", "--corr3", "0,0,0"),
        ("grad", "--corr", "0,0,0,0,0,0", "--file", "/nonexistent"),
        ("meanwidth", "--tetra", "f", "--corr", "0,0,0,0,0,0"),
    ], ids=["compute-corr-corr3", "grad-corr-file", "meanwidth-tetra-corr"])
    def test_two_inputs_are_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "not allowed with argument" in err

    def test_optimize_file_without_file_start_is_usage_error(self, capsys):
        code, out, err = run(capsys, "optimize", "--start", "identity", "--file", "/nonexistent")
        assert code == 2
        assert out == ""
        assert err == "error: --file does not apply to --start identity\n"
