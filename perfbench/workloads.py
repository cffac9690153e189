"""The four benchmark workloads and the CLI probe.

Each workload draws its inputs from the benchmark seed at set-up, warms up
every public call it makes, and then hands out items in cycles.  Only the
generated inputs reach gaussmax.  ``sweep`` runs a fixed slice of the
workload under a tracer, plus probes of single calls on the same inputs,
and returns the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from gaussmax import cli, closedform, corrmat, geometry, montecarlo, optimize, verify
from gaussmax.corrmat import CorrelationMatrix4
from harness import UNTRACED, Item, Tally, median, percentile, run_item

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Reference constants, computed here rather than read from the package.
F_STAR = 3 * math.sqrt(4.0 / 3.0) * math.acos(-1.0 / 3.0) / math.pi ** 1.5
RADIAL = 2 * math.sqrt(2 / math.pi)  # E||G|| for a standard 3-D Gaussian
WIDTH_STAR = 2 * F_STAR / RADIAL     # mean width of the regular tetrahedron
SQRT_PI = math.sqrt(math.pi)
MEAN_WIDTH_TOL = {50: 1e-4, 200: 1e-6}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _sum_sqrt_complements(off) -> float:
    return sum(math.sqrt(max(1.0 - v, 0.0)) for v in off)


def _shares(labels) -> dict[str, float]:
    labels = list(labels)
    return {k: labels.count(k) / len(labels) for k in sorted(set(labels))}


def _us(xs) -> float | None:
    return median(xs) * 1e6 if xs else None


def _ms(xs) -> float | None:
    return median(xs) * 1e3 if xs else None


# ---------------------------------------------------------------------------


class Ascent:
    """One item: `maximize` from a seeded interior start, then `certify`."""

    name = "ascent"
    STARTS = 64        # more than a run can use
    SWEEP_STARTS = 2
    STEP = 0.1         # AscentConfig.step_init: the size of a first trial step

    def __init__(self, seed: int):
        self.seed = seed
        rng = _rng(seed, 1)
        self.starts = [optimize.random_interior(rng, min_eig=0.05) for _ in range(self.STARTS)]
        m = self.starts[0]
        closedform.f_max(m)
        closedform.gradient(m)
        optimize.project_elliptope(np.eye(4))
        optimize.maximize(m, optimize.AscentConfig(max_iters=2))

    def _item(self, k: int) -> Item:
        start = self.starts[k % self.STARTS]

        def run(tr):
            res = tr.call("optimize.maximize", optimize.maximize, start)
            return res, tr.call("optimize.certify", optimize.certify, res)

        return Item("ascent", "interior", run, _check_ascent)

    def cycle(self, k: int) -> list[Item]:
        return [self._item(k)]

    def shares(self) -> dict:
        return {"start_class": _shares(corrmat.classify(m).tag.value for m in self.starts)}

    def _step_inputs(self, n: int = 16) -> list[np.ndarray]:
        """Symmetric unit-diagonal matrices outside the elliptope: a rank-3
        boundary point plus STEP times its gradient, as in a first trial
        step of the ascent near the singular optimum."""
        rng = _rng(self.seed, 11)
        out = []
        for _ in range(100 * n):
            m = optimize.random_psd(rng, 3)
            g = closedform.gradient(m)
            sym = m.matrix()
            for t, (i, j) in enumerate(corrmat.PAIRS):
                sym[i, j] = sym[j, i] = sym[i, j] + self.STEP * g[t]
            if np.linalg.eigvalsh(sym)[0] < -1e-6:
                out.append(sym)
                if len(out) == n:
                    return out
        raise RuntimeError("could not build infeasible step inputs")

    def sweep(self, tr, tally: Tally) -> dict:
        results = []
        for k in range(self.SWEEP_STARTS):
            _, out = run_item(self._item(k), k, tr, tally, "bench.ascent.item")
            if out is not None:
                results.append(out[0])
        for sym in self._step_inputs():
            tr.call("optimize.project_elliptope", optimize.project_elliptope, sym)
        iters = sum(r.iterations for r in results)
        busy = sum(tr.durations("optimize.maximize"))
        return {
            "optimize.maximize.iterations": (iters, "count"),
            "optimize.maximize.us_per_iter": (busy * 1e6 / iters if iters else None, "us"),
            "optimize.project_elliptope.us": (_us(tr.durations("optimize.project_elliptope")), "us"),
            "optimize.certify.ms": (_ms(tr.durations("optimize.certify")), "ms"),
        }


def _check_ascent(out) -> str | None:
    res, cert = out
    if not res.converged:
        return "ascent did not converge"
    dist = max(abs(v + 1.0 / 3.0) for v in res.argmax.offdiag)
    if dist > 1e-4:
        return f"argmax is {dist:.3e} from -1/3 (> 1e-4)"
    if abs(res.value - F_STAR) > 1e-6:
        return f"value {res.value!r} differs from F* by more than 1e-6"
    if not cert.passed:
        return f"certificate failed: {cert.details}"
    return None


# ---------------------------------------------------------------------------


class Evaluate:
    """One item: one matrix from a seeded half of the recorded reference
    table, with every closed-form call its domain class admits."""

    name = "evaluate"
    TABLE = HERE / "reference_evaluate.json"
    SWEEP_PASSES = 2

    def __init__(self, seed: int):
        entries = json.loads(self.TABLE.read_text())["entries"]
        strata: dict[str, list] = {}
        for e in entries:
            strata.setdefault(e["stratum"], []).append(e)
        rng = _rng(seed, 2)
        chosen = []
        for key in sorted(strata):  # half of every stratum keeps the class mix fixed
            group = strata[key]
            chosen += [group[i] for i in sorted(rng.choice(len(group), len(group) // 2, replace=False))]
        self.pool = [chosen[i] for i in rng.permutation(len(chosen))]
        self.matrices = [CorrelationMatrix4(tuple(e["offdiag"])) for e in self.pool]
        self.tags = [corrmat.classify(m).tag.value for m in self.matrices]
        self.items = [self._item(e, m) for e, m in zip(self.pool, self.matrices)]
        warmed = set()
        for e, item in zip(self.pool, self.items):
            if e["stratum"] not in warmed:
                warmed.add(e["stratum"])
                item.run(UNTRACED)

    def _item(self, entry: dict, m: CorrelationMatrix4) -> Item:
        cls = entry["cls"]
        calls = [("closedform.f_max", closedform.f_max)]
        if cls != "unit_pair":
            calls += [("closedform.gradient", closedform.gradient),
                      ("geometry.dihedrals", geometry.dihedrals)]
        if cls == "interior":
            calls.append(("closedform.hessian", closedform.hessian))

        def run(tr):
            return [tr.call(name, fn, m, tag=cls) for name, fn in calls]

        return Item("evaluate", cls, run, lambda out: _check_evaluate(entry, out))

    def cycle(self, k: int) -> list[Item]:
        return self.items

    def shares(self) -> dict:
        return {"class": _shares(self.tags),
                "stratum": _shares(e["stratum"] for e in self.pool)}

    def sweep(self, tr, tally: Tally) -> dict:
        for p in range(self.SWEEP_PASSES):
            for i, item in enumerate(self.items):
                run_item(item, p * len(self.items) + i, tr, tally, "bench.evaluate.item")
        for m in self.matrices:
            tr.call("corrmat.classify", corrmat.classify, m)
            tr.call("corrmat.derive", corrmat.derive, m)
        f_int = tr.durations("closedform.f_max", tag="interior")
        return {
            "corrmat.classify.us": (_us(tr.durations("corrmat.classify")), "us"),
            "corrmat.derive.us": (_us(tr.durations("corrmat.derive")), "us"),
            "closedform.f_max.us.interior": (_us(f_int), "us"),
            "closedform.f_max.us.boundary": (_us(tr.durations("closedform.f_max", tag="boundary")), "us"),
            "closedform.f_max.us.unit_pair": (_us(tr.durations("closedform.f_max", tag="unit_pair")), "us"),
            "closedform.f_max.us_p90.interior": (percentile(f_int, 90) * 1e6 if f_int else None, "us"),
            "closedform.gradient.us.interior": (_us(tr.durations("closedform.gradient", tag="interior")), "us"),
            "closedform.gradient.us.boundary": (_us(tr.durations("closedform.gradient", tag="boundary")), "us"),
            "closedform.hessian.us": (_us(tr.durations("closedform.hessian")), "us"),
            "geometry.dihedrals.us": (_us(tr.durations("geometry.dihedrals")), "us"),
        }


def _check_evaluate(entry: dict, out) -> str | None:
    off = entry["offdiag"]
    f = out[0]
    if abs(f - entry["f_max"]) > 1e-12:
        return f"f_max {f!r} differs from the recorded {entry['f_max']!r} by more than 1e-12"
    s = _sum_sqrt_complements(off)
    if not s / (4 * SQRT_PI) - 1e-12 <= f <= s / (3 * SQRT_PI) + 1e-12:
        return f"f_max {f!r} outside the value bounds"
    if entry["cls"] == "unit_pair":
        return None
    g, alpha = np.asarray(out[1]), out[2].alpha
    if not (np.all(np.isfinite(g)) and np.all((alpha >= 0) & (alpha <= np.pi))):
        return "gradient not finite or a dihedral angle outside [0, pi]"
    if entry["dim"] == 2:
        # Coplanar: an edge whose outer dihedral angle is 0 has a zero partial.
        if not (np.all(g <= 0) and np.count_nonzero(g == 0) == np.count_nonzero(alpha == 0)):
            return f"rank-2 gradient {g} does not match its flat dihedral angles {alpha}"
    elif not np.all(g < 0):
        return f"gradient {g} not all negative"
    if entry["cls"] == "interior":
        lp = 1.0 - np.asarray(off)
        rel = np.max(np.abs(out[3] @ lp - 0.5 * g) / np.abs(0.5 * g))
        if rel > 1e-8:
            return f"Euler balance residual {rel:.3e} > 1e-8"
    return None


# ---------------------------------------------------------------------------


class Sampling:
    """One item: one Monte-Carlo call.  The cycle is estimate_max at 10^7
    samples on 5 shards and estimate_order_stats at 2*10^6 on 1 shard, each
    on a seeded interior matrix (Cholesky factor) and a seeded rank-3
    boundary matrix (eigen factor).  Every repeat of a call must reproduce
    its first result bit for bit, whatever the thread count."""

    name = "sampling"
    SPECS = (  # (estimator, matrix, samples, shards)
        ("estimate_max", "interior", 10_000_000, 5),
        ("estimate_max", "boundary", 10_000_000, 5),
        ("estimate_order_stats", "interior", 2_000_000, 1),
        ("estimate_order_stats", "boundary", 2_000_000, 1),
    )
    FACTOR_REPS = 200

    def __init__(self, seed: int):
        rng = _rng(seed, 3)
        self.mats = {"interior": optimize.random_interior(rng, min_eig=0.05),
                     "boundary": optimize.random_psd(rng, 3)}
        self.mc_seeds = [int(s) for s in rng.integers(0, 2 ** 31, size=len(self.SPECS))]
        self.ref = {k: closedform.f_max(m) for k, m in self.mats.items()}
        self.first: dict[int, object] = {}
        m = self.mats["interior"]
        montecarlo.estimate_max(m, 10_000, 0, shards=2)
        montecarlo.estimate_order_stats(m, 10_000, 0, shards=1)
        montecarlo.sample_factor(self.mats["boundary"])

    def _item(self, i: int, threads: str) -> Item:
        est, cls, n, shards = self.SPECS[i]
        m, seed = self.mats[cls], self.mc_seeds[i]
        fn = getattr(montecarlo, est)

        def run(tr):
            return tr.call(f"montecarlo.{est}", fn, m, n, seed, shards=shards, tag=f"{cls}.t{threads}")

        return Item(est, f"{cls}.t{threads}", run, lambda out: self._check(i, out))

    def _check(self, i: int, out) -> str | None:
        first = self.first.setdefault(i, out)
        if out != first:
            return f"{self.SPECS[i]}: result changed between repeats: {out} vs {first}"
        est, cls = self.SPECS[i][:2]
        if est == "estimate_max":
            err = abs(out.mean - self.ref[cls])
            if err > 4 * out.std_error:
                return f"{cls}: |MC - f_max| = {err:.3e} > 4 SE ({out.std_error:.3e})"
            return None
        s = _sum_sqrt_complements(self.mats[cls].offdiag) / SQRT_PI
        res3 = abs(out.e3 - (3 * out.e1 - s))
        res2 = abs(out.e2 - (-3 * out.e1 + s))
        if res3 > 4 * out.se_third_identity or res2 > 4 * out.se_second_identity:
            return f"{cls}: order-statistic identity residuals {res3:.3e}, {res2:.3e} > 4 SE"
        return None

    def cycle(self, k: int) -> list[Item]:
        return [self._item(i, os.environ["GAUSSMAX_THREADS"]) for i in range(len(self.SPECS))]

    def shares(self) -> dict:
        factor = {"interior": "cholesky", "boundary": "eigen"}
        return {
            "matrix_class": {k: corrmat.classify(m).tag.value for k, m in self.mats.items()},
            "factor": _shares(factor[s[1]] for s in self.SPECS),
            "shards": _shares(str(s[3]) for s in self.SPECS),
            "estimator": _shares(s[0] for s in self.SPECS),
        }

    def sweep(self, tr, tally: Tally) -> dict:
        threads = os.environ["GAUSSMAX_THREADS"]
        cpu0, t0 = _cpu_seconds(), perf_counter()
        for i, item in enumerate(self.cycle(0)):
            run_item(item, i, tr, tally, "bench.sampling.item")
        cpu_util = (_cpu_seconds() - cpu0) / (perf_counter() - t0)
        os.environ["GAUSSMAX_THREADS"] = "1"
        try:
            for i in range(len(self.SPECS)):
                run_item(self._item(i, "1"), len(self.SPECS) + i, tr, tally, "bench.sampling.item")
        finally:
            os.environ["GAUSSMAX_THREADS"] = threads
        for cls, m in self.mats.items():
            for _ in range(self.FACTOR_REPS):
                tr.call("montecarlo.sample_factor", montecarlo.sample_factor, m, tag=cls)

        def ns_per_sample(est, t):
            n = {s[0]: s[2] for s in self.SPECS}[est]
            xs = tr.durations(f"montecarlo.{est}", tag_suffix=f".t{t}")
            return median(xs) * 1e9 / n if xs else None

        t1 = sum(tr.durations("montecarlo.estimate_max", tag_suffix=".t1")
                 + tr.durations("montecarlo.estimate_order_stats", tag_suffix=".t1"))
        t2 = sum(tr.durations("montecarlo.estimate_max", tag_suffix=f".t{threads}")
                 + tr.durations("montecarlo.estimate_order_stats", tag_suffix=f".t{threads}"))
        return {
            "montecarlo.estimate_max.ns_per_sample.t1": (ns_per_sample("estimate_max", 1), "ns"),
            "montecarlo.estimate_max.ns_per_sample.t2": (ns_per_sample("estimate_max", threads), "ns"),
            "montecarlo.estimate_order_stats.ns_per_sample.t1": (ns_per_sample("estimate_order_stats", 1), "ns"),
            "montecarlo.estimate_order_stats.ns_per_sample.t2": (ns_per_sample("estimate_order_stats", threads), "ns"),
            "montecarlo.parallel_eff": (t1 / (2 * t2) if t2 else None, "ratio"),
            "montecarlo.sample_factor.us.interior": (_us(tr.durations("montecarlo.sample_factor", tag="interior")), "us"),
            "montecarlo.sample_factor.us.boundary": (_us(tr.durations("montecarlo.sample_factor", tag="boundary")), "us"),
            "montecarlo.cpu_util": (cpu_util, "ratio"),
        }


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


# ---------------------------------------------------------------------------


class Certificates:
    """One item: one report.  A cycle holds the reports of
    `gaussmax verify --suite all` on seeded matrices, seeded admissible-
    interval scans, and mean widths of the regular tetrahedron and of seeded
    random tetrahedra at quadrature orders 50 and 200."""

    name = "certificates"
    U_SCANS = 20
    RANDOM_TETRA = {50: 8, 200: 4}
    EMBED_REPS = 5
    WIDTH_INV_SIZES = (200, 2000, 10_000)  # z-steps, det samples, u-scan points
    DET_SAMPLES = 2000

    def __init__(self, seed: int):
        rng = _rng(seed, 4)
        battery = [optimize.random_interior(rng, min_eig=0.05) for _ in range(20)]
        nonobtuse = [verify.sample_nonobtuse_interior(rng) for _ in range(10)]
        specials = [CorrelationMatrix4.identity(), CorrelationMatrix4.equicorrelated(-1.0 / 3.0),
                    CorrelationMatrix4.equicorrelated(1.0)]
        self.uxy = []
        while len(self.uxy) < self.U_SCANS:
            x, y = (float(v) for v in rng.uniform(0.05, 1.5, 2))
            if x * y < 1:
                self.uxy.append((x, y))
        self.tetra = {order: [_random_tetrahedron(rng) for _ in range(count)]
                      for order, count in self.RANDOM_TETRA.items()}
        self.probe_rng_seed = (seed, 12)
        self.matrix_tags = [corrmat.classify(m).tag.value for m in battery + nonobtuse + specials]

        def report(name, fn, *args, kind, tag=""):
            return Item(kind, tag, lambda tr: tr.call(name, fn, *args, tag=tag), _check_report)

        regular = geometry.Tetrahedron.regular()
        self.items = [
            report("polynomial.identity", verify.polynomial_identity, kind="polynomial_identity"),
            report("verify.h_monotonicity_scan", verify.h_monotonicity_scan, kind="h_monotonicity"),
            report("verify.p_ordering_scan", verify.p_ordering_scan, kind="p_ordering"),
            report("verify.p_inequality_scan", verify.p_inequality_scan, kind="p_inequality"),
            report("verify.nonconcavity_example", verify.nonconcavity_example, kind="nonconcavity"),
            *[report("verify.euler_relation_check", verify.euler_relation_check, m, kind="euler")
              for m in battery],
            *[report("verify.nonobtuse_hessian_check", verify.nonobtuse_hessian_check, m,
                     kind="nonobtuse_hessian") for m in nonobtuse],
            *[report("verify.bounds_check", verify.bounds_check, m, kind="bounds")
              for m in battery + specials],
            *[report("verify.u_interval_scan", verify.u_interval_scan, x, y, 10_000, kind="u_interval")
              for x, y in self.uxy],
            *[_width_item(regular, order, "regular") for order in self.RANDOM_TETRA],
            *[_width_item(t, order, "random") for order, ts in self.tetra.items() for t in ts],
        ]
        verify.polynomial_identity()
        verify.h_monotonicity_scan(verify.HMonotonicityGrid(n_pairs=3, z_steps=8, det_samples=50))
        verify.p_ordering_scan(n_theta=2, n_u=2)
        verify.p_inequality_scan(verify.PInequalityGrid(n_theta=4, n_u=8))
        verify.p_func(1.0 + 1e-5, 1.0)  # the mpmath path
        verify.nonconcavity_example()
        verify.euler_relation_check(battery[0])
        verify.nonobtuse_hessian_check(nonobtuse[0])
        verify.bounds_check(battery[0])
        verify.u_interval_scan(0.5, 0.5, 100)
        geometry.mean_width(regular, 4)
        geometry.embed(geometry.corr_of(self.tetra[50][0]))
        geometry.gamma_det(0.5, 0.5, np.linspace(0.1, 1.0, 10))

    def cycle(self, k: int) -> list[Item]:
        return self.items

    def shares(self) -> dict:
        return {"report_kind": _shares(item.kind for item in self.items),
                "matrix_class": _shares(self.matrix_tags)}

    def sweep(self, tr, tally: Tally) -> dict:
        outs = {}
        for i, item in enumerate(self.items):
            _, out = run_item(item, i, tr, tally, "bench.certificates.item")
            outs.setdefault(item.kind, out)
        for ts in self.tetra.values():
            for t in ts:
                m = geometry.corr_of(t)
                for _ in range(self.EMBED_REPS):
                    tr.call("geometry.embed", geometry.embed, m)
        rng = np.random.default_rng(self.probe_rng_seed)
        for size in self.WIDTH_INV_SIZES:
            for _ in range(3):
                tr.call("geometry.f_width_inv", geometry.f_width_inv, rng.uniform(0.0, 1.0, size), tag=str(size))
        for x, y in self.uxy:
            zmax = 1.0 / max(x, y)
            z = np.linspace(zmax * 1e-6, zmax * (1 - 1e-9), self.DET_SAMPLES)
            tr.call("geometry.gamma_det", geometry.gamma_det, x, y, z)
        points = 3 * sum(self.WIDTH_INV_SIZES)
        h_rep, p_rep = outs.get("h_monotonicity"), outs.get("p_inequality")
        h_s = tr.durations("verify.h_monotonicity_scan")
        return {
            "geometry.embed.us": (_us(tr.durations("geometry.embed")), "us"),
            "geometry.mean_width.ms.o50": (_ms(tr.durations("geometry.mean_width", tag="random.o50")), "ms"),
            "geometry.mean_width.ms.o200": (_ms(tr.durations("geometry.mean_width", tag="random.o200")), "ms"),
            "geometry.f_width_inv.ns_per_point": (sum(tr.durations("geometry.f_width_inv")) * 1e9 / points, "ns"),
            "geometry.gamma_det.us": (_us(tr.durations("geometry.gamma_det")), "us"),
            "verify.h_monotonicity_scan.s": (median(h_s) if h_s else None, "s"),
            "verify.h_monotonicity.pairs_scanned": (h_rep.details["pairs_scanned"] if h_rep else None, "count"),
            "verify.p_inequality_scan.ms": (_ms(tr.durations("verify.p_inequality_scan")), "ms"),
            "verify.p_inequality.points_refined": (p_rep.details["points_refined"] if p_rep else None, "count"),
            "verify.u_interval_scan.ms": (_ms(tr.durations("verify.u_interval_scan")), "ms"),
            "verify.euler_relation_check.us": (_us(tr.durations("verify.euler_relation_check")), "us"),
            "verify.bounds_check.us": (_us(tr.durations("verify.bounds_check")), "us"),
            "polynomial.identity.ms": (_ms(tr.durations("polynomial.identity")), "ms"),
        }


def _random_tetrahedron(rng: np.random.Generator) -> geometry.Tetrahedron:
    v = rng.normal(size=(4, 3))
    return geometry.Tetrahedron(v / np.linalg.norm(v, axis=1, keepdims=True))


def _width_item(t: geometry.Tetrahedron, order: int, which: str) -> Item:
    tag = f"{which}.o{order}"

    def check(w) -> str | None:
        tol = MEAN_WIDTH_TOL[order]
        if which == "regular":
            rel = abs(RADIAL * w / 2 - F_STAR) / F_STAR
            return None if rel <= tol else f"regular width rel err {rel:.3e} > {tol} at order {order}"
        if w > WIDTH_STAR * (1 + tol):
            return f"random tetrahedron width {w!r} exceeds the regular one at order {order}"
        return None

    return Item("mean_width", tag,
                lambda tr: tr.call("geometry.mean_width", geometry.mean_width, t, order, tag=tag), check)


def _check_report(rep) -> str | None:
    return None if rep.passed else f"report {rep.name} failed: margin {rep.worst_margin!r}"


# ---------------------------------------------------------------------------


class CliProbe:
    """`gaussmax compute` in process (stdout captured) and as one-shot
    subprocesses: what a command-line user pays per call."""

    name = "cli"
    IN_PROCESS = 20
    ONESHOT = 3

    def __init__(self, seed: int):
        rng = _rng(seed, 5)
        self.mats = [optimize.random_interior(rng, min_eig=0.05) for _ in range(self.IN_PROCESS)]
        self._main(self.mats[0])

    @staticmethod
    def _argv(m: CorrelationMatrix4) -> list[str]:
        return ["compute", "--corr=" + ",".join(repr(v) for v in m.offdiag)]

    @classmethod
    def _main(cls, m, tr=UNTRACED):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tr.call("cli.main", cli.main, cls._argv(m), tag="compute")
        return code, buf.getvalue()

    @classmethod
    def _oneshot(cls, m, tr):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        p = tr.call("cli.oneshot", subprocess.run, [sys.executable, "-m", "gaussmax.cli", *cls._argv(m)],
                    cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, tag="compute")
        return p.returncode, p.stdout

    def sweep(self, tr, tally: Tally) -> dict:
        for i, m in enumerate(self.mats):
            item = Item("cli.main", "compute", lambda t, m=m: self._main(m, t), _cli_check(m))
            run_item(item, i, tr, tally, "bench.cli.item")
        for i, m in enumerate(self.mats[:self.ONESHOT]):
            item = Item("cli.oneshot", "compute", lambda t, m=m: self._oneshot(m, t), _cli_check(m))
            run_item(item, self.IN_PROCESS + i, tr, tally, "bench.cli.item")
        return {
            "cli.main.ms.compute": (_ms(tr.durations("cli.main")), "ms"),
            "cli.oneshot_ms.compute": (_ms(tr.durations("cli.oneshot")), "ms"),
        }


def _cli_check(m: CorrelationMatrix4):
    want = closedform.f_max(m)

    def check(out) -> str | None:
        code, stdout = out
        if code != 0:
            return f"cli exit code {code}"
        got = json.loads(stdout)["f_max"]
        return None if got == want else f"cli f_max {got!r} != closedform.f_max {want!r}"

    return check


WORKLOADS = {w.name: w for w in (Ascent, Evaluate, Sampling, Certificates)}


def build(name: str, seed: int):
    return WORKLOADS[name](seed)
