"""Command-line interface.

Every command writes a single JSON document to stdout (machine-oriented,
sorted keys); diagnostics go to stderr.  Exit codes: 0 success / passing
verification, 1 failing verification, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import closedform, geometry, montecarlo, optimize, verify
from .corrmat import (
    EPS_CLAMP,
    EPS_ONE,
    EPS_PSD,
    PAIR_NAMES,
    CorrelationMatrix4,
    classify,
    load_matrix,
    parse_entries,
    parse_offdiag_text,
    to_json_obj,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


def _emit(doc: dict, pretty: bool) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2 if pretty else None))


def _matrix_from_args(args) -> CorrelationMatrix4:
    if args.corr:
        return parse_offdiag_text(args.corr)
    if args.file:
        return load_matrix(args.file)
    raise ValueError("provide a matrix via --corr or --file")


_TOLERANCES = {"eps_psd": EPS_PSD, "eps_one": EPS_ONE, "eps_clamp": EPS_CLAMP}


# Each command returns its JSON document; main adds the command name, prints
# it and exits 1 where it carries "pass": false.
def _cmd_compute(args) -> dict:
    if args.corr3:
        r = parse_entries(args.corr3, ("12", "13", "23"))
        return {"inputs": {"corr3": r}, "f_max3": closedform.f_max3(*r),
                "tolerances": _TOLERANCES}
    m = _matrix_from_args(args)
    return {"inputs": to_json_obj(m), "classification": classify(m).tag.value,
            "f_max": closedform.f_max(m), "tolerances": _TOLERANCES}


def _cmd_grad(args) -> dict:
    m = _matrix_from_args(args)
    return {"inputs": to_json_obj(m), "gradient": list(closedform.gradient(m)),
            "tolerances": _TOLERANCES}


def _cmd_hessian(args) -> dict:
    m = _matrix_from_args(args)
    return {"inputs": to_json_obj(m), "hessian": [list(row) for row in closedform.hessian(m)],
            "tolerances": _TOLERANCES}


def _cmd_mc(args) -> dict:
    m = _matrix_from_args(args)
    doc = {"inputs": to_json_obj(m), "samples": args.samples, "seed": args.seed,
           "shards": args.shards}
    est = montecarlo.estimate_max(m, args.samples, args.seed, shards=args.shards)
    doc["estimate"] = {"mean": est.mean, "std_error": est.std_error,
                       "n_samples": est.n_samples, "seed": est.seed}
    if args.order_stats:
        os_ = montecarlo.estimate_order_stats(m, args.samples, args.seed, shards=args.shards)
        doc["order_stats"] = {
            "e1": os_.e1, "e2": os_.e2, "e3": os_.e3, "e4": os_.e4,
            "std_errors": list(os_.std_errors),
            "se_third_identity": os_.se_third_identity,
            "se_second_identity": os_.se_second_identity,
        }
    return doc


def _cmd_meanwidth(args) -> dict:
    if args.tetra:
        t = geometry.load_tetrahedron(args.tetra)
        inputs = t.to_json_obj()
    else:
        m = _matrix_from_args(args)
        t = geometry.embed(m)
        inputs = to_json_obj(m)
    return {"inputs": inputs, "quad_order": args.order,
            "mean_width": geometry.mean_width(t, quad_order=args.order),
            "gaussian_radial_factor": geometry.GAUSSIAN_RADIAL_FACTOR}


def _cmd_dihedrals(args) -> dict:
    m = _matrix_from_args(args)
    return {"inputs": to_json_obj(m), "alpha": list(geometry.dihedrals(m).alpha),
            "facet_pairs": list(PAIR_NAMES)}


def _cmd_optimize(args) -> dict:
    if args.file is not None and args.start != "file":
        raise ValueError(f"--file does not apply to --start {args.start}")
    if args.start == "identity":
        start = CorrelationMatrix4.identity()
    elif args.start == "random":
        start = optimize.random_interior(np.random.default_rng(args.seed))
    else:  # --start file
        if not args.file:
            raise ValueError("--start file needs --file")
        start = load_matrix(args.file)
    cfg = optimize.AscentConfig(grad_tol=args.tol, max_iters=args.max_iters)
    res = optimize.maximize(start, cfg)
    return {
        "inputs": {"start": to_json_obj(start), "seed": args.seed, "tol": args.tol},
        "argmax": to_json_obj(res.argmax),
        "value": res.value,
        "iterations": res.iterations,
        "converged": res.converged,
        "trajectory_summary": [list(t) for t in res.trajectory_summary],
    }


def _battery(seed: int, count: int) -> list[CorrelationMatrix4]:
    rng = np.random.default_rng(seed)
    return [optimize.random_interior(rng) for _ in range(count)]


def _hessian_suite(seed: int) -> list[verify.ScanReport]:
    rng = np.random.default_rng(seed + 1)
    return ([verify.euler_relation_check(m) for m in _battery(seed, 20)]
            + [verify.nonobtuse_hessian_check(verify.sample_nonobtuse_interior(rng))
               for _ in range(10)])


# The verification suites in the order "all" runs them: each maps the seed to
# its reports.  The calls are looked up in verify when a suite runs.
_SUITES = {
    "identity": lambda seed: [verify.polynomial_identity()],
    "monotonicity": lambda seed: [verify.h_monotonicity_scan(), verify.p_ordering_scan()],
    "inequality": lambda seed: [verify.p_inequality_scan()],
    "nonconcavity": lambda seed: [verify.nonconcavity_example()],
    "hessian": _hessian_suite,
    "bounds": lambda seed: [verify.bounds_check(m) for m in _battery(seed, 20) + [
        CorrelationMatrix4.identity(), CorrelationMatrix4.equicorrelated(-1 / 3),
        CorrelationMatrix4.equicorrelated(1.0)]],
}


def _suite_reports(suite: str, seed: int) -> list[verify.ScanReport]:
    if suite == "all":
        return [r for run in _SUITES.values() for r in run(seed)]
    return _SUITES[suite](seed)


def _cmd_verify(args) -> dict:
    reports = _suite_reports(args.suite, args.seed)
    ok = all(r.passed for r in reports)
    doc = {"suite": args.suite, "pass": ok, "reports": [r.to_json_obj() for r in reports]}
    if args.suite == "identity":
        doc["residual"] = 0 if ok else int(reports[0].worst_margin)
    return doc


# Each scan kind: its call on the flags passed (a flag left out takes the
# scan's own default) and the flags it reads.  Passing a flag that only
# another kind reads is a usage error rather than a flag silently ignored.
_SCANS = {
    "u-interval": (lambda x=0.5, y=0.5, **n: verify.u_interval_scan(x, y, **n), ("x", "y", "n")),
    "p-inequality": (lambda **g: verify.p_inequality_scan(verify.PInequalityGrid(**g)),
                     ("n_theta", "n_u")),
    "h-monotonicity": (lambda **g: verify.h_monotonicity_scan(verify.HMonotonicityGrid(**g)),
                       ("n_pairs", "z_steps")),
    "p-ordering": (lambda **g: verify.p_ordering_scan(**g), ("n_theta", "n_u")),
}


def _cmd_scan(args) -> dict:
    run, reads = _SCANS[args.kind]
    for name in dict.fromkeys(n for _, names in _SCANS.values() for n in names):
        if getattr(args, name) is not None and name not in reads:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to --kind {args.kind}")
    rep = run(**{n: getattr(args, n) for n in reads if getattr(args, n) is not None})
    return {"kind": args.kind, "pass": rep.passed, "report": rep.to_json_obj()}


def _add_matrix_args(p: argparse.ArgumentParser):
    """--corr and --file in a group of inputs that other input flags join: two are a usage error."""
    inputs = p.add_mutually_exclusive_group()
    inputs.add_argument("--corr", help="six comma-separated correlations (12,13,14,23,24,34)")
    inputs.add_argument("--file", help="matrix file (text line or JSON with 'offdiag')")
    return inputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussmax",
        description="Expected maximum of 4-D unit-variance Gaussian vectors: "
                    "closed forms, derivatives, Monte Carlo, geometry, "
                    "optimization and verification scans.",
        epilog="GAUSSMAX_THREADS caps worker threads (0 = auto); results "
               "never depend on the thread count. Exit codes: 0 ok / "
               "verification passed, 1 verification failed, 2 usage or "
               "domain error.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("compute", help="closed-form expected maximum")
    _add_matrix_args(p).add_argument(
        "--corr3", help="three correlations r12,r13,r23 for the 3-D formula")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("grad", help="gradient of the expected maximum")
    _add_matrix_args(p)
    p.set_defaults(fn=_cmd_grad)

    p = sub.add_parser("hessian", help="Hessian of the expected maximum")
    _add_matrix_args(p)
    p.set_defaults(fn=_cmd_hessian)

    p = sub.add_parser("mc", help="Monte-Carlo estimate of the expected maximum")
    _add_matrix_args(p)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=None)
    p.add_argument("--order-stats", action="store_true", help="also estimate order statistics")
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("meanwidth", help="mean width by spherical quadrature")
    _add_matrix_args(p).add_argument("--tetra", help="tetrahedron JSON file with 'vertices'")
    p.add_argument("--order", type=int, default=50)
    p.set_defaults(fn=_cmd_meanwidth)

    p = sub.add_parser("dihedrals", help="outer dihedral angles")
    _add_matrix_args(p)
    p.set_defaults(fn=_cmd_dihedrals)

    p = sub.add_parser("optimize",
                       help="Riemannian gradient ascent on four unit vectors to the maximizer")
    p.add_argument("--start", choices=("identity", "random", "file"), default="identity")
    p.add_argument("--file", help="start matrix when --start file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=10_000)
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", choices=(*_SUITES, "all"))
    p.add_argument("--seed", type=int, default=20240401)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("scan", help="parameterized scans")
    p.add_argument("--kind", required=True, choices=tuple(_SCANS))
    # a flag left out takes the scan kind's own default
    p.add_argument("--x", type=float, help="u-interval: x (default 0.5)")
    p.add_argument("--y", type=float, help="u-interval: y (default 0.5)")
    p.add_argument("--n", type=int, help="u-interval: z samples")
    p.add_argument("--n-theta", type=int, help="p-inequality, p-ordering: theta values")
    p.add_argument("--n-u", type=int, help="p-inequality, p-ordering: u values per theta")
    p.add_argument("--n-pairs", type=int, help="h-monotonicity: w values per axis")
    p.add_argument("--z-steps", type=int, help="h-monotonicity: z values per pair")
    p.set_defaults(fn=_cmd_scan)

    return parser


def _merge_dash_values(argv: list[str]) -> list[str]:
    # "--corr -0.3,..." would be read as two options; fold the value in
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--corr", "--corr3") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_dash_values(list(argv)))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        doc = {"command": args.cmd, **args.fn(args)}
        _emit(doc, args.pretty)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_VERIFY_FAIL if doc.get("pass") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
