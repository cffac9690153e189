"""gaussmax benchmark: four seeded closed-loop workloads with one caller.

Run from the repository root:

    python3 perfbench/run.py --workload ascent --seed 1 --seconds 25 --trace 0

Workloads (see DESIGN.md for why each exists and which layer it loads):
ascent, evaluate, sampling, certificates.  BENCHMARK.json gates on the
first three; `certificates` is too unsteady on the reference machine to
gate on, and its layers are measured by every traced run.

--trace 0 measures end to end: set-up time (median of nine set-ups, eight
of them in fresh processes spread over the run), items per second and peak
resident memory.  Items per second is scaled to a reference machine speed
by a calibration kernel timed between items (see harness.py).
--trace 1 runs the workload untraced and traced for half the time each
(their ratio is `trace_overhead`), then a fixed traced sweep of every
workload and the CLI that yields the per-layer metrics; spans go to
.perfbench-out/.

The last line of stdout is the result object {correct, attempted, failed,
metrics}.  The line before it is a report with the environment (core count,
thread counts, versions), input-class shares, failures and fail_ratio.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ascent", "evaluate", "sampling", "certificates")
DEFAULT_SEED = 20261017
SETUP_SAMPLES = 9
OUT_DIR = ROOT / ".perfbench-out"

# Fixed before numpy loads.  One BLAS thread: the (b,4)@(4,4) products in
# Monte Carlo must not add BLAS threads on top of the shard workers.  Two
# Monte-Carlo shard workers, one per core of the 2-core reference machine.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "GAUSSMAX_THREADS": "2",
}

M_ARENA_MAX = -8  # mallopt parameter number in glibc's malloc.h


def one_malloc_arena() -> bool:
    """Make every thread allocate from glibc's main arena.  With per-thread
    arenas, which arena the shard workers' 16 MB blocks land in, and so how
    much freed heap stays resident, depends on thread timing: peak RSS on
    `sampling` varied from 174 to 228 MB between runs.  With one arena it
    repeats within a few MB, at no measured throughput cost."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return mallopt(M_ARENA_MAX, 1) == 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up time and exit (used for the set-up samples)")
    return p.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _setup(name: str, seed: int):
    """Import gaussmax, build the seeded inputs and warm up; the clock for
    setup_s covers exactly this."""
    t0 = perf_counter()
    import workloads

    wl = workloads.build(name, seed)
    return wl, perf_counter() - t0


def _setup_in_child(args) -> float:
    p = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if p.returncode != 0:
        raise RuntimeError(f"set-up in a child process failed:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])["setup_s"]


def untraced(args):
    from harness import UNTRACED, Tally, environment, median, peak_rss_mb, run_loop

    wl, first = _setup(args.workload, args.seed)
    setups = [first]

    def sample_setup(elapsed: float) -> None:
        # The other set-ups are spread over the run, so that their median
        # sees the machine's speed over the whole run, as items_per_s does.
        if len(setups) < SETUP_SAMPLES and elapsed >= len(setups) * args.seconds / SETUP_SAMPLES:
            setups.append(_setup_in_child(args))

    tally = Tally()
    loop = run_loop(wl, args.seconds, UNTRACED, tally, between=sample_setup)
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_in_child(args))
    metrics = {
        "setup_s": _metric(median(setups), "s"),
        "items_per_s": _metric(loop.items_per_s, "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }
    report = {
        "mode": "untraced",
        "raw_items_per_s": loop.raw_items_per_s,
        "setup_samples_s": setups,
        "loop": vars(loop),
        "shares": wl.shares(),
        "environment": environment(),
    }
    return metrics, report, tally


def traced(args):
    import workloads
    from harness import SPAN_FIELDS, UNTRACED, Tally, Tracer, environment, run_loop

    wls = {name: workloads.build(name, args.seed) for name in WORKLOADS}
    wl = wls[args.workload]
    tally = Tally()
    plain = run_loop(wl, args.seconds / 2, UNTRACED, tally)
    loop_tracer = Tracer()
    loop = run_loop(wl, args.seconds / 2, loop_tracer, tally)

    metrics = {}
    sweeps = {}
    for probe in [workloads.CliProbe(args.seed), *wls.values()]:
        tr = Tracer()
        for name, (value, unit) in probe.sweep(tr, tally).items():
            metrics[name] = _metric(value, unit)
        sweeps[probe.name] = tr
    metrics["trace_overhead"] = _metric(plain.items_per_s / loop.items_per_s, "ratio")

    self_s: dict[str, float] = {}
    for tr in sweeps.values():
        for layer, secs in tr.self_seconds_by_layer().items():
            self_s[layer] = self_s.get(layer, 0.0) + secs
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    OUT_DIR.mkdir(exist_ok=True)
    with open(spans_file, "w") as fh:
        json.dump({
            "fields": SPAN_FIELDS,
            "loop": loop_tracer.spans,
            "sweep": {name: tr.spans for name, tr in sweeps.items()},
        }, fh)
    report = {
        "mode": "traced",
        "untraced_loop": vars(plain),
        "traced_loop": vars(loop),
        "sweep_self_s_by_layer": self_s,
        "loop_self_s_by_layer": loop_tracer.self_seconds_by_layer(),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "shares": {name: w.shares() for name, w in wls.items()},
        "environment": environment(),
    }
    return metrics, report, tally


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "gaussmax" / "__init__.py").is_file():
        print(f"error: gaussmax sources not found under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    single_arena = one_malloc_arena()
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_only:
        _, secs = _setup(args.workload, args.seed)
        print(json.dumps({"setup_s": secs}))
        return 0

    metrics, report, tally = (traced if args.trace else untraced)(args)
    report["environment"]["single_malloc_arena"] = single_arena
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  fail_ratio=_metric(tally.failed / tally.attempted, "ratio"),
                  failures=tally.reasons)
    print(f"{args.workload} seed {args.seed}: " + "  ".join(
        f"{k}={m['value']:.6g} {m['unit']}" for k, m in [*metrics.items(), ("fail_ratio", report["fail_ratio"])]
        if m["value"] is not None), file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
