"""Benchmark machinery shared by the workloads: spans, the closed loop, and
the statistics and environment record the report needs.

Only the standard library is imported here, so that `run.py` can start the
set-up clock before numpy and gaussmax load.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Any, Callable

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "item", "tag")


class NullTracer:
    """Untraced calls: the end-to-end numbers are measured through this."""

    def call(self, name: str, fn: Callable, *args, tag: str | None = None, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name: str, item: int | None = None, tag: str | None = None):
        return nullcontext()


UNTRACED = NullTracer()


class Tracer:
    """In-memory spans around every public gaussmax call the benchmark makes.

    A span is [name, start_ns, end_ns, parent span index, item id, tag].
    The caller is a single thread, so the open spans form a stack and the
    innermost one is the parent of the next.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._item: int | None = None

    def _open(self, name: str, tag: str | None) -> list:
        rec = [name, 0, 0, self._stack[-1] if self._stack else None, self._item, tag]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def call(self, name: str, fn: Callable, *args, tag: str | None = None, **kwargs):
        rec = self._open(name, tag)
        rec[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def span(self, name: str, item: int | None = None, tag: str | None = None):
        outer_item = self._item
        if item is not None:
            self._item = item
        rec = self._open(name, tag)
        rec[1] = perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()
            self._item = outer_item

    # -- derived numbers ------------------------------------------------------

    def durations(self, name: str, tag: str | None = None, tag_suffix: str | None = None) -> list[float]:
        """Durations in seconds of the spans called ``name`` (optionally with
        the given tag, or a tag ending in ``tag_suffix``)."""
        out = []
        for s in self.spans:
            if s[0] != name:
                continue
            if tag is not None and s[5] != tag:
                continue
            if tag_suffix is not None and not (s[5] or "").endswith(tag_suffix):
                continue
            out.append((s[2] - s[1]) * 1e-9)
        return out

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Span duration minus the part covered by its children, summed per
        layer (the first component of the span name)."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            layer = s[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s[2] - s[1] - child[i]) * 1e-9
        return dict(sorted(out.items()))


@dataclass
class Item:
    """One unit of a workload: ``run`` makes the gaussmax calls (timed);
    ``check`` inspects the result afterwards (untimed) and returns a failure
    reason, or None."""

    kind: str
    tag: str
    run: Callable[[Any], Any]
    check: Callable[[Any], str | None]


@dataclass
class LoopResult:
    items: int = 0
    failed: int = 0
    cycles: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    paused_s: float = 0.0
    cycle_busy_s: list = field(default_factory=list)
    calibration_s: list = field(default_factory=list)

    @property
    def raw_items_per_s(self) -> float:
        return self.items / self.busy_s

    @property
    def items_per_s(self) -> float:
        """Throughput at the reference machine speed."""
        return self.raw_items_per_s * slowdown(self.calibration_s)


class Tally:
    """Items attempted and failed; keeps the first few failure reasons."""

    KEEP = 5

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < self.KEEP:
            self.reasons.append(reason)
            print(f"FAIL {reason}", file=sys.stderr)


def run_item(item: Item, item_id: int, tracer, tally: Tally, span_name: str):
    """Run one item under the clock, then check it.  Returns (seconds, output);
    output is None when the item raised."""
    tally.attempted += 1
    with tracer.span(span_name, item=item_id, tag=item.tag):
        t0 = perf_counter()
        try:
            out = item.run(tracer)
        except Exception:  # the loop must go on; the item counts as failed
            dt = perf_counter() - t0
            tally.fail(f"{item.kind}[{item_id}] raised:\n{traceback.format_exc()}")
            return dt, None
        dt = perf_counter() - t0
    reason = item.check(out)
    if reason is not None:
        tally.fail(f"{item.kind}[{item_id}]: {reason}")
    return dt, out


def run_loop(workload, seconds: float, tracer, tally: Tally,
             between: Callable[[float], None] | None = None) -> LoopResult:
    """Closed loop with one caller: whole cycles of the workload's items,
    each item starting when the previous one returns.  A new cycle starts
    only if, at the mean cycle time so far, it ends within ``seconds``; the
    first cycle always runs.  Throughput counts clock time inside items only,
    so the correctness checks between items do not dilute it.  Between items
    the calibration kernel runs for CALIBRATION_SHARE of the loop's time, and
    then ``between``, if given, with the loop's time so far.  Time spent in
    ``between`` is paused: it does not count against ``seconds``."""
    res = LoopResult()
    start = perf_counter()
    res.calibration_s.append(calibrate())
    calibrated = res.calibration_s[0]
    item_id = 0
    while True:
        cycle_busy = 0.0
        for item in workload.cycle(res.cycles):
            before = tally.failed
            dt, _ = run_item(item, item_id, tracer, tally, f"bench.{workload.name}.item")
            cycle_busy += dt
            res.items += 1
            res.failed += tally.failed - before
            item_id += 1
            while calibrated < CALIBRATION_SHARE * (perf_counter() - start - res.paused_s):
                res.calibration_s.append(calibrate())
                calibrated += res.calibration_s[-1]
            if between is not None:
                t0 = perf_counter()
                between(t0 - start - res.paused_s)
                res.paused_s += perf_counter() - t0
        res.busy_s += cycle_busy
        res.cycle_busy_s.append(cycle_busy)
        res.cycles += 1
        elapsed = perf_counter() - start - res.paused_s
        if elapsed + elapsed / res.cycles > seconds:
            break
    res.wall_s = perf_counter() - start
    return res


# ---------------------------------------------------------------------------
# machine speed
#
# The reference machine is a shared 2-core VM whose speed drifts by 20-40%
# over minutes and flips between a fast and a slow state within seconds: a
# fixed `maximize` call took 0.24-0.38 s within one three-minute window.
# Raw items per second then spread by 20% (IQR over median) across runs,
# whatever the run length.  So the loop times a fixed calibration kernel,
# which does not touch gaussmax, between items, for a steady
# CALIBRATION_SHARE of the wall time, and items per second is scaled to the
# speed at which the kernel takes CALIBRATION_REF_S.  The kernel mixes
# what gaussmax calls spend their time on: 4x4 LAPACK calls with small numpy
# temporaries, and interpreted Python.  The raw numbers and the kernel
# times are in the report line.

CALIBRATION_SHARE = 0.1
CALIBRATION_REF_S = 0.008  # kernel time at the speed the metrics are scaled to


def calibrate() -> float:
    """Seconds the calibration kernel takes now.  The kernel has the shape
    of a closed-form evaluation without using gaussmax: a 4x4 matrix filled
    pair by pair in Python, its eigendecomposition and determinant, and a
    few six-element numpy expressions."""
    import numpy as np

    off = (0.1, -0.2, 0.3, 0.05, -0.1, 0.2)
    lp = 1.0 - np.asarray(off)
    t0 = perf_counter()
    for _ in range(_CALIBRATION_REPS):
        m = np.eye(4)
        for t, (i, j) in enumerate(_PAIRS):
            m[i, j] = m[j, i] = off[t]
        w, v = np.linalg.eigh(m)
        det = float(np.linalg.det(m))
        arg = np.clip(lp / np.sqrt(lp * lp + det), -1.0, 1.0)
        float(np.sum(np.sqrt(lp) * np.arccos(arg)) + (v[0] @ v[1]) * w[0])
    return perf_counter() - t0


_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_CALIBRATION_REPS = 200


def slowdown(calibration_s) -> float:
    """How much slower the machine ran than the reference speed."""
    return statistics.fmean(calibration_s) / CALIBRATION_REF_S


# ---------------------------------------------------------------------------
# statistics


def median(xs) -> float:
    return float(statistics.median(xs))


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    s = sorted(xs)
    return float(s[max(0, math.ceil(q / 100.0 * len(s)) - 1)])


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# environment record


def _openblas_threads() -> int | None:
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import mpmath
    import numpy as np

    from gaussmax import montecarlo

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "GAUSSMAX_THREADS": os.environ.get("GAUSSMAX_THREADS"),
        "montecarlo_thread_count": montecarlo.thread_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "mpmath": mpmath.__version__,
        "machine": platform.machine(),
    }
