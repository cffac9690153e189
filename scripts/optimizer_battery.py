#!/usr/bin/env python3
"""Multi-start Riemannian gradient ascent experiment.

Runs the ascent on four unit vectors (optimize.maximize) from random interior
starts and reports how close every run gets to the equicorrelated optimum,
the mean and largest iteration count, and a certificate for the last run.

Usage: python scripts/optimizer_battery.py [--starts 20] [--seed N]
"""

import argparse
import json
import sys
import time

import numpy as np

from gaussmax.optimize import certify, maximize, optimal_value, random_interior


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--starts", type=int, default=20)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    target = optimal_value()
    rows = []
    t0 = time.time()
    res = None
    for k in range(args.starts):
        start = random_interior(rng)
        res = maximize(start)
        dist = float(np.max(np.abs(res.argmax.array() + 1.0 / 3.0)))
        rows.append({
            "start": list(start.offdiag),
            "iterations": res.iterations,
            "converged": res.converged,
            "value": res.value,
            "value_gap": target - res.value,
            "argmax_max_dev": dist,
        })
        print(f"start {k:2d}: iters={res.iterations:5d} conv={res.converged} "
              f"dist={dist:.2e} gap={target - res.value:+.2e}")
    elapsed = time.time() - t0
    cert = certify(res)
    summary = {
        "starts": args.starts,
        "seed": args.seed,
        "target_value": target,
        "seconds": round(elapsed, 2),
        "worst_dev": max(r["argmax_max_dev"] for r in rows),
        "mean_iterations": sum(r["iterations"] for r in rows) / len(rows),
        "max_iterations": max(r["iterations"] for r in rows),
        "all_converged": all(r["converged"] for r in rows),
        "certificate": cert.to_json_obj(),
        "runs": rows,
    }
    print(json.dumps({k: v for k, v in summary.items() if k != "runs"},
                     indent=2, sort_keys=True))
    return 0 if summary["all_converged"] and cert.passed else 1


if __name__ == "__main__":
    sys.exit(main())
