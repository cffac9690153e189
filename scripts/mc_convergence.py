#!/usr/bin/env python3
"""Monte-Carlo vs closed-form convergence experiment.

For a chosen matrix, estimates the expected maximum at increasing sample
counts and prints the error in units of the standard error, and the
standard error times sqrt(n): the spread per sample, which stays flat as n
grows and shows the estimator's efficiency (the smaller, the fewer samples
a given accuracy takes).

Usage: python scripts/mc_convergence.py [--corr "r12,...,r34"] [--seed N]
"""

import argparse
import math
import sys

from gaussmax.closedform import f_max
from gaussmax.corrmat import parse_offdiag_text
from gaussmax.montecarlo import estimate_max


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--corr", default="-0.333333333333,-0.333333333333,-0.333333333333,"
                                      "-0.333333333333,-0.333333333333,-0.333333333333")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    m = parse_offdiag_text(args.corr)
    exact = f_max(m)
    print(f"closed form: {exact:.12f}")
    print(f"{'n':>12} {'estimate':>16} {'std error':>12} {'err/SE':>8} {'se*sqrt(n)':>11}")
    for n in (10_000, 100_000, 1_000_000, 10_000_000):
        est = estimate_max(m, n, seed=args.seed)
        z = abs(est.mean - exact) / est.std_error if est.std_error else 0.0
        print(f"{n:>12d} {est.mean:>16.8f} {est.std_error:>12.2e} {z:>8.2f} "
              f"{est.std_error * math.sqrt(n):>11.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
