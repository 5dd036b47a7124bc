#!/usr/bin/env python3
"""Empirical scaling of random-hyperplane separators on 1-ply cap systems.

For near-uniform systems of n disjoint caps on the 2-sphere, the number of
caps hit by a random great circle should grow like sqrt(n).  This script
measures the median hit count over a range of n and fits the exponent by
least squares on log-log data, over the sizes whose median is positive;
with fewer than two distinct such sizes it prints "fitted exponent: n/a".

Usage: python3 scripts/separator_scaling.py [--trials T] [--seed S] [--sizes N ...]
"""

import argparse
import math

from polyscribe.caps import near_uniform_system, random_hyperplane_separator


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--sizes", type=int, nargs="*",
                    default=[60, 125, 250, 500, 1000])
    args = ap.parse_args(argv)

    rows = []
    print(f"{'n':>6} {'median':>8} {'mean':>8} {'min':>5} {'median/sqrt(n)':>15}")
    for n in args.sizes:
        cs = near_uniform_system(n, seed=1)
        rep = random_hyperplane_separator(cs, trials=args.trials, seed=args.seed)
        med = float(rep.median_hits)
        rows.append((n, med))
        print(f"{n:>6} {med:>8.1f} {float(rep.mean_hits):>8.2f} "
              f"{rep.min_hits:>5} {med / math.sqrt(n):>15.3f}")

    pts = [(math.log(n), math.log(m)) for n, m in rows if m > 0]
    if len({x for x, _ in pts}) < 2:
        print("\nfitted exponent: n/a")
        return
    xs, ys = zip(*pts)
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
             / sum((x - xbar) ** 2 for x in xs))
    print(f"\nfitted exponent: {slope:.3f}  (sqrt-law target: 0.5)")


if __name__ == "__main__":
    main()
