#!/usr/bin/env python3
"""How many tasks does pooled group selection need?

Runs the offline recovery sweep at a handful of task counts and prints the
fraction of seeds that identify the active groups exactly. Each seed draws
its largest task count once and fits the first m of those tasks for every
m. More tasks shrink the group-lasso noise floor, so the hit rate climbs
toward one.
"""

import argparse
import time

from lifelong_bandits.environment import SyntheticSpec
from lifelong_bandits.selection import recovery_sweep

M_VALUES = (2, 5, 10, 20, 30)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10, help="seeds per task count")
    ap.add_argument("--n", type=int, default=10, help="points per task")
    args = ap.parse_args()

    spec = SyntheticSpec()
    print(f"groups p={spec.p}, active |J*|={spec.support_size}, "
          f"noise {spec.noise}, n={args.n} points per task")
    t0 = time.time()
    hits = dict.fromkeys(M_VALUES, 0)
    sizes = dict.fromkeys(M_VALUES, 0)
    for seed in range(args.seeds):
        for m, result in zip(M_VALUES, recovery_sweep(spec, M_VALUES, args.n, 0.25, 0.25, seed)):
            hits[m] += result.exact
            sizes[m] += len(result.selected)
    print(f"{'m':>4}  {'exact':>7}  {'mean |J|':>8}")
    for m in M_VALUES:
        print(f"{m:>4}  {hits[m]:>3}/{args.seeds:<3}  {sizes[m] / args.seeds:>8.1f}")
    print(f"{time.time() - t0:.1f} s for {args.seeds} seeds")


if __name__ == "__main__":
    main()
