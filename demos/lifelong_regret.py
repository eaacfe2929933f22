#!/usr/bin/env python3
"""Kernel learning pays for itself across a task sequence.

Runs three agents on the same stream of reward functions: one told the
true kernel, one that always uses the full dictionary, and one that
narrows its kernel from data between tasks. Prints per-task regret and
the size of the learned kernel so the crossover is visible.
"""

import argparse

from lifelong_bandits.environment import SyntheticEnvironment, SyntheticSpec
from lifelong_bandits.gp_ucb import UcbConfig
from lifelong_bandits.lifelong import run_baseline, run_lifelong


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tasks", type=int, default=10)
    ap.add_argument("--steps", type=int, default=60)
    args = ap.parse_args()

    # small instance so the demo runs in seconds
    spec = SyntheticSpec(p=12, support_size=3, norm_bound=6.0)
    env = SyntheticEnvironment(spec, n_tasks=args.tasks, master_seed=args.seed,
                               grid_points=120)
    common = dict(ucb=UcbConfig(nu=10.0, lam=0.1), seed=args.seed)

    oracle = run_baseline(env, "oracle", args.tasks, args.steps, **common)
    naive = run_baseline(env, "full", args.tasks, args.steps, **common)
    learned = run_lifelong(env, args.tasks, args.steps, 0.25, 0.5, **common)

    print(f"hidden support: {env.support}")
    print(f"{'task':>4}  {'oracle':>8}  {'learned':>8}  {'naive':>8}  "
          f"{'|kernel|':>8}  recovered")
    for s, kernel in enumerate(learned.kernels):
        print(f"{s + 1:>4}  {oracle.regrets[s].sum():>8.1f}  "
              f"{learned.regrets[s].sum():>8.1f}  {naive.regrets[s].sum():>8.1f}  "
              f"{len(kernel):>8}  {kernel == learned.support}")
    print(f"\nfinal cumulative regret:  oracle {oracle.final_regret:.1f}   "
          f"learned {learned.final_regret:.1f}   naive {naive.final_regret:.1f}")
    print(f"learned kernel after last task: {learned.final_kernel}")


if __name__ == "__main__":
    main()
