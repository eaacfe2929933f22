#!/usr/bin/env python3
"""Clients vote on groups; the server thresholds the tally.

One simulated client arrives per round, fits its own exploration data,
and sends only the resulting index set. The server keeps running counts
and publishes every index backed by at least a fraction alpha of the
voters so far. The printout shows votes arriving and the published set
settling on the hidden support.
"""

import argparse

from lifelong_bandits.environment import SyntheticEnvironment, SyntheticSpec
from lifelong_bandits.federated import run_federated
from lifelong_bandits.gp_ucb import UcbConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--clients", type=int, default=8)
    ap.add_argument("--steps", type=int, default=60)
    ap.add_argument("--alpha", type=float, default=0.25)
    args = ap.parse_args()

    spec = SyntheticSpec(p=12, support_size=3, norm_bound=6.0)
    env = SyntheticEnvironment(spec, n_tasks=args.clients, master_seed=args.seed,
                               grid_points=120)
    record = run_federated(env, args.clients, args.steps, 0.25, 0.2, args.alpha,
                           ucb=UcbConfig(nu=10.0, lam=0.1), seed=args.seed)

    print(f"hidden support: {env.support}, alpha = {args.alpha}")
    print(f"{'round':>5}  {'client vote':<22}  server set")
    for vote, server in zip(record.votes, record.server_sets):
        shown = vote.indices if not vote.failed else "(failed fit)"
        print(f"{vote.client:>5}  {str(shown):<22}  {server}")
    print(f"\nfinal cumulative regret {record.final_regret:.1f}; "
          f"last task's kernel {record.kernels[-1]}")


if __name__ == "__main__":
    main()
