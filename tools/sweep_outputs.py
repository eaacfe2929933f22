"""Write every output file of the bandit and offline kinds at given seeds.

Usage (from the repository root):

    python3 tools/sweep_outputs.py --out DIR [--seeds 0-63] [--set key=value ...]

For each kind (``lifelong``, ``federated``, ``baseline_oracle``,
``baseline_full`` and ``offline``) and each seed it runs the kind's default
config, with the ``--set`` pairs on top, into ``DIR/<kind>/seed<seed>``.
Output paths are given relative to ``DIR``, so ``config.resolved.txt`` does
not depend on where ``DIR`` is, and the sweeps of two source trees compare
with ``diff -r``. The package is imported from the tree this script lives
in. BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` is set, as in ``perfbench/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
if not any(os.environ.get(name) for name in BLAS_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads BLAS

from lifelong_bandits.harness import build_config, run_experiment  # noqa: E402

KINDS = ("lifelong", "federated", "baseline_oracle", "baseline_full", "offline")


def parse_seeds(text: str) -> list[int]:
    """``0-63`` or ``3,5,9`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds += range(int(lo), int(hi) + 1)
        elif part:
            seeds.append(int(part))
    return seeds


def sweep(out: Path, seeds: list[int], pairs: dict[str, str]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    for kind in KINDS:
        for seed in seeds:
            config = build_config(kind, {**pairs, "seeds": f"{seed},", "out": f"{kind}/seed{seed}"})
            run_experiment(config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory to write into")
    parser.add_argument("--seeds", default="0-63", help="seeds, as 0-63 or 3,5,9")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="config pair applied to every kind")
    args = parser.parse_args(argv)
    pairs = dict(item.split("=", 1) for item in args.set)
    sweep(Path(args.out).resolve(), parse_seeds(args.seeds), pairs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
