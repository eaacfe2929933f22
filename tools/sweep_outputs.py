"""Write every output file of the bandit and offline kinds at given seeds.

Usage (from the repository root):

    python3 tools/sweep_outputs.py --out DIR [--seeds 0-63] [--set key=value ...]

For each kind (``lifelong``, ``federated``, ``baseline_oracle``,
``baseline_full``, ``offline`` and ``lookup``) and each seed it runs the
kind's default config, with the ``--set`` pairs of the keys that the kind
reads (``harness.KIND_KEYS``) on top, into ``DIR/<kind>/seed<seed>``; a
``--set`` key that no kind reads is an error. The ``lookup`` kind runs on
``DIR/table.csv``, which the script writes first (see ``write_table``).
Output and table paths are given relative to ``DIR``, so
``config.resolved.txt`` does not depend on where ``DIR`` is, and the sweeps
of two source trees compare with ``diff -r``. The package is imported from
the tree this script lives in. BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` or
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

import numpy as np  # noqa: E402

from lifelong_bandits.environment import LookupTable, uniform_grid  # noqa: E402
from lifelong_bandits.features import FeatureAtlas  # noqa: E402
from lifelong_bandits.harness import KIND_KEYS, build_config, run_experiment  # noqa: E402

KINDS = ("lifelong", "federated", "baseline_oracle", "baseline_full", "offline", "lookup")
TABLE = "table.csv"


def write_table(path: Path) -> None:
    """A 3-task table on a 12 x 12 grid of [0, 1]^2: each task a random
    combination of the cosine2d groups 2, 5 and 7 (of 9) plus a little
    uniform noise, all drawn from a fixed generator."""
    grid = uniform_grid(np.array([[0.0, 1.0], [0.0, 1.0]]), 12)
    rng = np.random.default_rng(0)
    coeffs = np.zeros((9, 3))
    coeffs[[1, 4, 6]] = rng.uniform(-1.5, 1.5, size=(3, 3))
    values = FeatureAtlas("cosine2d", 9).concat_many(grid) @ coeffs
    values += 0.1 * rng.uniform(size=values.shape)
    LookupTable(["x1", "x2"], ["a", "b", "c"], grid, values).save(path)


def parse_seeds(text: str) -> list[int]:
    """``0-63`` or ``3,5,9`` (or a mix) as a list of seeds, at least one,
    none repeated; an ``argparse`` type."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = map(int, part.split("-"))
            if lo > hi:
                raise argparse.ArgumentTypeError(f"reversed range {part!r}")
            seeds += range(lo, hi + 1)
        elif part:
            seeds.append(int(part))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"a seed repeats in {text!r}")
    return seeds


def parse_pair(text: str) -> tuple[str, str]:
    """``key=value`` as (key, value); an ``argparse`` type."""
    key, equals, value = text.partition("=")
    if not equals:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    return key, value


def sweep(out: Path, seeds: list[int], pairs: dict[str, str]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    write_table(Path(TABLE))
    for kind in KINDS:
        read = {key: value for key, value in pairs.items() if key in KIND_KEYS[kind]}
        table = {"table": TABLE} if kind == "lookup" else {}
        for seed in seeds:
            config = build_config(
                kind, {**read, **table, "seeds": f"{seed},", "out": f"{kind}/seed{seed}"}
            )
            run_experiment(config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory to write into")
    parser.add_argument("--seeds", default="0-63", type=parse_seeds,
                        help="seeds, as 0-63 or 3,5,9")
    parser.add_argument("--set", action="append", default=[], type=parse_pair, metavar="KEY=VALUE",
                        help="config pair, applied to the kinds that read its key")
    args = parser.parse_args(argv)
    pairs = dict(args.set)
    unread = set(pairs).difference(*KIND_KEYS.values())
    if unread:
        parser.error(f"no kind reads {', '.join(sorted(unread))}")
    sweep(Path(args.out).resolve(), args.seeds, pairs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
