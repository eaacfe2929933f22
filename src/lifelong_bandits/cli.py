"""Command-line entry point for the experiment runner.

Each subcommand picks an experiment family; the config file and repeated
--override flags fill in the rest. A bare subcommand with no config runs
the reference defaults for that family.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import ConfigError
from .harness import build_config, parse_pairs, run_experiment

_FAMILIES = {
    "offline": ("offline",),
    "lifelong": ("lifelong", "lookup"),
    "federated": ("federated",),
    "baseline": ("baseline_oracle", "baseline_full"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for every later ``main`` call
    of the process: parsing leaves it unchanged (``append`` copies its
    default list before it appends)."""
    parser = argparse.ArgumentParser(
        prog="lifelong-bandits",
        description="Run bandit experiments with learned kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "offline": "support-recovery rate of the pooled group lasso",
        "lifelong": "sequential tasks with kernel learning between tasks",
        "federated": "sequential tasks with index-only vote aggregation",
        "baseline": "fixed-kernel runs (oracle or full)",
    }
    for name in _FAMILIES:
        cmd = sub.add_parser(name, help=helps[name])
        cmd.add_argument("--config", type=Path, help="key = value config file")
        cmd.add_argument("--seeds", help="seed count or comma-separated list")
        cmd.add_argument("--out", help="output directory for traces and summaries")
        cmd.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="set one config key; repeatable",
        )
    return parser


def _resolve_kind(command: str, pairs: dict[str, str]) -> str:
    allowed = _FAMILIES[command]
    kind = pairs.get("kind")
    if kind is None and command == "lifelong" and pairs.get("table"):
        kind = "lookup"
    if kind is None and command == "baseline":
        kind = "baseline_" + pairs.pop("baseline_kernel", "oracle")  # a selector, no key
    if kind is None:
        kind = allowed[0]
    if kind not in allowed:
        raise ConfigError(f"kind {kind!r} does not belong to the {command} command")
    return kind


def _gather_pairs(args) -> dict[str, str]:
    pairs: dict[str, str] = {}
    if args.config is not None:
        pairs.update(parse_pairs(args.config.read_text()))
    for item in args.override:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        pairs[key.strip()] = value.strip()
    if args.seeds is not None:
        pairs["seeds"] = args.seeds
    if args.out is not None:
        pairs["out"] = args.out
    return pairs


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        pairs = _gather_pairs(args)
        kind = _resolve_kind(args.command, pairs)
        pairs["kind"] = kind
        config = build_config(kind, pairs)
        result = run_experiment(config)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    seeds_done = len(config.seeds) - len(result.failures)
    line = f"{config.kind}: {seeds_done}/{len(config.seeds)} seeds, digest {result.digest[:12]}"
    if result.failures:
        line += f", {len(result.failures)} failed"
    if config.out:
        line += f", wrote {config.out}"
    if result.unconverged:
        line += f", {result.unconverged} fits did not converge"
    print(line)
    return 2 if result.failures else 0
