"""Output checks for one harness run, and the digests of its files.

A seed fails when the harness reports it in ``ExperimentResult.failures``
(``cli.main`` exits 0 even then, so its exit status says nothing) or when
any of its outputs fails a check: its trace must re-parse with
``RegretTrace.load``, which verifies the prefix sum, and have m*n rows; its
votes file must have m rows; its recovery file one row per m value. The
aggregate files are re-derived from the per-seed files and must match byte
for byte; a mismatch fails every seed of the run.

Digests compare each per-seed file with the baseline's sha256 in
``reference.json``. A mismatch is shown, not failed: the roadmap
allows disclosed numerics changes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lifelong_bandits.errors import DataError
from lifelong_bandits.harness import RecoveryCurve, RegretTrace, summarize

REFERENCE = Path(__file__).resolve().parent / "reference.json"

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_reference() -> dict:
    """The baseline's per-seed digests ("files") and per-seed costs ("seed_cost_s")."""
    return json.loads(REFERENCE.read_text())


def per_seed_files(kind: str, seed: int) -> list[str]:
    """Names of the deterministic files a run writes for one seed."""
    if kind == "offline":
        return [f"recovery_seed{seed}.csv"]
    names = [f"trace_seed{seed}.csv"]
    if kind == "federated":
        names.append(f"votes_seed{seed}.csv")
    return names


@dataclass
class RunCheck:
    """What the checks found in one run's outputs."""

    attempted: int = 0
    failed: dict[int, str] = field(default_factory=dict)
    digests_matched: int = 0
    digests_compared: int = 0
    final_regrets: list[float] = field(default_factory=list)
    recovered: list[bool] = field(default_factory=list)

    def fail(self, seed: int, reason: str) -> None:
        self.failed.setdefault(seed, reason)


def _data_rows(path: Path) -> list[list[str]] | None:
    """The comma-split rows below a file's header; None if it cannot be read."""
    try:
        return [line.split(",") for line in path.read_text().splitlines()[1:]]
    except OSError:
        return None


def _trace_checks(config, out: Path, seeds, check: RunCheck) -> None:
    traces = {}
    for seed in seeds:
        try:
            trace = RegretTrace.load(out / f"trace_seed{seed}.csv")
        except (OSError, DataError, ValueError) as exc:
            check.fail(seed, f"trace: {exc}")
            continue
        if len(trace.step) != config.m * config.n:
            check.fail(seed, f"trace: {len(trace.step)} rows, expected {config.m * config.n}")
            continue
        traces[seed] = trace
        check.final_regrets.append(float(trace.cumulative[-1]))
        first_steps = np.flatnonzero(np.r_[True, np.diff(trace.task) != 0])
        check.recovered += [bool(r == 1) for r in trace.recovered[first_steps]]
        if config.kind == "federated":
            rows = _data_rows(out / f"votes_seed{seed}.csv")
            if rows is None or len(rows) != config.m:
                check.fail(seed, f"votes: expected {config.m} rows")
    if len(traces) == len(seeds):
        derived = summarize([traces[s] for s in sorted(traces)]).to_text()
        if derived != (out / "summary.csv").read_text():
            for seed in seeds:
                check.fail(seed, "summary.csv differs from the re-derived summary")


def _recovery_checks(config, out: Path, seeds, check: RunCheck) -> None:
    exact = {}
    for seed in seeds:
        rows = _data_rows(out / f"recovery_seed{seed}.csv")
        if rows is None or [r[0] for r in rows] != [str(m) for m in config.m_values]:
            check.fail(seed, "recovery: rows do not follow m_values")
            continue
        exact[seed] = [int(r[1]) for r in rows]
        check.recovered += [e == 1 for e in exact[seed]]
    if len(exact) == len(seeds):
        flags = np.array([exact[s] for s in sorted(exact)])
        k = flags.shape[0]
        ses = flags.std(axis=0, ddof=1) / math.sqrt(k) if k > 1 else np.zeros(flags.shape[1])
        derived = RecoveryCurve(
            config.m_values, flags.mean(axis=0), ses, flags.sum(axis=0), k
        ).to_text()
        if derived != (out / "recovery_curve.csv").read_text():
            for seed in seeds:
                check.fail(seed, "recovery_curve.csv differs from the re-derived curve")


def check_run(result, out: Path, reference: dict[str, str]) -> RunCheck:
    """Check one ExperimentResult and the files it wrote to ``out``."""
    config = result.config
    check = RunCheck(attempted=len(config.seeds))
    for seed, message in result.failures:
        check.fail(seed, f"harness: {message}")
    done = [s for s in config.seeds if s not in check.failed]
    if done:
        if config.kind == "offline":
            _recovery_checks(config, out, done, check)
        else:
            _trace_checks(config, out, done, check)
    for seed in done:
        for name in per_seed_files(config.kind, seed):
            expected = reference.get(f"{config.kind}/{name}")
            if expected is not None and (out / name).exists():
                check.digests_compared += 1
                check.digests_matched += sha256(out / name) == expected
    return check


def compare_outputs(reference_out: Path, out: Path, config, check: RunCheck) -> None:
    """Fail each seed whose files in ``out`` differ in any byte from ``reference_out``.

    A differing aggregate file fails every seed of the run.
    """

    def same(name: str) -> bool:
        a, b = reference_out / name, out / name
        return a.exists() == b.exists() and (not a.exists() or a.read_bytes() == b.read_bytes())

    for seed in config.seeds:
        for name in per_seed_files(config.kind, seed):
            if not same(name):
                check.fail(seed, f"{name} differs from the untraced run")
    for name in ("summary.csv", "recovery_curve.csv", "failures.csv"):
        if not same(name):
            for seed in config.seeds:
                check.fail(seed, f"{name} differs from the untraced run")
