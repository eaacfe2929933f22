"""The four benchmark workloads and how each one drives the public harness.

Every workload is a closed loop: one process runs one experiment seed after
another through ``harness.run_experiment`` (or ``cli.main`` for
fixed-kernel), with no threads beyond the BLAS library's own; BLAS runs on
one thread unless the environment sets a count (see ``blas_threads``).

Experiment seeds come from the workload seed, out of the pool
``0 .. POOL - 1``. The pool is finite so that ``reference.json`` can hold
the baseline digest of every per-seed output file the benchmark can write,
and the baseline wall time of every seed. Seeds differ a lot in cost (a few
federated seeds take three times the median), so a plain random sample
would make a run's wall time depend mostly on which seeds it drew. The
sample is stratified instead: the pool, ordered by baseline cost, is cut
into as many strata as the run takes seeds, and a draw takes one seed from
each stratum. Even so, which seed a draw takes from the widest stratum
moves the total by several percent, so the workload seed makes ``DRAWS``
draws and keeps the one whose baseline cost is closest to the mean over
all draws: every workload seed gives different inputs but the same work.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

from lifelong_bandits import cli, harness

POOL = 64
DRAWS = 256


@dataclass(frozen=True)
class Run:
    """One harness run of a workload: its config kind, and its CLI command
    when the run goes through ``cli.main``."""

    kind: str
    cli: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    runs: tuple[Run, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "learned",
            "lifelong defaults: warm-started pooled group-lasso fits and kernel selection dominate",
            (Run("lifelong"),),
        ),
        Workload(
            "fixed-kernel",
            "baseline CLI with oracle then full kernel: GP-UCB select at d=5 and d=50, no lasso",
            (
                Run("baseline_oracle", ("baseline", "--override", "baseline_kernel=oracle")),
                Run("baseline_full", ("baseline", "--override", "baseline_kernel=full")),
            ),
        ),
        Workload(
            "federated",
            "federated defaults: single-task cold fits, observation replay and the vote ledger",
            (Run("federated"),),
        ),
        Workload(
            "offline",
            "recovery sweep m=1..30: cold pooled fits on off-grid points, no bandit at all",
            (Run("offline"),),
        ),
    )
}

# tiny but complete runs that pay each runner's first-call costs (lazy
# imports, BLAS thread start-up) before anything is timed
_WARM_UP = {
    "lifelong": {"seeds": "0,", "m": "2", "n": "10"},
    "federated": {"seeds": "0,", "m": "2", "n": "10"},
    "baseline_oracle": {"seeds": "0,", "m": "1", "n": "10"},
    "baseline_full": {"seeds": "0,", "m": "1", "n": "10"},
    "offline": {"seeds": "0,", "m_values": "1,2"},
}


def seed_count(seconds: float, costs: list[float]) -> int:
    """Seeds a run of ``seconds`` covers at baseline speed; fixed for a given budget."""
    return max(1, min(POOL, round(seconds / statistics.fmean(costs))))


def experiment_seeds(seed: int, count: int, costs: list[float]) -> tuple[int, ...]:
    """One seed from each of ``count`` cost strata; the same seed gives the same list.

    Of ``DRAWS`` such draws, the one whose total baseline cost is closest
    to the mean total of a draw.
    """
    order = sorted(range(POOL), key=lambda s: (costs[s], s))
    rng = random.Random(seed)
    strata = [order[i * POOL // count:(i + 1) * POOL // count] for i in range(count)]
    mean_total = sum(statistics.fmean(costs[s] for s in stratum) for stratum in strata)
    draws = [[rng.choice(stratum) for stratum in strata] for _ in range(DRAWS)]
    best = min(draws, key=lambda draw: abs(sum(costs[s] for s in draw) - mean_total))
    return tuple(sorted(best))


@contextlib.contextmanager
def _capture_result():
    """Keep the ExperimentResult that ``cli.main`` computes but does not return."""
    results = []
    inner = cli.run_experiment

    def keep(config):
        result = inner(config)
        results.append(result)
        return result

    cli.run_experiment = keep
    try:
        yield results
    finally:
        cli.run_experiment = inner


def execute(run: Run, pairs: dict[str, str], out: Path | None = None):
    """Run one harness experiment and return its ExperimentResult.

    ``pairs`` holds the config keys beyond the kind's defaults. Module
    attributes are looked up at call time, so a tracer that replaced them
    sees these calls.
    """
    pairs = dict(pairs, out=str(out) if out is not None else "")
    if not run.cli:
        return harness.run_experiment(harness.build_config(run.kind, pairs))
    argv = list(run.cli)
    for key, value in pairs.items():
        argv += ["--override", f"{key}={value}"]
    with _capture_result() as results, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0 or len(results) != 1:
        raise RuntimeError(f"cli.main {argv} exited {code}")
    return results[0]


def warm_up(workload: Workload) -> None:
    """Resolve every config the workload uses and make one tiny call per runner."""
    for run in workload.runs:
        harness.build_config(run.kind, {})
        execute(run, _WARM_UP[run.kind])


def run_phase(workload: Workload, seeds: tuple[int, ...], out: Path, timed) -> list:
    """The timed work: every run of the workload over ``seeds``, outputs written.

    Each seed of each run is its own harness call, into
    ``out/<kind>/seed<seed>``, made through ``timed(execute, ...)``, so
    the caller can time each call by itself. Returns (run, output
    directory, ExperimentResult) triples.
    """
    done = []
    for seed in seeds:
        for run in workload.runs:
            run_out = out / run.kind / f"seed{seed}"
            done.append((run, run_out, timed(execute, run, {"seeds": f"{seed},"}, run_out)))
    return done
