"""Benchmark of the lifelong-bandits package: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload learned --seed 3 --seconds 18 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
seeds untraced and then traced and prints the per-layer metrics. A short
report comes first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md
in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import blas_threads  # noqa: E402  (before numpy)
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "cpu_ref_s": "s",
    "peak_rss_mb": "MB",
    "seed_ok_ratio": "share",
}
SETUP_REPEATS = 7
WORK = ROOT / ".perfbench_work"


def setup_seconds(workload: workloads.Workload) -> float:
    """Median time from a fresh process to ready, over SETUP_REPEATS starts."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        times.append(ready - start)
    return statistics.median(times)


def timed_phase(workload, seeds, out: Path):
    """Run the workload over ``seeds`` into ``out``; return (done, its Stopwatch)."""
    shutil.rmtree(out, ignore_errors=True)
    watch = speed.Stopwatch()
    return workloads.run_phase(workload, seeds, out, watch), watch


def check_all(done, digests) -> list[checks.RunCheck]:
    return [checks.check_run(result, out, digests) for _, out, result in done]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_metadata(workload: str, seed: int, seeds) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "workload_seed": seed,
        "experiment_seeds": list(seeds),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **blas_threads.FOUND,
        "blas_threads_used": os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS"),
        "commit": git_commit(),
    }


def summarize_checks(found: list[checks.RunCheck]) -> dict:
    attempted = sum(c.attempted for c in found)
    failed = sum(len(c.failed) for c in found)
    regrets = [r for c in found for r in c.final_regrets]
    recovered = [r for c in found for r in c.recovered]
    compared = sum(c.digests_compared for c in found)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": [f"{seed}: {why}" for c in found for seed, why in c.failed.items()],
        "regret_mean": statistics.fmean(regrets) if regrets else None,
        "regret_runs": len(regrets),
        "recovery_rate": statistics.fmean(recovered) if recovered else None,
        "recovery_outcomes": len(recovered),
        "digests_matched": sum(c.digests_matched for c in found),
        "digests_compared": compared,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
    """One benchmark run: (metrics, check summary, metadata)."""
    workload = workloads.WORKLOADS[name]
    reference = checks.load_reference()
    costs = reference["seed_cost_s"][name]
    count = workloads.seed_count(seconds, costs)
    digests = reference["files"]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if not trace:
        setup_s = setup_seconds(workload)
        workloads.warm_up(workload)
        seeds = workloads.experiment_seeds(seed, count, costs)
        done, watch = timed_phase(workload, seeds, work / "untraced")
        found = summarize_checks(check_all(done, digests))
        metrics = {
            "setup_s": setup_s,
            "wall_ref_s": watch.wall_ref_s,
            "cpu_ref_s": watch.cpu_ref_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "seed_ok_ratio": (found["attempted"] - found["failed"]) / found["attempted"],
        }
    else:
        # the same seeds untraced and then traced, so the two wall times
        # differ by the tracing overhead alone
        workloads.warm_up(workload)
        seeds = workloads.experiment_seeds(seed, max(1, count // 2), costs)
        done, watch = timed_phase(workload, seeds, work / "untraced")
        with Tracer() as tracer:
            traced, traced_watch = timed_phase(workload, seeds, work / "traced")
        tracer.save(work / "spans.jsonl")
        traced_checks = check_all(traced, digests)
        for (_, out, result), check in zip(traced, traced_checks):
            untraced_out = work / "untraced" / out.relative_to(work / "traced")
            checks.compare_outputs(untraced_out, out, result.config, check)
        found = summarize_checks(check_all(done, digests) + traced_checks)
        metrics = tracer.metrics()
        metrics["harness.outputs_identical"] = (
            found["digests_matched"] / found["digests_compared"] if found["digests_compared"] else 0.0
        )
        metrics["trace.overhead_s"] = traced_watch.wall_ref_s - watch.wall_ref_s
    meta = run_metadata(name, seed, seeds)
    meta.update(wall_s=watch.wall_s, cpu_s=watch.cpu_s, timed_calls=watch.calls)
    (work / "run.json").write_text(json.dumps({"meta": meta, "checks": found, "metrics": metrics}, indent=1))
    return metrics, found, meta


def report(metrics: dict, units: dict, found: dict, meta: dict) -> None:
    print(" ".join(f"{k}={v}" for k, v in meta.items()
                   if k not in ("experiment_seeds", "wall_s", "cpu_s", "timed_calls")))
    print(f"untraced phase: {meta['wall_s']:.4f} s wall, {meta['cpu_s']:.4f} s CPU, unscaled,"
          f" over {meta['timed_calls']} harness calls")
    print(f"experiment seeds: {meta['experiment_seeds']}")
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:>14.6g} {unit}")
    print(f"{'seed_fail_ratio':34s} {found['failed']}/{found['attempted']} failed/attempted seeds")
    if found["regret_mean"] is not None:
        print(f"{'regret_mean':34s} {found['regret_mean']:>14.6g} regret (over {found['regret_runs']} runs)")
    if found["recovery_rate"] is not None:
        print(f"{'recovery_rate':34s} {found['recovery_rate']:>14.6g} share "
              f"(over {found['recovery_outcomes']} exact-support outcomes)")
    print(f"{'reference digests matched':34s} {found['digests_matched']}/{found['digests_compared']} files")
    for line in found["failures"]:
        print(f"FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    metrics, found, meta = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = LAYER_METRICS if args.trace else END_TO_END
    report(metrics, units, found, meta)
    print(json.dumps({
        "correct": found["failed"] == 0,
        "attempted": found["attempted"],
        "failed": found["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
