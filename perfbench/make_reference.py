"""Record the baseline digests and per-seed costs over the seed pool.

Usage (from the repository root, at the commit that sets the baseline):

    python3 perfbench/make_reference.py

Runs every workload on each experiment seed 0 .. POOL-1 by itself, twice,
and rewrites reference.json with the sha256 of every per-seed output file
and each seed's wall time at the reference speed of ``speed.py`` (the mean
of the two passes). The two passes must write identical files. It takes
about a quarter of an hour on two cores.
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import blas_threads  # noqa: E402,F401  (before numpy)
import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    out = HERE.parent / ".perfbench_work" / "reference"
    files: dict[str, str] = {}
    costs: dict[str, list[float]] = {}
    watch = speed.Stopwatch()
    for workload in workloads.WORKLOADS.values():
        workloads.warm_up(workload)
        times = []
        for seed in range(workloads.POOL):
            passes = []
            for _ in range(2):
                shutil.rmtree(out, ignore_errors=True)
                start = watch.wall_ref_s
                done = workloads.run_phase(workload, (seed,), out, watch)
                passes.append(watch.wall_ref_s - start)
                for run, run_out, result in done:
                    if result.failures:
                        raise RuntimeError(f"{run.kind} seed {seed} failed: {result.failures}")
                    for name in checks.per_seed_files(run.kind, seed):
                        digest = checks.sha256(run_out / name)
                        if files.setdefault(f"{run.kind}/{name}", digest) != digest:
                            raise RuntimeError(f"{run.kind}/{name} differs between passes")
            times.append(round(statistics.fmean(passes), 3))
        costs[workload.name] = times
        print(f"{workload.name}: mean {sum(times) / len(times):.3f} s per seed", flush=True)
    commit = subprocess.run(
        ["git", "-C", str(HERE.parent), "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    checks.REFERENCE.write_text(json.dumps(
        {"commit": commit, "pool": workloads.POOL, "seed_cost_s": costs, "files": files},
        indent=1, sort_keys=True,
    ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
