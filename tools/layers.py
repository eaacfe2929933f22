"""Per-layer timings of the lifelong_bandits package, written as one JSON file.

Usage (from the repository root):

    python3 tools/layers.py --out BENCH_7.json [--repeats 7]

Every layer runs on a fixed input built from fixed seeds, so two commits
time the same work. Each time is the median over ``--repeats`` timed runs,
after one untimed warm-up run. BLAS runs on one thread unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, as in ``perfbench/``.

Layers:

- ``group_lasso.pooled_learned``: the last pooled fit of a ``learned``-like
  run: 20 tasks on the 500-point grid, 100 forced rows for task 1 and 4 for
  each later task, lam 0.5/sqrt(20), warm-started from the 19-task fit.
- ``group_lasso.pooled_offline``: one cold fit of an ``offline``-like sweep
  point: 20 tasks of 10 continuous uniform points, lam 0.25.
- Both pooled fits run twice: ``newton`` as the package runs them, and
  ``apg_only`` with the Newton hand-off switched off, which iterates as the
  solver did before the hand-off existed; only its Lipschitz constant, now
  taken from the smaller of Phi Phi^T and Phi^T Phi, costs less than it
  did. Each reports the time per call, the APG iterations and the Newton
  steps.
- ``group_lasso.client_fit``: one single-task fit of 10 grid rows at lam
  0.2, like a federated client's.
- ``gp_ucb.step_d5`` and ``gp_ucb.step_d50``: one select plus observe on the
  500-point grid, under a 5-group and the full 50-group kernel, timed over
  ``UCB_STEPS`` steps after ``UCB_WARMUP`` steps of a fresh agent.
- ``trace``: write, parse and summarize a 2 000-step regret trace (20 tasks
  of 100 steps); summarize reads 20 copies of it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
if not any(os.environ.get(name) for name in BLAS_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads BLAS

import numpy as np  # noqa: E402

from lifelong_bandits import group_lasso  # noqa: E402
from lifelong_bandits.environment import SyntheticEnvironment, SyntheticSpec  # noqa: E402
from lifelong_bandits.features import KernelEstimate  # noqa: E402
from lifelong_bandits.gp_ucb import GpUcb, UcbConfig  # noqa: E402
from lifelong_bandits.group_lasso import GroupCoefficients, fit_group_lasso  # noqa: E402
from lifelong_bandits.harness import RegretTrace, summarize  # noqa: E402
from lifelong_bandits.selection import design_from_tasks  # noqa: E402

TASKS = 20
UCB_WARMUP = 20
UCB_STEPS = 50


def median_seconds(run, repeats: int) -> float:
    """Median wall time of ``run()`` over ``repeats`` calls after a warm-up."""
    run()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def grid_tasks(env: SyntheticEnvironment, rows, rng):
    """(points, rewards) per task, from uniform draws of grid rows."""
    tasks = []
    for s, n in enumerate(rows, start=1):
        view = env.task_view(s)
        drawn = rng.integers(env.grid_size, size=n)
        tasks.append((env.grid[drawn], np.array([view.observe(int(i)) for i in drawn])))
    return tasks


def learned_fit():
    """The 20-task design, penalty and warm start of a learned-like last fit."""
    env = SyntheticEnvironment(SyntheticSpec(), n_tasks=TASKS, master_seed=0)
    tasks = grid_tasks(env, [100] + [4] * (TASKS - 1), np.random.default_rng(0))
    prior = design_from_tasks(env.atlas, tasks[:-1])
    coeffs, _ = fit_group_lasso(prior, 0.5 / math.sqrt(TASKS - 1))
    x0 = GroupCoefficients(np.vstack((coeffs.matrix, np.zeros(prior.p))))
    return design_from_tasks(env.atlas, tasks), 0.5 / math.sqrt(TASKS), x0


def offline_fit():
    """The cold 20-task design and penalty of an offline-like sweep point."""
    env = SyntheticEnvironment(SyntheticSpec(), n_tasks=TASKS, master_seed=0)
    rng = np.random.default_rng(1)
    lo, hi = env.atlas.domain[:, 0], env.atlas.domain[:, 1]
    tasks = []
    for s in range(1, TASKS + 1):
        X = rng.uniform(lo, hi, size=(10, env.atlas.dim_in))
        tasks.append((X, env.reward_continuous(s, X, rng)))
    return design_from_tasks(env.atlas, tasks), 0.25, None


def time_pooled_fit(design, lam, x0, repeats: int, handoff: bool) -> dict:
    """Time one pooled fit and split its iterations into APG and Newton."""
    newton_steps = []
    newton_finish = group_lasso._newton_finish

    def counting(*args):
        point, steps = newton_finish(*args)
        newton_steps.append(steps)
        return point, steps

    threshold = group_lasso.HANDOFF_MAP_NORM if handoff else 0.0
    with mock.patch.object(group_lasso, "HANDOFF_MAP_NORM", threshold):
        seconds = median_seconds(lambda: fit_group_lasso(design, lam, x0=x0), repeats)
        with mock.patch.object(group_lasso, "_newton_finish", counting):
            _, report = fit_group_lasso(design, lam, x0=x0)
    return {
        "us_per_call": round(seconds * 1e6, 1),
        "apg_iterations": report.iterations - sum(newton_steps),
        "newton_steps": sum(newton_steps),
        "newton_attempts": len(newton_steps),
        "method": report.method,
        "converged": report.converged,
    }


def client_fit(repeats: int) -> dict:
    env = SyntheticEnvironment(SyntheticSpec(), n_tasks=1, master_seed=0)
    design = design_from_tasks(env.atlas, grid_tasks(env, [10], np.random.default_rng(2)))
    seconds = median_seconds(lambda: fit_group_lasso(design, 0.2), repeats)
    _, report = fit_group_lasso(design, 0.2)
    return {
        "us_per_call": round(seconds * 1e6, 1),
        "steps": report.iterations,
        "method": report.method,
    }


def ucb_step(selected, repeats: int) -> dict:
    env = SyntheticEnvironment(SyntheticSpec(), n_tasks=1, master_seed=0)
    estimate = KernelEstimate(p=env.p, selected=selected)
    view = env.task_view(1)

    def steps(agent, count):
        for _ in range(count):
            i = agent.select(env.grid)
            agent.observe(i, view.observe(i), env.grid)

    def run():
        agent = GpUcb(env.atlas, estimate, UcbConfig())
        steps(agent, UCB_WARMUP)
        start = time.perf_counter()
        steps(agent, UCB_STEPS)
        return time.perf_counter() - start

    run()
    seconds = statistics.median(run() for _ in range(repeats))
    return {"d": len(selected), "us_per_step": round(seconds / UCB_STEPS * 1e6, 2)}


def trace_io(repeats: int) -> dict:
    rng = np.random.default_rng(3)
    n = TASKS * 100
    inst = rng.exponential(size=n)
    trace = RegretTrace(
        step=np.arange(1, n + 1),
        task=np.repeat(np.arange(1, TASKS + 1), 100),
        instantaneous=inst,
        cumulative=np.cumsum(inst),
        kernel_size=rng.integers(1, 51, size=n),
        recovered=rng.integers(-1, 2, size=n),
        explored=rng.integers(0, 2, size=n),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write = median_seconds(lambda: trace.save(path), repeats)
        parse = median_seconds(lambda: RegretTrace.load(path), repeats)
        summ = median_seconds(lambda: summarize([trace] * TASKS), repeats)
        size = path.stat().st_size
    return {
        "steps": n,
        "bytes": size,
        "write_us": round(write * 1e6, 1),
        "parse_us": round(parse * 1e6, 1),
        "summarize_us": round(summ * 1e6, 1),
    }


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": next(os.environ[v] for v in BLAS_VARIABLES if os.environ.get(v)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--repeats", type=int, default=7, help="timed runs per layer")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    layers = {}
    for name, build in (("pooled_learned", learned_fit), ("pooled_offline", offline_fit)):
        design, lam, x0 = build()
        layers[f"group_lasso.{name}"] = {
            "tasks": design.m,
            "rows": design.total_rows,
            "lam": lam,
            "warm": x0 is not None,
            "newton": time_pooled_fit(design, lam, x0, args.repeats, handoff=True),
            "apg_only": time_pooled_fit(design, lam, x0, args.repeats, handoff=False),
        }
    layers["group_lasso.client_fit"] = client_fit(args.repeats)
    layers["gp_ucb.step_d5"] = ucb_step((1, 2, 3, 4, 5), args.repeats)
    layers["gp_ucb.step_d50"] = ucb_step(tuple(range(1, 51)), args.repeats)
    layers["trace"] = trace_io(args.repeats)
    result = {"machine": machine(), "repeats": args.repeats, "layers": layers}
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
