"""Per-layer timings of the lifelong_bandits package, written as one JSON file.

Usage (from the repository root):

    python3 tools/layers.py --out OUT.json [--repeats 7]

The committed ``BENCH_*.json`` files hold its output, each beside that of
the commit it was measured against.

Every layer runs on a fixed input built from fixed seeds, so two commits
time the same work. Each time is the median over ``--repeats`` timed runs,
after one untimed warm-up run, and ``<time>_p25`` and ``<time>_p75`` beside
it hold the 25th and 75th percentiles of those runs, so a layer that moves
between runs shows it. BLAS runs on one thread unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, as in ``perfbench/``.

Layers:

- ``group_lasso.pooled_learned``: the last pooled fit of a ``learned``-like
  run: 20 tasks on the 500-point grid, 100 forced rows for task 1 and 4 for
  each later task, lam 0.5/sqrt(20), warm-started from the 19-task fit.
- ``group_lasso.pooled_offline``: one cold fit of an ``offline``-like sweep
  point: 20 tasks of 10 continuous uniform points, lam 0.25.
- ``group_lasso.pooled_offline_warm``: the same fit warm-started from the
  fit over its first 19 tasks, as the offline sweep over m = 1..30 starts it.
- Each pooled fit runs twice: ``newton`` as the package runs it, handing off
  to Newton once the iteration has slowed, and ``apg_only`` with the Newton
  hand-off switched off, which iterates as the solver did before the
  hand-off existed; only its Lipschitz constant, which the design now
  computes when it is built, costs it nothing. A warm fit's start is
  built under the same setting as the fit: ``padded_warm_start`` of an
  untimed fit over the first 19 tasks, the earlier fit with a predicted row
  for the 20th task, as the runners build it. So ``apg_only`` never meets a
  Newton point, and a hand-off change leaves it as it was. Each reports the time
  per call and the APG iterations, Newton steps and Newton attempts (read
  from the fit's ``SolverReport``). ``apg_only`` also reports the time per
  iteration, the cost of one APG iteration; a ``newton`` fit does not, as
  its APG iterations and Newton steps cost 2-3x apart and their mean prices
  neither.
- ``group_lasso.lifelong_seed``: every pooled fit of the default
  ``lifelong`` run at seed 0 (tasks 2 to 20), timed as one unit, on the
  designs, penalties and predicted starts the runner built for them. Its
  tasks hold the forced rows the runner draws, 10 for task 1 and 8 down to
  4 for the later ones, where ``pooled_learned`` gives task 1 100 rows and
  every later task 4. It reports the time per seed and the APG iterations, Newton
  steps and Newton attempts summed over the fits.
  A design copies each task's rows into its row stack and computes every
  statistic a fit reads (the task's crossterm, ||y_s||^2 and top Gram
  eigenvalue) when it is built, before any fit, so these times hold the
  iteration alone, not the design and eigenvalue work.
- ``group_lasso.offline_seed``: every pooled fit of the default ``offline``
  sweep at seed 0 (m = 2 to 30, 10 points per task), timed as one unit on
  the designs and starts the sweep built for them, and reported as
  ``lifelong_seed``.
- ``group_lasso.pooled_p2000``: the 2-task pooled fit of the ``lifelong``
  run at p=2000, m=4, n=20, seed 0, as the runner made it: two tasks of 4
  forced rows each against 2 000 groups, so every product goes through the
  (2, 4, 2000) row stack. Timed and reported as ``pooled_learned``'s
  ``newton`` fit.
- ``group_lasso.client_fit``: one single-task fit of 10 grid rows, sliced
  from the environment's grid features, at lam 0.2: the lasso path with
  K = 1, as the task-1 fit of a ``lifelong`` run and the m = 1 fit of an
  ``offline`` sweep take it. ``design_us`` times the design build alone.
- ``federated.client_fits``: the 20 clients of the default ``federated``
  run at seed 0, with the rows and rewards the runner drew for them, fitted
  into votes: ``batched_us`` in one ``federated.client_fits`` call, as the
  runner fits them, and ``one_by_one_us`` in 20 ``federated.client_fits``
  calls of one client each. ``path_fits`` counts the clients whose path is
  certified, from the reports of the batched call; the others fall back to
  the iterative solver.
- ``selection.design``: the design work outside the solver: building the
  design, which copies each task's rows into the row stack and computes its
  crossterm, ||y_s||^2 and top Gram eigenvalue, the eigenvalues in one
  batched call.
  ``learned_seed``: the one design of a ``learned``-like seed, which the
  lifelong runner builds before its first fit and whose prefixes every fit
  reads: 20 tasks of the runner's forced-row counts (10 for task 1, 8 down
  to 4 for the later ones) from uniform grid draws, sliced from the
  environment's grid features.
  ``offline_seed_setup``: one seed of the default offline sweep
  (m = 1..30, n = 10) without its fits: ``sweep`` runs ``recovery_sweep``
  with the fit replaced by a stand-in reporting a fit that did not
  converge, so no fit is warm-started.
- ``gp_ucb.step_d5`` and ``gp_ucb.step_d50``: one select plus observe on the
  500-point grid, under a 5-group and the full 50-group kernel, timed over
  ``UCB_STEPS`` steps after ``UCB_WARMUP`` steps of a fresh one-agent
  ``LockstepUcb`` on task 1, every run with the same draws: the task's
  first noise terms.
- ``gp_ucb.lockstep_d5`` and ``gp_ucb.lockstep_d50``: the same steps for 20
  tasks at once through one ``LockstepUcb`` (the agent pass of every
  runner, ``lifelong._run_agents``), in microseconds per task-step, so
  they compare with ``step_d5`` and ``step_d50`` directly. A ``LockstepUcb`` folds its
  pending updates into the inverse once every D observations, D the union
  width, so the timed window (observations 21 to 70) holds one fold at
  d=50 and ten at d=5.
- ``gp_ucb.lockstep_mixed``: the same steps for the 20 kernels of the
  default ``lifelong`` run at seed 0, one per task, at the width ``d`` of
  their union, as the runner steps them.
- ``trace``: write, parse and summarize a 2 000-step regret trace (20 tasks
  of 100 steps), its columns at the dtypes ``RegretTrace`` declares;
  summarize reads 20 copies of it. Its regrets are random draws, all
  distinct: the worst case of the column writer, which formats each
  distinct value of a column once. ``parse_peak_kb`` is the ``tracemalloc``
  peak of one ``RegretTrace.load`` of it: the file's text, the reader's
  own allocations and the parsed columns.
- ``harness.outputs``: the trace and summary text of one default
  ``baseline_oracle`` and one default ``federated`` seed (seed 0), the
  traffic the writer serves, made as a run writes its files: the summary
  first, into one memo, and the trace through a copy of it, so the trace
  reuses every column the summary formatted (a one-seed summary repeats the
  trace's ``step``, ``task`` and regret columns, and its two standard-error
  columns are one all-zero column). Real traces
  also repeat their values (most instantaneous regrets are exactly 0.0).
  ``distinct`` counts the distinct values of the trace's ``instantaneous``
  and ``cumulative`` columns. ``held_bytes`` counts the bytes of the arrays
  the one-seed result holds in its traces and summary, each buffer once (the
  summary shares the trace's ``step``, ``task`` and, as its means, regret
  columns) and a zero-stride column (a one-seed standard error) as 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import tempfile
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
if not any(os.environ.get(name) for name in BLAS_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads BLAS

import numpy as np  # noqa: E402

from lifelong_bandits import federated, group_lasso, selection  # noqa: E402
from lifelong_bandits.environment import SyntheticEnvironment, SyntheticSpec  # noqa: E402
from lifelong_bandits.federated import run_federated  # noqa: E402
from lifelong_bandits.gp_ucb import LockstepUcb, UcbConfig  # noqa: E402
from lifelong_bandits.group_lasso import (  # noqa: E402
    PooledDesign,
    SolverReport,
    fit_group_lasso,
    padded_warm_start,
)
from lifelong_bandits.harness import (  # noqa: E402
    RegretTrace,
    build_config,
    run_experiment,
    summarize,
)
from lifelong_bandits.lifelong import integerize, run_lifelong  # noqa: E402
from lifelong_bandits.selection import recovery_sweep  # noqa: E402

TASKS = 20
DESIGN_BUILDS = 100  # client designs built per timed run, which one alone is too short to time
UCB_WARMUP = 20
UCB_STEPS = 50


def seconds_of(run, repeats: int) -> list[float]:
    """Wall times of ``run()`` over ``repeats`` calls after a warm-up."""
    run()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return times


def quartiles(key: str, seconds, per: float = 1.0, digits: int = 1) -> dict:
    """``key``: the median of ``seconds`` in microseconds per ``per`` units,
    and ``key_p25`` and ``key_p75``: its 25th and 75th percentiles."""
    p25, p50, p75 = np.percentile(np.asarray(seconds) * 1e6 / per, [25, 50, 75]).tolist()
    return {
        key: round(p50, digits),
        f"{key}_p25": round(p25, digits),
        f"{key}_p75": round(p75, digits),
    }


def grid_draws(env: SyntheticEnvironment, rows, rng):
    """(grid indices, rewards) per task, from uniform draws of grid rows,
    each task's rewards drawn from its own noise stream as the runners draw
    them."""
    draws = []
    for s, n in enumerate(rows, start=1):
        view = env.task_view(s)
        drawn = rng.integers(env.grid_size, size=n)
        draws.append((drawn, view.values[drawn] + view.noise_terms(n)))
    return draws


def grid_design(env: SyntheticEnvironment, draws) -> PooledDesign:
    """The pooled design of (grid indices, rewards) draws."""
    return PooledDesign([env.grid_features[drawn] for drawn, _ in draws], [y for _, y in draws])


def learned_fit():
    """The 20-task design and penalty of a learned-like last fit, and the
    builder of its warm start from the 19-task fit."""
    env = SyntheticEnvironment(SyntheticSpec(), n_tasks=TASKS, master_seed=0)
    draws = grid_draws(env, [100] + [4] * (TASKS - 1), np.random.default_rng(0))
    design, lam = grid_design(env, draws), 0.5 / math.sqrt(TASKS)
    return design, lam, lambda: prefix_start(design, lam, 0.5 / math.sqrt(TASKS - 1))


def offline_fit():
    """The cold 20-task design and penalty of an offline-like sweep point,
    without a start."""
    env = SyntheticEnvironment(SyntheticSpec(), n_tasks=TASKS, master_seed=0)
    rng = np.random.default_rng(1)
    lo, hi = env.atlas.domain[:, 0], env.atlas.domain[:, 1]
    features, rewards = [], []
    for s in range(1, TASKS + 1):
        phi = env.atlas.concat_many(rng.uniform(lo, hi, size=(10, env.atlas.dim_in)))
        features.append(phi)
        rewards.append(phi @ env.coeffs[s - 1] + env.noise * rng.standard_normal(10))
    return PooledDesign(features, rewards), 0.25, None


def offline_warm_fit():
    """The same 20-task fit, warm-started from the 19-task one as the sweep
    over m = 1..30 starts it."""
    design, lam, _ = offline_fit()
    return design, lam, lambda: prefix_start(design, lam, lam)


def prefix_start(design, lam, prefix_lam):
    """The start of a fit of ``design`` at ``lam`` as the runners build it:
    ``padded_warm_start`` of a fit of its first m - 1 tasks at
    ``prefix_lam``."""
    coeffs, _ = fit_group_lasso(design.prefix(design.m - 1), prefix_lam)
    return padded_warm_start(coeffs, design, lam)


def solver_counts(reports) -> dict:
    """APG iterations, Newton steps and Newton attempts summed over reports."""
    steps = sum(report.newton_steps for report in reports)
    return {
        "apg_iterations": sum(report.iterations for report in reports) - steps,
        "newton_steps": steps,
        "newton_attempts": sum(report.newton_attempts for report in reports),
    }


def time_pooled_fit(design, lam, start, repeats: int, handoff: bool) -> dict:
    """Time one pooled fit from the start ``start()`` builds (a cold fit when
    ``start`` is None), with the hand-off on or off for the start and the
    fit alike, and split its iterations into APG and Newton."""
    threshold = group_lasso.HANDOFF_MAP_NORM if handoff else 0.0
    with mock.patch.object(group_lasso, "HANDOFF_MAP_NORM", threshold):
        x0 = start() if start else None
        seconds = seconds_of(lambda: fit_group_lasso(design, lam, x0=x0), repeats)
        _, report = fit_group_lasso(design, lam, x0=x0)
    layer = {
        **quartiles("us_per_call", seconds),
        **solver_counts([report]),
        "method": report.method,
        "converged": report.converged,
    }
    if not handoff:
        layer.update(quartiles("us_per_iteration", seconds, per=report.iterations, digits=2))
    return layer


def pooled_fits(run):
    """What ``run()`` returns, and the design, penalty and keyword
    arguments (the predicted start) of each pooled fit it makes, as the
    runner made them."""
    fits = []
    fit = selection.fit_group_lasso

    def recording(design, lam, **kwargs):
        if design.m > 1:
            # the runner's design grows after the fit: keep its first m tasks
            fits.append((design.prefix(design.m), lam, kwargs))
        return fit(design, lam, **kwargs)

    with mock.patch.object(selection, "fit_group_lasso", recording):
        return run(), fits


def lifelong_run():
    """The default ``lifelong`` run at seed 0, and its pooled fits."""
    env = SyntheticEnvironment(SyntheticSpec(), n_tasks=TASKS, master_seed=0)
    return pooled_fits(lambda: run_lifelong(env, TASKS, 100, 0.25, 0.5, seed=0))


def offline_sweep():
    """The default ``offline`` sweep at seed 0: m = 1..30, n = 10."""
    return recovery_sweep(SyntheticSpec(), range(1, 31), 10, 0.25, 0.25, 0)


def wide_fit(repeats: int) -> dict:
    """The 2-task fit of the ``lifelong`` run at p=2000, m=4, n=20, seed 0."""
    pairs = {"p": "2000", "m": "4", "n": "20", "seeds": "0,"}
    with tempfile.TemporaryDirectory() as tmp:
        config = build_config("lifelong", {**pairs, "out": tmp})
        _, fits = pooled_fits(lambda: run_experiment(config))
    design, lam, kwargs = next(fit for fit in fits if fit[0].m == 2)
    return {
        "tasks": design.m,
        "rows": design.total_rows,
        "p": design.p,
        "lam": lam,
        "newton": time_pooled_fit(design, lam, lambda: kwargs["x0"], repeats, handoff=True),
    }


def seed_fits(fits, repeats: int) -> dict:
    """All pooled fits of one seed, timed as one unit."""

    def run():
        return [fit_group_lasso(design, lam, **kwargs)[1] for design, lam, kwargs in fits]

    seconds = seconds_of(run, repeats)
    reports = run()
    return {
        "fits": len(fits),
        "rows_per_task": fits[-1][0].rows.tolist(),
        **quartiles("us_per_seed", seconds),
        **solver_counts(reports),
        "newton_fits": sum(report.method == "newton" for report in reports),
        "converged": all(report.converged for report in reports),
    }


def client_fit(repeats: int) -> dict:
    env = SyntheticEnvironment(SyntheticSpec(), n_tasks=1, master_seed=0)
    ((drawn, y),) = grid_draws(env, [10], np.random.default_rng(2))
    phi = env.grid_features[drawn]

    def fit():
        return fit_group_lasso(PooledDesign([phi], [y]), 0.2)

    seconds = seconds_of(fit, repeats)
    builds = seconds_of(lambda: [PooledDesign([phi], [y]) for _ in range(DESIGN_BUILDS)], repeats)
    _, report = fit()
    return {
        **quartiles("us_per_call", seconds),
        **quartiles("design_us", builds, per=DESIGN_BUILDS),
        "steps": report.iterations,
        "method": report.method,
    }


def federated_clients():
    """The rows, rewards and ids of the clients of the default ``federated``
    run at seed 0, as the runner hands them to ``client_fits``."""
    calls = []
    fits = federated.client_fits

    def recording(features, rewards, *args, **kwargs):
        calls.append((features, rewards, kwargs["clients"]))
        return fits(features, rewards, *args, **kwargs)

    env = SyntheticEnvironment(SyntheticSpec(), n_tasks=TASKS, master_seed=0)
    with mock.patch.object(federated, "client_fits", recording):
        run_federated(env, TASKS, 100, 0.25, 0.2, 0.25, seed=0)
    (call,) = calls
    return call


def client_batch(repeats: int) -> dict:
    features, rewards, clients = federated_clients()

    def batched():
        return federated.client_fits(features, rewards, 0.2, 0.25, clients=clients)

    def one_by_one():
        return [
            vote
            for phi, y, client in zip(features, rewards, clients)
            for vote in federated.client_fits([phi], [y], 0.2, 0.25, clients=[client])[0]
        ]

    votes, reports = batched()
    if votes != one_by_one():
        raise RuntimeError("batched client votes differ from one-client votes")
    return {
        "clients": len(clients),
        "rows": len(rewards[0]),
        "path_fits": sum(report.method == "path" for report in reports),
        **quartiles("batched_us", seconds_of(batched, repeats)),
        **quartiles("one_by_one_us", seconds_of(one_by_one, repeats)),
    }


def design_learned(repeats: int) -> dict:
    env = SyntheticEnvironment(SyntheticSpec(), n_tasks=TASKS, master_seed=0)
    rows = integerize(math.sqrt(100) / np.arange(1, TASKS + 1) ** 0.25)  # LiBO's at n = 100
    draws = grid_draws(env, rows, np.random.default_rng(0))

    return {
        "tasks": TASKS,
        "rows": int(rows.sum()),
        **quartiles("build_us", seconds_of(lambda: grid_design(env, draws), repeats)),
    }


def design_offline(repeats: int) -> dict:
    def stand_in(design, omega, lam, **kwargs):
        return selection.KernelSelection(
            selected=tuple(range(1, design.p + 1)),
            fallback=True,
            coeffs=np.zeros((design.m, design.p)),
            report=SolverReport(
                method="apg",
                converged=False,
                iterations=0,
                map_norm=math.inf,
                objective=math.nan,
                objective_history=np.empty(0),
            ),
        )

    with mock.patch.object(selection, "learn_kernel", stand_in):
        sweep = seconds_of(offline_sweep, repeats)
    return {"m_values": 30, "n": 10, **quartiles("sweep_us", sweep)}


def lockstep_seconds(env, kernels, noise, repeats: int) -> list[float]:
    """Wall times of ``UCB_STEPS`` steps of a fresh ``LockstepUcb`` after
    ``UCB_WARMUP`` untimed ones, over ``repeats`` runs after a warm-up run:
    agent j runs task j + 1 under ``kernels[j]``, and its observation at
    step t carries ``noise[t, j]``."""
    rows = np.arange(len(kernels))

    def steps(group, first, count):
        for t in range(first, first + count):
            i = group.select()
            group.observe(i, env.values[i, rows] + noise[t])

    def run():
        group = LockstepUcb(env.grid_features, kernels, UcbConfig())
        steps(group, 0, UCB_WARMUP)
        start = time.perf_counter()
        steps(group, UCB_WARMUP, UCB_STEPS)
        return time.perf_counter() - start

    run()
    return [run() for _ in range(repeats)]


def ucb_step(selected, repeats: int) -> dict:
    """Steps of one agent on task 1, under the kernel ``selected``."""
    env = SyntheticEnvironment(SyntheticSpec(), n_tasks=1, master_seed=0)
    noise = env.task_view(1).noise_terms(UCB_WARMUP + UCB_STEPS)[:, None]
    seconds = lockstep_seconds(env, [selected], noise, repeats)
    return {"d": len(selected), **quartiles("us_per_step", seconds, per=UCB_STEPS, digits=2)}


def ucb_lockstep(kernels, repeats: int) -> dict:
    """Lockstep steps of TASKS agents, agent j under ``kernels[j]``."""
    env = SyntheticEnvironment(SyntheticSpec(), n_tasks=TASKS, master_seed=0)
    noise = 0.1 * np.random.default_rng(0).standard_normal((UCB_WARMUP + UCB_STEPS, TASKS))
    seconds = lockstep_seconds(env, kernels, noise, repeats)
    return {
        "d": len(set().union(*kernels)),
        "kernels": len(set(kernels)),
        "tasks": TASKS,
        **quartiles("us_per_task_step", seconds, per=UCB_STEPS * TASKS, digits=2),
    }


def trace_io(repeats: int) -> dict:
    rng = np.random.default_rng(3)
    n = TASKS * 100
    inst = rng.exponential(size=n)
    columns = {
        "step": np.arange(1, n + 1),
        "task": np.repeat(np.arange(1, TASKS + 1), 100),
        "instantaneous": inst,
        "cumulative": np.cumsum(inst),
        "kernel_size": rng.integers(1, 51, size=n),
        "recovered": rng.integers(-1, 2, size=n),
        "explored": rng.integers(0, 2, size=n),
    }
    # at the dtypes the runners' traces hold
    trace = RegretTrace(
        **{f.name: columns[f.name].astype(f.metadata["dtype"]) for f in fields(RegretTrace)}
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write = seconds_of(lambda: trace.save(path), repeats)
        parse = seconds_of(lambda: RegretTrace.load(path), repeats)
        summ = seconds_of(lambda: summarize([trace] * TASKS), repeats)
        size = path.stat().st_size
        tracemalloc.start()
        RegretTrace.load(path)
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return {
        "steps": n,
        "bytes": size,
        **quartiles("write_us", write),
        **quartiles("parse_us", parse),
        "parse_peak_kb": round(parse_peak / 1024, 1),
        **quartiles("summarize_us", summ),
    }


def held_bytes(result) -> int:
    """The bytes of the arrays in a result's traces and summary: each buffer
    once, a zero-stride column as 0."""
    buffers = {}
    for table in [*result.traces.values(), result.summary]:
        for f in fields(table):
            column = getattr(table, f.name)
            if 0 not in column.strides:
                buffers[column.__array_interface__["data"][0]] = column.nbytes
    return sum(buffers.values())


def outputs_text(repeats: int) -> dict:
    """The trace and summary text of one default seed per kind, through one memo."""
    layer = {}
    for kind in ("baseline_oracle", "federated"):
        result = run_experiment(build_config(kind, {"seeds": "0,"}))
        trace, summary = result.traces[0], result.summary

        def run_text():
            memo = {}  # one per run, as the harness makes it
            summary_text = summary.to_text(memo)
            return trace.to_text(dict(memo)), summary_text

        text = seconds_of(run_text, repeats)
        layer[kind] = {
            "steps": len(trace.step),
            "distinct": [len(np.unique(trace.instantaneous)), len(np.unique(trace.cumulative))],
            "held_bytes": held_bytes(result),
            **quartiles("text_us", text),
        }
    return layer


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
    for name, build in (
        ("pooled_learned", learned_fit),
        ("pooled_offline", offline_fit),
        ("pooled_offline_warm", offline_warm_fit),
    ):
        design, lam, start = build()
        layers[f"group_lasso.{name}"] = {
            "tasks": design.m,
            "rows": design.total_rows,
            "lam": lam,
            "warm": start is not None,
            "newton": time_pooled_fit(design, lam, start, args.repeats, handoff=True),
            "apg_only": time_pooled_fit(design, lam, start, args.repeats, handoff=False),
        }
    record, fits = lifelong_run()
    layers["group_lasso.lifelong_seed"] = seed_fits(fits, args.repeats)
    layers["group_lasso.offline_seed"] = seed_fits(pooled_fits(offline_sweep)[1], args.repeats)
    layers["group_lasso.pooled_p2000"] = wide_fit(args.repeats)
    layers["group_lasso.client_fit"] = client_fit(args.repeats)
    layers["federated.client_fits"] = client_batch(args.repeats)
    layers["selection.design"] = {
        "learned_seed": design_learned(args.repeats),
        "offline_seed_setup": design_offline(args.repeats),
    }
    layers["gp_ucb.step_d5"] = ucb_step((1, 2, 3, 4, 5), args.repeats)
    layers["gp_ucb.step_d50"] = ucb_step(tuple(range(1, 51)), args.repeats)
    layers["gp_ucb.lockstep_d5"] = ucb_lockstep([(1, 2, 3, 4, 5)] * TASKS, args.repeats)
    layers["gp_ucb.lockstep_d50"] = ucb_lockstep([tuple(range(1, 51))] * TASKS, args.repeats)
    layers["gp_ucb.lockstep_mixed"] = ucb_lockstep(record.kernels, args.repeats)
    layers["trace"] = trace_io(args.repeats)
    layers["harness.outputs"] = outputs_text(args.repeats)
    result = {"machine": machine(), "repeats": args.repeats, "layers": layers}
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
