"""In-process A/B timing of two source trees of the lifelong_bandits package.

Usage (from the repository root):

    python3 tools/ab.py --parent REV_OR_DIR [--kinds lifelong,trace.parse] [--seeds 0-15]
                        [--out BENCH.json]

``--parent`` is a git revision of this repository, whose
``src/lifelong_bandits`` is exported with ``git archive`` into a temporary
directory, or a directory that holds ``src/lifelong_bandits``. The change is
the tree this script lives in. Both trees import into one process under
their own package names (the package imports itself only relatively),
beside a second copy of the change for an A/A control.

A unit is a kind or a layer, and ``--kinds`` names units of both (all of
them by default). A unit is a function of (package copy, seed, work
directory) that builds its input untimed and returns a callable, which is
called once, without arguments, and timed. A kind's callable runs the seed's
default config through ``harness._run_one_seed`` (``lookup`` on the table
that ``tools/sweep_outputs.py`` writes). A layer's callable runs one layer
of the package, on input drawn at the seed as ``LAYERS`` describes, a fixed
count of times, so that one call takes at least about 1 ms.

Per unit, each copy makes one untimed warm-up call at the first seed. Then
the seeds run in shuffled order and, per seed, the copies too; each call is
timed with ``process_time``. The script prints per unit the median over the
seeds of the change's CPU over the parent's, and beside it that of the
second copy over the change, the A/A ratio, which shows what noise alone
reads in the same session. ``--out`` writes, per unit, the parent's and
the change's median milliseconds and the 25th, 50th and 75th percentiles of
both ratios, with the machine's core count and the Python, numpy, scipy and
BLAS versions, to one JSON file.

It exits with 1 if, on any seed, the copies do not take the same actions
(the bandit kinds) or reach the same recovery outcomes (``offline``: each
m's selected groups, exact and fallback flags). BLAS runs on one thread
unless ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, as in
``perfbench/``.
"""

from __future__ import annotations

import argparse
import functools
import importlib.metadata
import importlib.util
import io
import json
import math
import os
import platform
import random
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import fields
from pathlib import Path
from unittest import mock

from sweep_outputs import (  # sets the BLAS threads, so it comes before numpy
    BLAS_VARIABLES,
    KINDS,
    ROOT,
    TABLE,
    parse_seeds,
    write_table,
)

import numpy as np  # noqa: E402

TASKS = 20
DESIGN_BUILDS = 5  # design builds per timed call, which one alone is too short to time
SUMMARIES = 2  # summaries per timed call, likewise
UCB_WARMUP = 20
UCB_STEPS = 50


def load_package(package: Path, name: str):
    """The package in directory ``package``, imported under the name ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def parent_package(parent: str, workdir: Path) -> Path:
    if Path(parent).is_dir():
        return Path(parent) / "src" / "lifelong_bandits"
    command = ["git", "-C", str(ROOT), "archive", parent, "src/lifelong_bandits"]
    archive = subprocess.run(command, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(workdir, filter="data")
    return workdir / "src" / "lifelong_bandits"


def run_kind(kind: str, package, seed: int, workdir: Path):
    """The unit of a kind: its default config at ``seed``."""
    harness = package.harness
    pairs, table = {}, None
    if kind == "lookup":
        pairs, table = {"table": str(workdir / TABLE)}, harness.LookupTable.load(workdir / TABLE)
    config = harness.build_config(kind, pairs)
    return lambda: harness._run_one_seed(config, seed, table)


def outcome_of(unit: str, value):
    """What two trees must agree on: a kind's actions, or each m's recovery."""
    if unit == "offline":
        return [(t.selected, t.exact, t.fallback) for t in value]
    return value.actions.tolist() if unit in KINDS else None


def calls_to(module, name: str, run):
    """The (args, kwargs) of each call that ``run()`` makes to ``module.name``."""
    calls, function = [], getattr(module, name)

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return function(*args, **kwargs)

    with mock.patch.object(module, name, recording):
        run()
    return calls


def default_seed(package, kind: str, seed: int, pairs=None):
    """The outcome of the ``kind`` config (the default, with ``pairs`` on top) at ``seed``."""
    harness = package.harness
    return harness._run_one_seed(harness.build_config(kind, pairs), seed, None)


def pooled_fits(package, kind: str, seed: int, pairs=None, keep=lambda m: m > 1):
    """Fitting again the pooled fits of the ``kind`` run at ``seed`` whose
    task count m is one to ``keep``, on the designs, penalties and starts
    the runner built, recorded from the copy's own ``selection.fit_group_lasso``."""
    calls = calls_to(
        package.selection, "fit_group_lasso", lambda: default_seed(package, kind, seed, pairs)
    )
    fits = [(args, kwargs) for args, kwargs in calls if keep(args[0].m)]
    fit = package.group_lasso.fit_group_lasso
    return lambda: [fit(*args, **kwargs) for args, kwargs in fits]


def client_fits(package, seed: int, workdir: Path):
    """The one batched ``federated.client_fits`` call of the default
    ``federated`` run at ``seed``, with the rows and rewards it drew."""
    federated = package.federated
    [(args, kwargs)] = calls_to(
        federated, "client_fits", lambda: default_seed(package, "federated", seed)
    )
    fits = federated.client_fits
    return lambda: fits(*args, **kwargs)


def synthetic(package, seed: int):
    """The default synthetic environment of ``TASKS`` tasks at ``seed``."""
    environment = package.environment
    return environment.SyntheticEnvironment(
        environment.SyntheticSpec(), n_tasks=TASKS, master_seed=seed
    )


def learned_design(package, seed: int, workdir: Path):
    """The design build of a ``learned``-like seed: 20 tasks of LiBO's
    forced-row counts at n = 100 (10 for task 1, 8 down to 4 later), from
    uniform grid draws, each task's rewards from its own noise stream."""
    env = synthetic(package, seed)
    rows = package.lifelong.integerize(math.sqrt(100) / np.arange(1, TASKS + 1) ** 0.25)
    rng = np.random.default_rng(seed)
    features, rewards = [], []
    for s, n in enumerate(rows, start=1):
        view = env.task_view(s)
        drawn = rng.integers(env.grid_size, size=n)
        features.append(env.grid_features[drawn])
        rewards.append(view.values[drawn] + view.noise_terms(n))
    design = package.group_lasso.PooledDesign
    return lambda: [design(features, rewards) for _ in range(DESIGN_BUILDS)]


def lockstep(kernels_at):
    """The unit of ``UCB_STEPS`` steps of one ``LockstepUcb`` of ``TASKS``
    agents on the 500-point grid, after ``UCB_WARMUP`` untimed ones: agent
    j runs task j + 1 under ``kernels_at(package, seed)[j]``, with noise
    drawn at the seed."""

    def unit(package, seed: int, workdir: Path):
        env, gp_ucb = synthetic(package, seed), package.gp_ucb
        kernels = kernels_at(package, seed)
        group = gp_ucb.LockstepUcb(env.grid_features, kernels, gp_ucb.UcbConfig())
        noise = 0.1 * np.random.default_rng(seed).standard_normal((UCB_WARMUP + UCB_STEPS, TASKS))
        agents = np.arange(TASKS)

        def steps(noise):
            for terms in noise:
                i = group.select()
                group.observe(i, env.values[i, agents] + terms)

        steps(noise[:UCB_WARMUP])
        return lambda: steps(noise[UCB_WARMUP:])

    return unit


def random_trace(package, seed: int):
    """A 2 000-step trace (20 tasks of 100 steps) of random draws at the
    dtypes ``RegretTrace`` declares; its regrets are all distinct, the worst
    case of the column writer, which formats each distinct value once."""
    rng = np.random.default_rng(seed)
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
    trace = package.harness.RegretTrace
    return trace(**{f.name: columns[f.name].astype(f.metadata["dtype"]) for f in fields(trace)})


def trace_write(package, seed: int, workdir: Path):
    trace, path = random_trace(package, seed), workdir / "trace.csv"
    return lambda: trace.save(path)


def trace_parse(package, seed: int, workdir: Path):
    path = workdir / "trace.csv"
    random_trace(package, seed).save(path)
    load = package.harness.RegretTrace.load
    return lambda: load(path)


def trace_summarize(package, seed: int, workdir: Path):
    traces, summarize = [random_trace(package, seed)] * TASKS, package.harness.summarize
    return lambda: [summarize(traces) for _ in range(SUMMARIES)]


def outputs(package, seed: int, workdir: Path):
    """The trace and summary text of the default ``baseline_oracle`` and
    ``federated`` runs at ``seed``, made as a run writes them: the summary
    first, into one memo, and the trace through a copy of it."""
    harness = package.harness
    results = [
        harness.run_experiment(harness.build_config(kind, {"seeds": f"{seed},"}))
        for kind in ("baseline_oracle", "federated")
    ]

    def text():
        for result in results:
            memo = {}
            result.summary.to_text(memo)
            result.traces[seed].to_text(dict(memo))

    return text


# each layer's unit: (package copy, seed, work directory) -> the callable to time
LAYERS = {
    "group_lasso.lifelong_seed": lambda package, seed, _: pooled_fits(package, "lifelong", seed),
    "group_lasso.offline_seed": lambda package, seed, _: pooled_fits(package, "offline", seed),
    # the 2-task fit: two tasks of 4 forced rows against 2 000 groups
    "group_lasso.pooled_p2000": lambda package, seed, _: pooled_fits(
        package, "lifelong", seed, {"p": "2000", "m": "4", "n": "20"}, lambda m: m == 2
    ),
    "federated.client_fits": client_fits,
    "selection.design": learned_design,
    "gp_ucb.lockstep_d5": lockstep(lambda package, seed: [tuple(range(1, 6))] * TASKS),
    "gp_ucb.lockstep_d50": lockstep(lambda package, seed: [tuple(range(1, 51))] * TASKS),
    # the 20 kernels of the default lifelong run, one per task
    "gp_ucb.lockstep_mixed": lockstep(
        lambda package, seed: default_seed(package, "lifelong", seed).kernels
    ),
    "trace.write": trace_write,
    "trace.parse": trace_parse,
    "trace.summarize": trace_summarize,
    "harness.outputs": outputs,
}
UNITS = (*KINDS, *LAYERS)


def time_unit(packages, unit: str, seeds, workdir: Path, rng: random.Random):
    """Per seed, each copy's CPU seconds, and the seeds whose outcomes differ."""
    setup = LAYERS.get(unit, functools.partial(run_kind, unit))

    def run(package, seed: int):
        call = setup(package, seed, workdir)
        start = time.process_time()
        value = call()
        return time.process_time() - start, outcome_of(unit, value)

    for package in packages:
        run(package, seeds[0])
    cpu, differ = [], []
    for seed in rng.sample(seeds, len(seeds)):
        copies = rng.sample(range(len(packages)), len(packages))
        runs = {j: run(packages[j], seed) for j in copies}
        cpu.append([runs[j][0] for j in range(len(packages))])
        if any(runs[j][1] != runs[0][1] for j in runs):
            differ.append(seed)
    return cpu, sorted(differ)


def statistics_of(cpu) -> dict:
    """The parent's and the change's median ms, and the 25th, 50th and 75th
    percentiles of the change/parent and A/A ratios over the seeds."""
    cpu = np.asarray(cpu)
    parent_ms, change_ms = np.median(1e3 * cpu[:, :2], axis=0).tolist()
    stats = {"seeds": len(cpu), "parent_ms": round(parent_ms, 3), "change_ms": round(change_ms, 3)}
    for key, ratios in (("ratio", cpu[:, 1] / cpu[:, 0]), ("aa", cpu[:, 2] / cpu[:, 1])):
        p25, p50, p75 = np.percentile(ratios, [25, 50, 75]).round(4).tolist()
        stats.update({f"{key}_p25": p25, key: p50, f"{key}_p75": p75})
    return stats


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": next(os.environ[v] for v in BLAS_VARIABLES if os.environ.get(v)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision or source directory")
    parser.add_argument("--kinds", default=",".join(UNITS), help="comma list of kinds and layers")
    parser.add_argument("--seeds", default="0-15", type=parse_seeds, help="as 0-15 or 3,5,9")
    parser.add_argument("--out", help="JSON file for the medians and ratio percentiles")
    args = parser.parse_args(argv)
    units, seeds = args.kinds.split(","), args.seeds
    unknown = set(units) - set(UNITS)
    if unknown:
        parser.error(f"unknown kinds or layers: {', '.join(sorted(unknown))}")
    rng = random.Random(0)
    status, results = 0, {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        change = ROOT / "src" / "lifelong_bandits"
        parent = parent_package(args.parent, workdir)
        copies = {"parent": parent, "change": change, "again": change}
        packages = [load_package(package, f"ab_{name}") for name, package in copies.items()]
        write_table(workdir / TABLE)
        width = max(map(len, ["kind", *units])) + 2
        print(
            f"{'kind':<{width}}{'seeds':>6}{'parent ms':>11}{'change ms':>11}"
            f"{'ratio':>8}{'A/A':>8}"
        )
        for unit in units:
            cpu, differ = time_unit(packages, unit, seeds, workdir, rng)
            stats = results[unit] = statistics_of(cpu)
            print(
                f"{unit:<{width}}{stats['seeds']:>6}{stats['parent_ms']:>11.2f}"
                f"{stats['change_ms']:>11.2f}{stats['ratio']:>8.3f}{stats['aa']:>8.3f}"
            )
            if differ:
                print(f"{unit}: outcomes differ at seeds {differ}", file=sys.stderr)
                status = 1
    if args.out:
        bench = {"machine": machine(), "parent": args.parent, "seeds": seeds, "units": results}
        Path(args.out).write_text(json.dumps(bench, indent=2) + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
