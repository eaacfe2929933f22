"""Sequential bandit tasks with kernel learning between tasks.

Every runner does the same three things. It plans its tasks with
``_plan``, which draws, for every task, the forced prefix (uniform over the
candidate grid, from the task's exploration substream, which a task without
forced draws never builds) and the noise of all n observations (one draw
from the task's noise substream, the same numbers ``TaskView.observe``
would draw one at a time). It then learns every task's kernel, a sorted
tuple of group indices (see :mod:`.features`): the forced draws, the votes
and a pooled fit over forced data read nothing an agent chose, so every
kernel is known before any agent runs. Last, ``_run_agents`` steps every
task in one ``LockstepUcb`` (see :mod:`.gp_ucb`), each task's kernel a
prior weight over the union of the tasks' groups, with the features sliced
once from the environment's feature table. A run uses one ``UcbConfig``,
its ``ucb`` argument. The runners differ only in their forced-draw rates
and in where the kernel comes from:

``run_lifelong`` (LiBO)
    rate sqrt(n) / s^(1/4) for task s (the decreasing schedule); a pooled
    group-lasso fit over the forced draws of the tasks so far, at penalty
    lam / sqrt(s) after task s: one ``PooledDesign`` holds every task's
    draws, and ``selection.learn_kernels`` fits its first s tasks for each
    s, each fit from the last converged one;
``run_baseline``
    no forced draws; a pinned kernel (the true support or every group);
``run_federated`` (in :mod:`.federated`, F-LiBO)
    rate sqrt(n) for every task (the constant schedule); each task's own
    fit turned into a vote, all tasks' fits in one batched call, and the
    server set of the vote ledger after each vote.

``_plan`` integerizes the rates with a carried residue (``integerize``),
so the realized counts track the prescribed totals within one draw at
every prefix, and caps each count at n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .environment import TaskView
from .gp_ucb import LockstepUcb, UcbConfig
from .group_lasso import PooledDesign
from .seeding import STREAM_EXPLORE, substream
# design_from_tasks and learn_kernel stay bound here: perfbench's tracer
# wraps these bindings
from .selection import design_from_tasks, learn_kernel, learn_kernels  # noqa: F401

BASELINE_KERNELS = ("oracle", "full")


def integerize(rates) -> np.ndarray:
    """Round rates to integers while carrying the fractional residue.

    ñ_s = floor(n_s) + floor(r + frac(n_s)), with r then reduced to its own
    fractional part. Every prefix sum of the output stays within one of the
    corresponding prefix sum of the input.
    """
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("rates must be nonnegative")
    counts = np.empty(len(rates), dtype=int)
    r = 0.0
    for i, rate in enumerate(rates):
        base = math.floor(rate)
        r += rate - base
        carry = math.floor(r)
        counts[i] = base + carry
        r -= carry
    return counts


@dataclass
class TaskRecord:
    """One task's trace: the kernel it ran under and what happened per step."""

    task: int
    kernel: tuple[int, ...]
    explore_count: int
    actions: np.ndarray
    rewards: np.ndarray
    regrets: np.ndarray
    explored: np.ndarray
    recovered: bool | None


@dataclass
class LifelongRunRecord:
    """Full trace of a sequential run plus bookkeeping for the harness.

    ``events`` lists (task, kind) pairs: "fallback" when thresholding kept
    nothing and the full kernel took over, "solver" when the fit did not
    converge and the previous kernel was kept.
    """

    seed: int
    tasks: list[TaskRecord] = field(default_factory=list)
    events: list[tuple[int, str]] = field(default_factory=list)
    final_kernel: tuple[int, ...] = ()
    max_gain_slack: float = -math.inf

    def cumulative_regret(self) -> np.ndarray:
        return np.cumsum(np.concatenate([t.regrets for t in self.tasks]))

    @property
    def final_regret(self) -> float:
        return float(self.cumulative_regret()[-1])


@dataclass
class _Plan:
    """One planned task: its forced draws and their rewards, and the noise
    of all its observations."""

    task: int
    view: TaskView
    drawn: list[int]
    drawn_y: list[float]
    noise: np.ndarray


def _plan(env, n: int, rates, seed: int) -> list[_Plan]:
    """Plan tasks 1..m, one per entry of ``rates``: task s draws
    min(n, integerize(rates)[s-1]) forced points, uniform over the grid
    from its exploration substream (built only when the task draws from
    it), and the noise of all n observations. Each task's numbers come from
    its own substreams, so they do not depend on the order of the draws."""
    m = len(rates)
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if m > env.m:
        raise ConfigError("environment has too few tasks")
    plans = []
    for s, count in enumerate(np.minimum(integerize(rates), n).tolist(), start=1):
        view = env.task_view(s)
        drawn = []
        if count:
            rng = substream(seed, STREAM_EXPLORE, s)
            drawn = [int(rng.integers(env.grid_size)) for _ in range(count)]
        noise = view.noise_terms(n)
        drawn_y = [float(view.values[idx] + noise[i]) for i, idx in enumerate(drawn)]
        plans.append(_Plan(s, view, drawn, drawn_y, noise))
    return plans


def _run_agents(env, n, plans, kernels, ucb, record) -> list[TaskRecord]:
    """Run the planned tasks, n steps each, in one ``LockstepUcb``.

    Each task's entry of ``kernels`` is its agent's prior weight, and
    ``ucb`` the config of all. Each task observes its forced draws first,
    then its UCB choices; an observation is the task's grid value plus its
    pre-drawn noise term.
    """
    group = LockstepUcb.over_table(env.grid_features, kernels, ucb)
    values = np.stack([plan.view.values for plan in plans])
    noise = np.stack([plan.noise for plan in plans])
    actions = np.empty((len(plans), n), dtype=int)
    forced = np.full(actions.shape, -1)
    for j, plan in enumerate(plans):
        forced[j, : len(plan.drawn)] = plan.drawn
    rows = np.arange(len(plans))
    all_forced = min(len(plan.drawn) for plan in plans)
    any_forced = max(len(plan.drawn) for plan in plans)
    for i in range(n):
        if i < all_forced:
            idx = forced[:, i]
        else:
            idx = group.select()
            if i < any_forced:
                np.copyto(idx, forced[:, i], where=forced[:, i] >= 0)
        group.observe(idx, values[rows, idx] + noise[:, i])
        actions[:, i] = idx
    record.max_gain_slack = max(record.max_gain_slack, group.max_gain_slack.max())
    return [
        TaskRecord(
            task=plan.task,
            kernel=kernel,
            explore_count=len(plan.drawn),
            actions=taken,
            rewards=plan.view.values[taken] + plan.noise,
            regrets=plan.view.regret(taken),
            explored=np.arange(n) < len(plan.drawn),
            recovered=None if env.support is None else kernel == env.support,
        )
        for plan, kernel, taken in zip(plans, kernels, actions)
    ]


def run_lifelong(
    env,
    m: int,
    n: int,
    omega: float,
    lam: float,
    *,
    ucb: UcbConfig = UcbConfig(),
    seed: int = 0,
) -> LifelongRunRecord:
    """Run LiBO: m tasks with forced exploration and a kernel update after each.

    Task s draws its forced points on the decreasing schedule. Task 1 runs
    under the full kernel. Task s > 1 runs under the kernel learned after
    task s-1 from the forced draws of tasks 1..s-1, at penalty
    lam / sqrt(s-1); a non-converged fit keeps the prior kernel, while a
    converged fit that selects nothing installs the full kernel. Each fit
    starts from the last converged one (``selection.learn_kernels``). Every
    task's agent runs under the GP-UCB config ``ucb``.
    """
    plans = _plan(env, n, math.sqrt(n) / np.arange(1, m + 1) ** 0.25, seed)
    record = LifelongRunRecord(seed=seed)
    # every task's draws in one design, whose first s tasks the fit after
    # task s reads; task 1 always has forced draws
    design = PooledDesign(
        [env.grid_features[plan.drawn] for plan in plans], [plan.drawn_y for plan in plans]
    )
    lams = [lam / math.sqrt(s) for s in range(1, m + 1)]
    kernels = [tuple(range(1, env.p + 1))]
    for s, outcome in enumerate(learn_kernels(design, range(1, m + 1), omega, lams), start=1):
        if not outcome.report.converged:
            record.events.append((s, "solver"))
            kernels.append(kernels[-1])
            continue
        if outcome.fallback:
            record.events.append((s, "fallback"))
        kernels.append(outcome.selected)
    record.final_kernel = kernels.pop()
    record.tasks = _run_agents(env, n, plans, kernels, ucb, record)
    return record


def run_baseline(
    env,
    kernel: str,
    m: int,
    n: int,
    *,
    ucb: UcbConfig = UcbConfig(),
    seed: int = 0,
) -> LifelongRunRecord:
    """Run m tasks under a pinned kernel, the true support or the full set,
    each task's agent under the GP-UCB config ``ucb``."""
    if kernel not in BASELINE_KERNELS:
        raise ConfigError(f"unknown baseline kernel: {kernel!r}")
    if kernel == "oracle" and env.support is None:
        raise ConfigError("environment does not expose a true support")
    pinned = env.support if kernel == "oracle" else tuple(range(1, env.p + 1))
    plans = _plan(env, n, np.zeros(m), seed)
    record = LifelongRunRecord(seed=seed, final_kernel=pinned)
    record.tasks = _run_agents(env, n, plans, [pinned] * m, ucb, record)
    return record
