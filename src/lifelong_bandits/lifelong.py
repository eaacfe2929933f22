"""Sequential bandit tasks with kernel learning between tasks.

A run's m tasks of n steps are (m, n) arrays, row s-1 for task s, from
the plan to the record. Every runner does the same three things. It plans
its tasks with ``_plan``: each task's forced prefix (uniform over the
candidate grid, from the task's exploration substream, which a task
without forced draws never builds) and the noise of all n observations
(one draw from the task's noise substream, the same numbers
``TaskView.observe`` would draw one at a time). It then learns every
task's kernel, a sorted tuple of group indices (see :mod:`.features`): the
forced draws, the votes and a pooled fit over forced data read nothing an
agent chose, so every kernel is known before any agent runs. Last,
``_run_agents`` steps every task in one ``LockstepUcb`` (see
:mod:`.gp_ucb`), each task's kernel a prior weight over the union of the
tasks' groups, with the features sliced once from the environment's
feature table, and fills the run's ``LifelongRunRecord``. A run uses one
``UcbConfig``, its ``ucb`` argument, and its record keeps the
``SolverReport`` of each kernel fit it made, in fit order (none for
``run_baseline``). The runners differ only in their forced-draw rates and
in where the kernel comes from:

``run_lifelong`` (LiBO)
    rate sqrt(n) / s^(1/4) for task s (the decreasing schedule); task 1
    under the full kernel, task s+1 under a pooled group-lasso fit over the
    forced draws of tasks 1..s at penalty lam / sqrt(s): one ``PooledDesign``
    holds every task's draws, and ``selection.learn_kernels`` fits its first
    s tasks for each s < m, each fit from the last converged one;
``run_baseline``
    no forced draws; a pinned kernel (the true support or every group);
``run_federated`` (in :mod:`.federated`, F-LiBO)
    rate sqrt(n) for every task (the constant schedule); each task's own
    fit turned into a vote, all tasks' fits in one batched call, and the
    server set of the vote ledger after each vote.

``_plan`` integerizes the rates (``integerize``): the realized counts up to
each task sum to the floor of the prescribed total, so they track it within
one draw at every prefix. It then caps each count at n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .gp_ucb import LockstepUcb, UcbConfig
from .group_lasso import PooledDesign, SolverReport
from .seeding import STREAM_EXPLORE, substream
# design_from_tasks and learn_kernel stay bound here: perfbench's tracer
# wraps these bindings
from .selection import design_from_tasks, learn_kernel, learn_kernels  # noqa: F401

BASELINE_KERNELS = ("oracle", "full")


def integerize(rates) -> np.ndarray:
    """Round rates to integers whose every prefix sum is the floor of the
    rates' prefix sum (``np.cumsum``): the differences of those floors.

    In exact arithmetic this is rounding each rate down and carrying its
    fractional residue to the next, so every prefix sum of the output stays
    within one below that of the input.
    """
    rates = np.asarray(rates, dtype=float)
    if not np.all((rates >= 0) & (rates < np.inf)):  # NaN fails both
        raise ValueError("rates must be finite and nonnegative")
    return np.diff(np.floor(np.cumsum(rates)), prepend=0.0).astype(int)


@dataclass
class LifelongRunRecord:
    """A run's tasks, row s-1 for task s, plus bookkeeping for the harness.

    ``kernels[s-1]`` is the kernel task s ran under. ``actions``,
    ``rewards``, ``regrets`` and ``explored`` are (m, n): per task and step,
    the grid index taken, its observation, its regret, and whether it was a
    forced draw. ``support`` is the environment's true support, None if it
    has none. ``reports`` holds the ``SolverReport`` of each kernel fit, in
    fit order. ``events`` lists (task, "fallback") pairs: the fit that set
    the task's kernel converged with no group, so it ran under the full one.
    """

    seed: int
    kernels: list[tuple[int, ...]] = field(default_factory=list)
    actions: np.ndarray = field(default_factory=lambda: np.empty((0, 0), dtype=int))
    rewards: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    regrets: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    explored: np.ndarray = field(default_factory=lambda: np.empty((0, 0), dtype=bool))
    support: tuple[int, ...] | None = None
    reports: list[SolverReport] = field(default_factory=list)
    events: list[tuple[int, str]] = field(default_factory=list)
    max_gain_slack: float = -math.inf

    def cumulative_regret(self) -> np.ndarray:
        return np.cumsum(self.regrets)

    @property
    def final_regret(self) -> float:
        return float(self.cumulative_regret()[-1])


def _plan(env, n: int, rates, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plan tasks 1..m, one per entry of ``rates``: the (m,) forced counts,
    the (m, n) forced grid indices (-1 past each count) and the (m, n)
    noise terms.

    Task s draws min(n, integerize(rates)[s-1]) forced points, uniform over
    the grid from its exploration substream (built only when the task draws
    from it), and the noise of all n observations from its view. Each task's
    numbers come from its own substreams, so they do not depend on the order
    of the draws."""
    m = len(rates)
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if m > env.m:
        raise ConfigError("environment has too few tasks")
    counts = np.minimum(integerize(rates), n)
    forced = np.full((m, n), -1)
    noise = np.empty((m, n))
    for s, count in enumerate(counts.tolist(), start=1):
        if count:
            forced[s - 1, :count] = substream(seed, STREAM_EXPLORE, s).integers(env.grid_size, size=count)
        noise[s - 1] = env.task_view(s).noise_terms(n)
    return counts, forced, noise


def _forced_draws(env, counts, forced, noise) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per planned task, the grid feature rows of its forced draws and their rewards."""
    drawn = [forced[s, :count] for s, count in enumerate(counts.tolist())]
    return (
        [env.grid_features[idx] for idx in drawn],
        [env.values[idx, s] + noise[s, : len(idx)] for s, idx in enumerate(drawn)],
    )


def _run_agents(env, counts, forced, noise, kernels, ucb, record) -> None:
    """Run the planned tasks, n steps each, in one ``LockstepUcb``, and write
    their kernels, steps and the environment's support into ``record``.

    Each task's entry of ``kernels`` is its agent's kernel, and ``ucb`` the
    config of all. Each task observes its forced draws first, then its UCB
    choices; an observation is the task's grid value plus its pre-drawn
    noise term.
    """
    m, n = forced.shape
    group = LockstepUcb(env.grid_features, kernels, ucb)
    values = env.values[:, :m]
    rows = np.arange(m)
    actions = np.empty((m, n), dtype=int)
    all_forced, any_forced = counts.min(), counts.max()
    for i in range(n):
        if i < all_forced:
            idx = forced[:, i]
        else:
            idx = group.select()
            if i < any_forced:
                np.copyto(idx, forced[:, i], where=forced[:, i] >= 0)
        group.observe(idx, values[idx, rows] + noise[:, i])
        actions[:, i] = idx
    taken = values[actions, rows[:, None]]
    record.max_gain_slack = group.max_gain_slack.max()
    record.kernels, record.actions, record.rewards = list(kernels), actions, taken + noise
    record.regrets = values.max(axis=0)[:, None] - taken
    record.explored = forced >= 0
    record.support = env.support


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
    """Run LiBO: m tasks with forced exploration, and m - 1 kernel updates.

    Task s draws its forced points on the decreasing schedule. Task 1 runs
    under the full kernel. Task s > 1 runs under the kernel learned after
    task s-1 from the forced draws of tasks 1..s-1, at penalty
    lam / sqrt(s-1); a non-converged fit keeps the prior kernel, while a
    converged fit that selects nothing installs the full kernel. Each fit
    starts from the last converged one (``selection.learn_kernels``). Every
    task's agent runs under the GP-UCB config ``ucb``.
    """
    plan = _plan(env, n, math.sqrt(n) / np.arange(1, m + 1) ** 0.25, seed)
    record = LifelongRunRecord(seed=seed)
    # every task's draws in one design, whose first s tasks the fit that
    # sets task s+1's kernel reads; task 1 always has forced draws
    design = PooledDesign(*_forced_draws(env, *plan))
    lams = [lam / math.sqrt(s) for s in range(1, m)]
    kernels = [tuple(range(1, env.p + 1))]
    for s, outcome in enumerate(learn_kernels(design, range(1, m), omega, lams), start=1):
        record.reports.append(outcome.report)
        if outcome.report.converged and outcome.fallback:
            record.events.append((s + 1, "fallback"))
        kernels.append(outcome.selected if outcome.report.converged else kernels[-1])
    _run_agents(env, *plan, kernels, ucb, record)
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
    record = LifelongRunRecord(seed=seed)
    _run_agents(env, *_plan(env, n, np.zeros(m), seed), [pinned] * m, ucb, record)
    return record
