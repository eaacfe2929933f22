"""Sequential bandit tasks with kernel learning between tasks.

Every runner shares one task loop, ``_run_tasks``, which works in two
passes. The plan pass, task by task, draws the forced prefix (uniform over
the candidate grid, from the task's exploration substream) and the noise
of all n observations (one draw from the task's noise substream, the same
numbers ``TaskView.observe`` would draw one at a time), and asks a kernel
callback which kernel the task runs under: a sorted tuple of group indices
(see :mod:`.features`). The forced draws, the votes
and a pooled fit over forced data read nothing an agent chose, so every
kernel is known before any agent runs. The agent pass then steps every
task in one ``LockstepUcb`` (see :mod:`.gp_ucb`), each task's kernel a
prior weight over the union of the tasks' groups, with the features sliced
once from the environment's feature table. An after-task hook, when given,
sees each finished task before the next is planned, so every task then
steps alone on the same code path. A run uses one ``UcbConfig``, its
``ucb`` argument. The runners differ only in where the kernel comes
from:

``run_lifelong``
    a pooled group-lasso fit over the tasks so far, warm-started from the
    previous fit; over forced data (``meta_data=exploration``) it runs in
    the kernel callback once the task's prefix is known, over all data
    (``meta_data=all``) in the after-task hook;
``run_baseline``
    a pinned kernel (the true support or every group), with no forced draws;
``run_federated`` (in :mod:`.federated`)
    the task's own fit turned into a vote, and the server set of the vote
    ledger, in the kernel callback, so the prefix is observed before the
    kernel is known.

Exploration counts (``exploration_counts``) follow a residue-carrying
integerization of the real rates, so the realized counts track the
prescribed totals within one draw at every prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError
from .environment import TaskView
from .gp_ucb import LockstepUcb, UcbConfig
from .group_lasso import PooledDesign, padded_warm_start
from .seeding import STREAM_EXPLORE, substream
# design_from_tasks stays bound here: perfbench's tracer wraps this binding
from .selection import design_diagnostics, design_from_tasks, learn_kernel  # noqa: F401

LAM_POLICIES = ("constant", "inv_sqrt", "theory")
META_DATA = ("exploration", "all")
BASELINE_KERNELS = ("oracle", "full")


class ScheduleMode(str, Enum):
    DECREASING = "decreasing"
    CONSTANT = "constant"


def schedule_rates(n: int, m: int, mode: ScheduleMode) -> np.ndarray:
    """Real-valued forced-exploration rates for m tasks of horizon n.

    decreasing: sqrt(n) / s^(1/4); constant: sqrt(n) for every task.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    mode = ScheduleMode(mode)
    s = np.arange(1, m + 1, dtype=float)
    if mode is ScheduleMode.DECREASING:
        return math.sqrt(n) / s**0.25
    return np.full(m, math.sqrt(n))


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


def exploration_counts(mode: ScheduleMode, n: int, m: int) -> np.ndarray:
    """Forced draws of each of m tasks of horizon n: the integerized rates,
    each capped at n."""
    return np.minimum(integerize(schedule_rates(n, m, mode)), n)


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
    """One task after the plan pass: its forced draws, the noise of all its
    observations and the kernel it runs under."""

    task: int
    view: TaskView
    drawn: list[int]
    noise: np.ndarray
    kernel: tuple[int, ...]


def _run_tasks(env, m, n, mode, record, kernel_for, *, seed, ucb=UcbConfig(), after_task=None):
    """The task loop every runner shares; appends one TaskRecord per task.

    ``mode`` sets the forced-draw counts (None: no forced draws).
    ``kernel_for(s, drawn, drawn_y)`` gets the task's forced grid indices and
    their rewards and returns the kernel to run under. Every task's agent
    runs under the GP-UCB config ``ucb``.

    The plan pass draws, per task, the forced prefix and the noise of all n
    observations and asks ``kernel_for`` for the kernel. Nothing in it
    reads an agent's choices, so every kernel is known before any agent
    runs, and the agent pass steps every task at once (``_run_agents``).
    ``after_task``, when given, gets each finished TaskRecord before the
    next task is planned, so each task then steps alone.
    """
    if not 1 <= m <= env.m:
        raise ConfigError("environment has too few tasks")
    counts = [0] * m if mode is None else exploration_counts(mode, n, m).tolist()
    plans = []
    for s, explore_count in enumerate(counts, start=1):
        view = env.task_view(s)
        rng = substream(seed, STREAM_EXPLORE, s)
        drawn = [int(rng.integers(env.grid_size)) for _ in range(explore_count)]
        noise = view.noise_terms(n)
        drawn_y = [float(view.values[idx] + noise[i]) for i, idx in enumerate(drawn)]
        plan = _Plan(s, view, drawn, noise, kernel_for(s, drawn, drawn_y))
        if after_task is None:
            plans.append(plan)
        else:
            record.tasks += _run_agents(env, n, [plan], ucb, record)
            after_task(record.tasks[-1])
    if plans:
        record.tasks += _run_agents(env, n, plans, ucb, record)


def _run_agents(env, n, plans, ucb, record) -> list[TaskRecord]:
    """Run the planned tasks, n steps each, in one ``LockstepUcb``.

    Each task's kernel is its agent's prior weight, and ``ucb`` the config
    of all. Each task observes its forced draws first, then its UCB
    choices; an observation is the task's grid value plus its pre-drawn
    noise term.
    """
    group = LockstepUcb.over_table(env.grid_features, [plan.kernel for plan in plans], ucb)
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
            kernel=plan.kernel,
            explore_count=len(plan.drawn),
            actions=taken,
            rewards=plan.view.values[taken] + plan.noise,
            regrets=plan.view.regret(taken),
            explored=np.arange(n) < len(plan.drawn),
            recovered=None if env.support is None else plan.kernel == env.support,
        )
        for plan, taken in zip(plans, actions)
    ]


def theory_lambda(
    lam0: float,
    omega: float,
    design,
    s: int,
    *,
    support_size: int,
    beta_min: float | None = None,
) -> float:
    """Penalty weight omega_bar * kappa^2 / (8 sqrt(s)) from design diagnostics.

    kappa^2 is the certified compatibility lower bound for the assumed
    support size; omega_bar = min(omega, beta_min - omega) when the block
    floor is known, else omega. Returns ``lam0`` unchanged whenever the
    diagnostics cannot certify kappa > 0 (or omega_bar <= 0), so the policy
    degrades to the constant one instead of zeroing the penalty.
    """
    diag = design_diagnostics(design, support_size)
    if diag.kappa_lower is None:
        return lam0
    omega_bar = omega if beta_min is None else min(omega, beta_min - omega)
    if omega_bar <= 0:
        return lam0
    return omega_bar * diag.kappa_lower**2 / (8.0 * math.sqrt(s))


def run_lifelong(
    env,
    m: int,
    n: int,
    omega: float,
    lam: float,
    *,
    lam_policy: str = "constant",
    schedule_mode: ScheduleMode = ScheduleMode.DECREASING,
    meta_data: str = "exploration",
    ucb: UcbConfig = UcbConfig(),
    seed: int = 0,
    solver_tol: float = 1e-8,
    solver_max_iter: int = 50_000,
) -> LifelongRunRecord:
    """Run m tasks with forced exploration and a kernel update after each.

    Task 1 runs under the full kernel. Task s > 1 runs under the kernel
    learned after task s-1; a non-converged fit keeps the prior kernel,
    while a converged fit that selects nothing installs the full kernel.
    ``meta_data`` chooses what the fit sees: "exploration" pools only the
    forced draws, "all" pools every observation. Every task's agent runs
    under the GP-UCB config ``ucb``.
    """
    if lam_policy not in LAM_POLICIES:
        raise ConfigError(f"unknown lam policy: {lam_policy!r}")
    if meta_data not in META_DATA:
        raise ConfigError(f"unknown meta data policy: {meta_data!r}")
    record = LifelongRunRecord(seed=seed)
    kernel = tuple(range(1, env.p + 1))
    design: PooledDesign | None = None
    warm: np.ndarray | None = None  # the last converged fit's coefficients

    def update(s: int, actions, rewards) -> None:
        nonlocal kernel, design, warm
        # the pool grows by the newest task's rows, whose features the
        # environment already holds; task 1 always has forced draws
        phi, y = env.grid_features[actions], rewards
        if design is None:
            design = PooledDesign([phi], [y])
        else:
            design.append(phi, y)
        if lam_policy == "constant":
            lam_s = lam
        elif lam_policy == "inv_sqrt":
            lam_s = lam / math.sqrt(s)
        else:
            # assumed support size: the truth when the environment knows it,
            # otherwise the current kernel's size (the full kernel early on,
            # which keeps kappa conservative and falls back to lam)
            s_star = len(env.support) if env.support is not None else len(kernel)
            lam_s = theory_lambda(
                lam, omega, design, s,
                support_size=s_star, beta_min=getattr(env, "beta_min", None),
            )
        outcome = learn_kernel(
            design,
            omega,
            lam_s,
            tol=solver_tol,
            max_iter=solver_max_iter,
            x0=padded_warm_start(warm, design, lam_s),
        )
        if not outcome.report.converged:
            record.events.append((s, "solver"))
            warm = None
            return
        warm = outcome.coeffs
        if outcome.fallback:
            record.events.append((s, "fallback"))
        kernel = outcome.selected

    def kernel_for(s: int, drawn: list[int], drawn_y: list[float]) -> tuple[int, ...]:
        current = kernel
        if meta_data == "exploration":
            update(s, drawn, drawn_y)
        return current

    def after_task(task: TaskRecord) -> None:
        update(task.task, task.actions, task.rewards)

    _run_tasks(
        env, m, n, schedule_mode, record, kernel_for,
        seed=seed, ucb=ucb, after_task=after_task if meta_data == "all" else None,
    )
    record.final_kernel = kernel
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
    _run_tasks(env, m, n, None, record, lambda *_: pinned, seed=seed, ucb=ucb)
    record.final_kernel = pinned
    return record
