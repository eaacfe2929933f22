"""Sequential bandit tasks with kernel learning between tasks.

Every runner shares one task loop. For task s it draws the forced prefix,
uniform over the candidate grid from the task's exploration substream, and
observes it; asks a kernel callback which estimate to run under; builds the
agent, feeds it the prefix and lets it select for the rest of the horizon;
then records the task and calls an after-task hook. The runners differ only
in where the kernel comes from:

``run_lifelong``
    a pooled group-lasso fit over the tasks so far, warm-started from the
    previous fit, run in the after-task hook for the next task;
``run_baseline``
    a pinned kernel (the true support or every group), with no forced draws;
``run_federated`` (in :mod:`.federated`)
    the task's own fit turned into a vote, and the server set of the vote
    ledger, in the kernel callback, so the prefix is observed before the
    kernel is known.

Exploration counts follow a residue-carrying integerization of the real
rates, so the realized counts track the prescribed totals within one draw
at every prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError
from .features import KernelEstimate
from .gp_ucb import GpUcb, UcbConfig
from .group_lasso import GroupCoefficients, PooledDesign
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


@dataclass(frozen=True)
class ExplorationSchedule:
    mode: ScheduleMode
    rates: np.ndarray
    counts: np.ndarray
    residual: float

    @classmethod
    def build(cls, mode: ScheduleMode, n: int, m: int) -> "ExplorationSchedule":
        rates = schedule_rates(n, m, mode)
        counts = np.minimum(integerize(rates), n)
        return cls(ScheduleMode(mode), rates, counts, float(rates.sum() - counts.sum()))


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
    config_digest: str
    tasks: list[TaskRecord] = field(default_factory=list)
    events: list[tuple[int, str]] = field(default_factory=list)
    final_kernel: tuple[int, ...] = ()
    max_gain_slack: float = -math.inf

    def cumulative_regret(self) -> np.ndarray:
        return np.cumsum(np.concatenate([t.regrets for t in self.tasks]))

    @property
    def final_regret(self) -> float:
        return float(self.cumulative_regret()[-1])


def default_solver_factory(config: UcbConfig | None = None):
    cfg = config if config is not None else UcbConfig()

    def make(atlas, estimate):
        return GpUcb(atlas, estimate, cfg)

    return make


def _run_tasks(env, m, n, mode, record, kernel_for, *, seed, solver_factory, after_task=None):
    """The task loop every runner shares; appends one TaskRecord per task.

    ``mode`` sets the forced-draw counts (None: no forced draws).
    ``kernel_for(s, drawn, drawn_y)`` gets the task's forced grid indices and
    their rewards and returns the estimate to run under; ``after_task`` gets
    each finished TaskRecord.
    """
    if not 1 <= m <= env.m:
        raise ConfigError("environment has too few tasks")
    counts = [0] * m if mode is None else ExplorationSchedule.build(mode, n, m).counts.tolist()
    make_agent = solver_factory if solver_factory is not None else default_solver_factory()
    grid = env.grid
    for s, explore_count in enumerate(counts, start=1):
        view = env.task_view(s)
        rng = substream(seed, STREAM_EXPLORE, s)
        drawn = [int(rng.integers(env.grid_size)) for _ in range(explore_count)]
        drawn_y = [view.observe(idx) for idx in drawn]
        estimate = kernel_for(s, drawn, drawn_y)
        agent = make_agent(env.atlas, estimate)
        actions = np.empty(n, dtype=int)
        rewards = np.empty(n)
        regrets = np.empty(n)
        explored = np.zeros(n, dtype=bool)
        explored[:explore_count] = True
        for i in range(n):
            if i < explore_count:
                idx, y = drawn[i], drawn_y[i]
            else:
                idx = agent.select(grid)
                y = view.observe(idx)
            agent.observe(idx, y, grid)
            actions[i] = idx
            rewards[i] = y
            regrets[i] = view.regret(idx)
        record.max_gain_slack = max(record.max_gain_slack, agent.max_gain_slack)
        task = TaskRecord(
            task=s,
            kernel=estimate.selected,
            explore_count=explore_count,
            actions=actions,
            rewards=rewards,
            regrets=regrets,
            explored=explored,
            recovered=None if env.support is None else estimate.selected == env.support,
        )
        record.tasks.append(task)
        if after_task is not None:
            after_task(task)


def _padded_warm_start(coeffs: GroupCoefficients | None, m: int):
    """Previous pooled fit, extended with a zero row for the newest task."""
    if coeffs is None or coeffs.matrix.shape[0] + 1 != m:
        return None
    return GroupCoefficients(np.vstack([coeffs.matrix, np.zeros(coeffs.matrix.shape[1])]))


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
    solver_factory=None,
    seed: int = 0,
    solver_tol: float = 1e-8,
    solver_max_iter: int = 50_000,
    config_digest: str = "",
) -> LifelongRunRecord:
    """Run m tasks with forced exploration and a kernel update after each.

    Task 1 runs under the full kernel. Task s > 1 runs under the estimate
    produced after task s-1; a non-converged fit keeps the prior estimate,
    while a converged fit that selects nothing installs the full kernel.
    ``meta_data`` chooses what the fit sees: "exploration" pools only the
    forced draws, "all" pools every observation.
    """
    if lam_policy not in LAM_POLICIES:
        raise ConfigError(f"unknown lam policy: {lam_policy!r}")
    if meta_data not in META_DATA:
        raise ConfigError(f"unknown meta data policy: {meta_data!r}")
    atlas = env.atlas
    record = LifelongRunRecord(seed=seed, config_digest=config_digest)
    estimate = KernelEstimate.full(atlas.p)
    design: PooledDesign | None = None
    warm: GroupCoefficients | None = None

    def update(task: TaskRecord) -> None:
        nonlocal estimate, design, warm
        s = task.task
        keep = slice(None) if meta_data == "all" else task.explored
        # the pool grows by the newest task's rows, whose features the
        # environment already holds; task 1 always has forced draws
        phi, y = env.grid_features[task.actions[keep]], task.rewards[keep]
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
            # otherwise the current estimate's size (full kernel early on,
            # which keeps kappa conservative and falls back to lam)
            s_star = len(env.support) if env.support is not None else max(1, estimate.size)
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
            x0=_padded_warm_start(warm, design.m),
        )
        if not outcome.report.converged:
            record.events.append((s, "solver"))
            warm = None
            return
        warm = outcome.coeffs
        if outcome.fallback:
            record.events.append((s, "fallback"))
        estimate = outcome.estimate

    _run_tasks(
        env, m, n, schedule_mode, record, lambda *_: estimate,
        seed=seed, solver_factory=solver_factory, after_task=update,
    )
    record.final_kernel = estimate.selected
    return record


def run_baseline(
    env,
    kernel: str,
    m: int,
    n: int,
    *,
    solver_factory=None,
    seed: int = 0,
    config_digest: str = "",
) -> LifelongRunRecord:
    """Run m tasks under a pinned kernel: the true support or the full set."""
    if kernel not in BASELINE_KERNELS:
        raise ConfigError(f"unknown baseline kernel: {kernel!r}")
    if kernel == "full":
        estimate = KernelEstimate.full(env.atlas.p)
    elif env.support is None:
        raise ConfigError("environment does not expose a true support")
    else:
        estimate = KernelEstimate(p=env.atlas.p, selected=env.support)
    record = LifelongRunRecord(seed=seed, config_digest=config_digest)
    _run_tasks(
        env, m, n, None, record, lambda *_: estimate,
        seed=seed, solver_factory=solver_factory,
    )
    record.final_kernel = estimate.selected
    return record
