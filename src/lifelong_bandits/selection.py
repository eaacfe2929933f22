"""Kernel selection on pooled task data.

Fit the pooled group lasso and keep the groups whose cross-task coefficient
norms clear omega * sqrt(m) (strictly). The sorted tuple J of their indices
is the learned kernel, the average of the surviving basis kernels (see
:mod:`.features`). An empty survivor set falls back to the full kernel
(1, ..., p), and the fallback is flagged so run records can surface it.

``learn_kernels`` fits a run of prefixes of one design, each fit starting
from the last converged one over fewer tasks; ``run_lifelong`` fits the
prefix of its first s tasks after task s with it, and so does the offline
recovery sweep, used to estimate support-recovery rates over seeds, for
each m of its config. The sweep draws one seed's tasks once and builds one
design of them; a single recovery trial is the sweep at one m, fitted cold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import SyntheticEnvironment, SyntheticSpec
from .features import FeatureAtlas
from .group_lasso import (
    PooledDesign,
    SolverReport,
    fit_group_lasso,
    group_norms,
    padded_warm_start,
)
from .seeding import STREAM_EXPLORE, substream


def design_from_tasks(atlas: FeatureAtlas, tasks) -> PooledDesign:
    """Pooled design from per-task (points, rewards) pairs under one atlas.
    No runner calls it; it is kept, outside ``__all__``, for perfbench's tracer."""
    features = [atlas.concat_many(X) for X, _ in tasks]
    rewards = [np.asarray(y, dtype=float) for _, y in tasks]
    return PooledDesign(features, rewards)


def threshold_groups(norms: np.ndarray, m: int, omega: float) -> tuple[int, ...]:
    """1-based indices of groups with norm strictly above omega * sqrt(m)."""
    if omega < 0:
        raise ValueError("threshold must be nonnegative")
    if m < 1:
        raise ValueError("need at least one task")
    cut = omega * math.sqrt(m)
    return tuple(int(j) + 1 for j in np.flatnonzero(np.asarray(norms) > cut))


@dataclass
class KernelSelection:
    """Outcome of one kernel-learning pass.

    ``selected`` is the learned kernel: the sorted indices of the groups that
    clear the threshold or, when none does, every index (1, ..., p), and
    then ``fallback`` is True. ``coeffs`` is the fit's (m, p) coefficient
    matrix.
    """

    selected: tuple[int, ...]
    fallback: bool
    coeffs: np.ndarray
    report: SolverReport
    # perfbench's tracer reads ``estimate.selected``
    estimate = property(lambda self: self)


def learn_kernel(
    design: PooledDesign,
    omega: float,
    lam: float,
    *,
    x0: np.ndarray | None = None,
) -> KernelSelection:
    """Group-lasso fit, threshold, and averaged-kernel construction."""
    coeffs, report = fit_group_lasso(design, lam, x0=x0)
    selected = threshold_groups(group_norms(coeffs), design.m, omega)
    return KernelSelection(
        selected=selected or tuple(range(1, design.p + 1)),
        fallback=not selected,
        coeffs=coeffs,
        report=report,
    )


def learn_kernels(design: PooledDesign, prefixes, omega: float, lams):
    """Yield ``learn_kernel`` of ``design.prefix(k)`` at penalty ``lams[i]``
    for the i-th k of ``prefixes``, in order.

    Each fit starts from the last converged fit, with a predicted row for
    each task added since (``padded_warm_start``), when that fit had fewer
    tasks, and cold otherwise. A fit that does not converge leaves the
    start of the next one as it was.
    """
    warm = None  # the last converged fit's coefficients
    for k, lam in zip(prefixes, lams, strict=True):
        pool = design.prefix(k)
        sel = learn_kernel(pool, omega, lam, x0=padded_warm_start(warm, pool, lam))
        if sel.report.converged:
            warm = sel.coeffs
        yield sel


@dataclass
class RecoveryResult:
    """One offline support-recovery trial."""

    selected: tuple[int, ...]
    truth: tuple[int, ...]
    exact: bool
    fallback: bool
    report: SolverReport


def recovery_sweep(
    spec: SyntheticSpec,
    m_values,
    n: int,
    omega: float,
    lam: float,
    seed: int,
) -> list[RecoveryResult]:
    """One seed's recovery trials, one per entry of ``m_values``, in order.

    Draws max(m_values) tasks once, each on n points continuous-uniform over
    the atlas domain (the offline protocol), and fits the design of the first
    m tasks for each m. Task s's points come from its exploration substream
    and its noise is ``env.task_view(s).noise_terms(n)``, the first n terms
    a bandit run of the task would observe, so the trial at m sees the same
    tasks 1..m whatever the other entries are, and is reproducible from the
    seed alone. Every task's points are featurised in one call, and each
    task's block of the result feeds both its rewards (the block times the
    task's coefficients, plus its noise) and the design.

    The fits run in ``m_values`` order through ``learn_kernels``, as in
    ``run_lifelong``: the fit at m starts from the last converged fit when
    that fit had fewer than m tasks, and cold otherwise. So the answer at m
    depends on the other entries only through its starting point, and the
    solver's stop rule (a mapping norm within ``group_lasso.TOL``) bounds
    how far that can move it.
    """
    m_values = tuple(m_values)
    if n < 1:
        raise ValueError("need at least one point per task")
    if not m_values or min(m_values) < 1:
        raise ValueError("need at least one task")
    env = SyntheticEnvironment(spec, n_tasks=max(m_values), master_seed=seed)
    atlas = env.atlas
    lo, hi = atlas.domain[:, 0], atlas.domain[:, 1]
    tasks = range(1, env.m + 1)
    X = [substream(seed, STREAM_EXPLORE, s).uniform(lo, hi, size=(n, atlas.dim_in)) for s in tasks]
    features = np.split(atlas.concat_many(np.concatenate(X)), env.m)
    rewards = [
        phi @ env.coeffs[s - 1] + env.task_view(s).noise_terms(n)
        for s, phi in zip(tasks, features)
    ]
    design = PooledDesign(features, rewards)
    return [
        RecoveryResult(
            selected=sel.selected,
            truth=env.support,
            exact=sel.selected == env.support,
            fallback=sel.fallback,
            report=sel.report,
        )
        for sel in learn_kernels(design, m_values, omega, [lam] * len(m_values))
    ]


def recovery_trial(
    spec: SyntheticSpec,
    m: int,
    n: int,
    omega: float,
    lam: float,
    seed: int,
) -> RecoveryResult:
    """Sample m tasks, fit on n uniform points each, check exact recovery:
    the one-m case of ``recovery_sweep``. No runner calls it; it is kept,
    outside the package's ``__all__``, for perfbench's tracer."""
    (result,) = recovery_sweep(spec, (m,), n, omega, lam, seed)
    return result
