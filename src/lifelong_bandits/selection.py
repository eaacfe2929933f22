"""Kernel selection on pooled task data.

Fit the pooled group lasso, keep the groups whose cross-task coefficient
norms clear omega * sqrt(m) (strictly), and average the surviving basis
kernels into one kernel estimate. An empty survivor set falls back to the
full average over all p groups, and the fallback is flagged so run records
can surface it.

Also here: design compatibility diagnostics (empirical diagonal floor and
off-diagonal ceiling of each task's scaled Gram, read from the design's
per-task records, with the induced lower bound on the restricted eigenvalue
when it is defined) and the offline recovery sweep used to estimate
support-recovery rates over seeds. The sweep draws one seed's tasks once,
builds one design of them, and fits its prefix of the first m tasks for each
m; a single recovery trial is the sweep at one m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import SyntheticEnvironment, SyntheticSpec
from .features import FeatureAtlas, KernelEstimate
from .group_lasso import (
    GroupCoefficients,
    PooledDesign,
    SolverReport,
    fit_group_lasso,
)
from .seeding import STREAM_EXPLORE, STREAM_NOISE, substream


def design_from_tasks(atlas: FeatureAtlas, tasks) -> PooledDesign:
    """Pooled design from per-task (points, rewards) pairs under one atlas."""
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

    ``fallback`` is True when thresholding selected nothing and the estimate
    was replaced by the full average.
    """

    estimate: KernelEstimate
    fallback: bool
    group_norms: np.ndarray
    coeffs: GroupCoefficients
    report: SolverReport


def learn_kernel(
    design: PooledDesign,
    omega: float,
    lam: float,
    *,
    tol: float = 1e-8,
    max_iter: int = 50_000,
    x0: GroupCoefficients | None = None,
) -> KernelSelection:
    """Group-lasso fit, threshold, and averaged-kernel construction."""
    coeffs, report = fit_group_lasso(
        design, lam, tol=tol, max_iter=max_iter, x0=x0
    )
    norms = coeffs.group_norms()
    selected = threshold_groups(norms, design.m, omega)
    fallback = not selected
    estimate = (
        KernelEstimate.full(design.p)
        if fallback
        else KernelEstimate(p=design.p, selected=selected)
    )
    return KernelSelection(
        estimate=estimate,
        fallback=fallback,
        group_norms=norms,
        coeffs=coeffs,
        report=report,
    )


@dataclass(frozen=True)
class DesignDiagnostics:
    """Empirical compatibility constants of a pooled design.

    ``c_diag`` is the smallest diagonal entry and ``c_offdiag`` the largest
    off-diagonal magnitude of (m/N) Phi^T Phi, taken per task (the pooled
    matrix is block-diagonal across tasks, so cross-task entries are zero).
    ``kappa_lower`` is sqrt(c_diag / s_star - 5 * c_offdiag) when the
    radicand is positive, else None.
    """

    c_diag: float
    c_offdiag: float
    kappa_lower: float | None


def design_diagnostics(design: PooledDesign, s_star: int) -> DesignDiagnostics:
    """Compatibility constants of the design for assumed support size s_star."""
    if s_star < 1:
        raise ValueError("assumed support size must be positive")
    scale = design.m / design.total_rows
    c_diag = math.inf
    c_offdiag = 0.0
    for block in design.blocks:
        if block.rows == 0:
            c_diag = 0.0
            continue
        gram = scale * block.gram
        c_diag = min(c_diag, float(np.diag(gram).min()))
        if gram.shape[0] > 1:
            off = gram - np.diag(np.diag(gram))
            c_offdiag = max(c_offdiag, float(np.abs(off).max()))
    radicand = c_diag / s_star - 5.0 * c_offdiag
    kappa = math.sqrt(radicand) if radicand > 0 else None
    return DesignDiagnostics(c_diag=c_diag, c_offdiag=c_offdiag, kappa_lower=kappa)


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
    *,
    tol: float = 1e-8,
    max_iter: int = 50_000,
) -> list[RecoveryResult]:
    """One seed's recovery trials, one per entry of ``m_values``, in order.

    Draws max(m_values) tasks once, each on n points continuous-uniform over
    the atlas domain (the offline protocol), and fits the design of the first
    m tasks cold for each m. Task s's points and noise come from its own
    substreams, so the trial at m sees the same tasks 1..m whatever the other
    entries are, and is reproducible from the seed alone. Each task's block
    is featurised once and feeds both its rewards and the design.
    """
    m_values = tuple(m_values)
    if n < 1:
        raise ValueError("need at least one point per task")
    if not m_values or min(m_values) < 1:
        raise ValueError("need at least one task")
    env = SyntheticEnvironment(spec, n_tasks=max(m_values), master_seed=seed)
    atlas = env.atlas
    lo, hi = atlas.domain[:, 0], atlas.domain[:, 1]
    features, rewards = [], []
    for s in range(1, env.m + 1):
        X = substream(seed, STREAM_EXPLORE, s).uniform(lo, hi, size=(n, atlas.dim_in))
        phi = atlas.concat_many(X)
        features.append(phi)
        rewards.append(env.rewards_at(s, phi, substream(seed, STREAM_NOISE, s)))
    design = PooledDesign(features, rewards)
    results = []
    for m in m_values:
        sel = learn_kernel(design.prefix(m), omega, lam, tol=tol, max_iter=max_iter)
        results.append(
            RecoveryResult(
                selected=sel.estimate.selected,
                truth=env.support,
                exact=sel.estimate.selected == env.support,
                fallback=sel.fallback,
                report=sel.report,
            )
        )
    return results


def recovery_trial(
    spec: SyntheticSpec,
    m: int,
    n: int,
    omega: float,
    lam: float,
    seed: int,
    *,
    tol: float = 1e-8,
    max_iter: int = 50_000,
) -> RecoveryResult:
    """Sample m tasks, fit on n uniform points each, check exact recovery:
    the one-m case of ``recovery_sweep``."""
    (result,) = recovery_sweep(spec, (m,), n, omega, lam, seed, tol=tol, max_iter=max_iter)
    return result
