"""Kernel selection on pooled task data.

Fit the pooled group lasso, keep the groups whose cross-task coefficient
norms clear omega * sqrt(m) (strictly), and average the surviving basis
kernels into one kernel estimate. An empty survivor set falls back to the
full average over all p groups, and the fallback is flagged so run records
can surface it.

Also here: design compatibility diagnostics (empirical diagonal floor and
off-diagonal ceiling of the scaled Gram, with the induced lower bound on the
restricted eigenvalue when it is defined) and a self-contained offline
recovery trial used to estimate support-recovery rates over seeds.
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
    for phi in design.features:
        if phi.shape[0] == 0:
            c_diag = 0.0
            continue
        gram = scale * (phi.T @ phi)
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
    """Sample m tasks, fit on n uniform points each, check exact recovery.

    Points are drawn continuous-uniform over the atlas domain (the offline
    protocol); noise comes from the environment's per-task noise streams, so
    the trial is reproducible from the seed alone.
    """
    if n < 1:
        raise ValueError("need at least one point per task")
    env = SyntheticEnvironment(spec, n_tasks=m, master_seed=seed)
    lo = env.atlas.domain[:, 0]
    hi = env.atlas.domain[:, 1]
    tasks = []
    for s in range(1, m + 1):
        draw = substream(seed, STREAM_EXPLORE, s)
        X = draw.uniform(lo, hi, size=(n, env.atlas.dim_in))
        y = env.reward_continuous(s, X, substream(seed, STREAM_NOISE, s))
        tasks.append((X, y))
    design = design_from_tasks(env.atlas, tasks)
    sel = learn_kernel(design, omega, lam, tol=tol, max_iter=max_iter)
    return RecoveryResult(
        selected=sel.estimate.selected,
        truth=env.support,
        exact=sel.estimate.selected == env.support,
        fallback=sel.fallback,
        report=sel.report,
    )
