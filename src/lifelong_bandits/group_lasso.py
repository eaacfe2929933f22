"""Pooled multi-task group lasso.

Data from m tasks share one feature dictionary of p scalar groups. With
per-task design blocks Phi_s (n_s rows, p columns) and rewards y_s, the
pooled objective over the (m, p) coefficient matrix B is

    (1/N) * sum_s ||y_s - Phi_s B[s]||^2 + lam * sum_j ||B[:, j]||,
                                                            N = sum_s n_s,

so each penalty group gathers coordinate j across every task. The
conceptual design matrix is block-diagonal in the tasks; it is never
materialized. The solver works on the per-task Gram stack G (m, p, p) and
crossterms C (m, p).

A ``PooledDesign`` keeps one record per task (``TaskBlock``): its block, its
rewards, and its Gram, crossterm, ||y_s||^2 and top eigenvalue, each computed
on first use. A task is validated once, when it joins. The design grows by
``append`` and ``prefix(k)`` takes its first k tasks, both sharing the
records, so the fits of a growing pool (the lifelong runner's after each
task, the offline sweep's over m) compute each task's statistics once.

The solver is an accelerated proximal-gradient iteration with a monotone
acceptance step and momentum restart on rejection. Each penalty group is
one column of B, so the prox shrinks column norms. Each iterate carries its
product G·B: the gradient is (2/N)(G·B - C), the objective is

    (sum B∘(G·B) - 2 sum C∘B + ||y||^2) / N + lam * sum_j ||B[:, j]||,

and the momentum point's product follows from the carried ones by
linearity. One batched matmul per iteration is the only product, with a
second one when a rejected step restarts the momentum. The fit stops when the
prox-gradient mapping norm, checked every ``CHECK_EVERY`` iterations, falls
below ``tol``. ``kkt_residuals`` provides an optimality certificate computed
from raw residuals, independent of the solver path.

On a pooled design (m >= 2) the iteration identifies the support long before
it meets ``tol``, so it hands off to Newton's method (after the semismooth
Newton idea of Li, Sun & Toh, SIAM J. Optim. 2018). Once the mapping norm at a
check is <= ``HANDOFF_MAP_NORM``, Newton solves the smooth problem over the
nonzero columns of the current iterate. Its point is accepted only if its own
mapping norm is <= ``tol`` and its objective is no higher than the iterate's;
otherwise the iteration carries on from where it was, momentum kept, and
tries again once the mapping norm is below ``HANDOFF_RETRY`` times its value
at the declined attempt.

A single-task fit (m = 1) is a plain lasso, whose solution path is piecewise
linear in lam. ``fit_group_lasso`` follows that path exactly (homotopy, or
LARS-lasso: Osborne, Presnell & Turlach 2000; Efron et al. 2004) from
lam_max = (2/N)||Phi^T y||_inf down to the target, one join or drop event per
step, with at most ``max_iter`` steps. It returns the path's point only when it
can certify it: every KKT residual is <= ``tol``, and the columns of the
equicorrelation set {j : (2/N)|phi_j^T r| >= lam - tol} are linearly
independent, which makes the solution unique (Tibshirani 2013, Lemma 2).
Otherwise, for instance on a singular active Gram, an exhausted step budget
or a polytope of solutions, the fit runs the proximal-gradient iteration
above, without a Newton attempt: a Newton point would be one arbitrary member
of a set of solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

CHECK_EVERY = 10  # iterations between convergence checks
HANDOFF_MAP_NORM = 1e-3  # mapping norm at the first Newton attempt
HANDOFF_RETRY = 1e-2  # after a declined attempt, wait for the norm to fall this much
NEWTON_MAX_STEPS = 30
NEWTON_GRAD_TOL = 1e-13  # times max(1, lam), on the reduced gradient's largest entry


class TaskBlock:
    """One task's design block Phi (n_s, p) and rewards y (n_s,), as a
    read-only copy, with the statistics every fit reads: the Gram Phi^T Phi,
    the crossterm Phi^T y, ||y||^2 and the top eigenvalue of Phi^T Phi. Each
    statistic is computed on first use and then kept, so a task shared by
    many designs pays for it once and a fit that never reads one (the
    eigenvalue, on the single-task path) never pays for it.

    Built only by ``PooledDesign``, which validates the data first.
    """

    def __init__(self, features: np.ndarray, rewards: np.ndarray) -> None:
        self.features = features
        self.rewards = rewards

    @property
    def rows(self) -> int:
        return self.features.shape[0]

    @cached_property
    def gram(self) -> np.ndarray:
        return _frozen(self.features.T @ self.features)

    @cached_property
    def cross(self) -> np.ndarray:
        return _frozen(self.features.T @ self.rewards)

    @cached_property
    def y_sq(self) -> float:
        return float(self.rewards @ self.rewards)

    @cached_property
    def top_eig(self) -> float:
        """Largest eigenvalue of Phi^T Phi (0 for an empty block), taken from
        the smaller of Phi Phi^T and Phi^T Phi: they share their nonzero
        spectrum."""
        n, p = self.features.shape
        if n == 0:
            return 0.0
        small = self.features @ self.features.T if n < p else self.gram
        return float(np.linalg.eigvalsh(small)[-1])


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class PooledDesign:
    """Per-task design blocks and rewards over one set of p scalar groups.

    Each task is one ``TaskBlock``, validated once, when it joins. A design
    grows by ``append`` and ``prefix(k)`` gives the design of its first k
    tasks; both share the blocks, and with them every statistic already
    computed, so a fit over m tasks after one over m - 1 computes the Gram,
    crossterm and eigenvalue of the new task only.

    Parameters
    ----------
    features : sequence of ndarray
        One (n_s, p) matrix per task, all with the same p columns;
        n_s = 0 is allowed (an empty task contributes nothing to the loss
        but still owns coefficients).
    rewards : sequence of ndarray
        One (n_s,) vector per task.
    """

    def __init__(self, features, rewards) -> None:
        if len(features) != len(rewards):
            raise ValueError("need one reward vector per design block")
        if len(features) == 0:
            raise ValueError("need at least one task")
        self.blocks: list[TaskBlock] = []
        for phi, y in zip(features, rewards):
            self.append(phi, y)
        if self.total_rows == 0:
            raise ValueError("pooled design has no rows")

    def append(self, features, rewards) -> None:
        """Add one task's (n_s, p) block and (n_s,) rewards as the last task;
        on invalid data raise ValueError and leave the design as it was."""
        k = len(self.blocks) + 1
        phi = np.array(features, dtype=float)
        y = np.array(rewards, dtype=float).reshape(-1)
        if phi.ndim != 2 or (self.blocks and phi.shape[1] != self.p):
            raise ValueError(f"task {k}: design block must be (n_s, p), p as in task 1")
        if phi.shape[0] != y.shape[0]:
            raise ValueError(f"task {k}: rows and rewards disagree")
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(y))):
            raise ValueError(f"task {k}: non-finite data")
        self.blocks.append(TaskBlock(_frozen(phi), _frozen(y)))

    def prefix(self, k: int) -> "PooledDesign":
        """The design of the first k tasks, sharing their blocks."""
        if not 1 <= k <= self.m:
            raise ValueError(f"prefix length must lie in 1..{self.m}")
        design = object.__new__(PooledDesign)
        design.blocks = self.blocks[:k]
        if design.total_rows == 0:
            raise ValueError("pooled design has no rows")
        return design

    @property
    def features(self) -> list[np.ndarray]:
        return [b.features for b in self.blocks]

    @property
    def rewards(self) -> list[np.ndarray]:
        return [b.rewards for b in self.blocks]

    @property
    def m(self) -> int:
        """Number of tasks."""
        return len(self.blocks)

    @property
    def p(self) -> int:
        """Number of penalty groups, one feature column each."""
        return self.blocks[0].features.shape[1]

    @property
    def total_rows(self) -> int:
        return sum(b.rows for b in self.blocks)

    def grams(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Batched per-task Gram data: (m,p,p) matrices, (m,p) crossterms,
        and the total squared reward norm."""
        G = np.stack([b.gram for b in self.blocks])
        C = np.stack([b.cross for b in self.blocks])
        y_sq = 0.0
        for b in self.blocks:
            y_sq += b.y_sq
        return G, C, y_sq

    def lipschitz(self) -> float:
        """Lipschitz constant of the loss gradient: the largest per-task
        spectral norm of (2/N) Phi_s^T Phi_s."""
        N = self.total_rows
        lips = 0.0
        for b in self.blocks:
            if b.rows:
                lips = max(lips, 2.0 * b.top_eig / N)
        return lips


class GroupCoefficients:
    """Coefficients for m tasks over p scalar groups.

    Stored as an (m, p) matrix: row s - 1 holds task s's coefficients and
    column j - 1 is group j across the tasks.
    """

    def __init__(self, matrix) -> None:
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2:
            raise ValueError("matrix must be (m, p)")
        self.matrix = mat

    @classmethod
    def zeros(cls, m: int, p: int) -> "GroupCoefficients":
        return cls(np.zeros((m, p)))

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return self.matrix.shape[1]

    def group_norms(self) -> np.ndarray:
        """All p cross-task group norms."""
        return np.sqrt((self.matrix**2).sum(axis=0))


@dataclass
class SolverReport:
    """What the group-lasso fit did.

    ``method`` names the stage that produced the returned point: ``"path"``
    for a certified single-task path fit, ``"newton"`` for an accepted Newton
    finish and ``"apg"`` for the proximal-gradient iterate.

    For a proximal-gradient fit, with or without a Newton finish,
    ``iterations`` counts the iterations plus every Newton step (those of
    declined attempts too), ``map_norm`` is the prox-gradient mapping norm at
    the returned point, and ``objective_history`` is subsampled every
    ``CHECK_EVERY`` iterations, followed by the Newton point's objective when
    one was accepted. It is non-increasing: the iteration's monotone
    acceptance step keeps it so (up to 1e-10 float noise), and a Newton point
    is accepted only at or below the last entry. For a path fit,
    ``iterations`` counts path steps, ``converged`` is True, ``map_norm`` is
    the largest KKT residual and ``objective_history`` is ``[objective]``.
    """

    method: str
    converged: bool
    iterations: int
    map_norm: float
    objective: float
    objective_history: np.ndarray = field(repr=False)


def pooled_loss(design: PooledDesign, coeffs: GroupCoefficients, lam: float) -> float:
    """Pooled objective: mean squared residual plus the group penalty."""
    if coeffs.matrix.shape != (design.m, design.p):
        raise ValueError("coefficients do not match the design")
    if lam < 0:
        raise ValueError("penalty weight must be nonnegative")
    rss = 0.0
    for block, beta in zip(design.blocks, coeffs.matrix):
        r = block.rewards - block.features @ beta
        rss += float(r @ r)
    return rss / design.total_rows + lam * float(coeffs.group_norms().sum())


def _prox(B: np.ndarray, thresh: float) -> np.ndarray:
    """Group soft-threshold for scalar groups: shrink each column of the
    (m, p) matrix toward zero by ``thresh`` in its cross-task norm."""
    norms = np.sqrt((B * B).sum(axis=0))
    # a zero column stays zero whatever its factor, so divide by inf there
    factors = np.maximum(1.0 - thresh / np.where(norms > 0.0, norms, np.inf), 0.0)
    return B * factors


def fit_group_lasso(
    design: PooledDesign,
    lam: float,
    *,
    tol: float = 1e-8,
    max_iter: int = 50_000,
    x0: GroupCoefficients | None = None,
) -> tuple[GroupCoefficients, SolverReport]:
    """Minimize the pooled group-lasso objective.

    A single-task design goes to the exact lasso path, which ignores ``x0``
    and returns only a certified unique solution; every other fit, and every
    single-task fit the path declines, runs accelerated proximal gradient,
    which on a pooled design hands off to a Newton finish on the support it
    has found.

    Accelerated proximal gradient uses constant step 1/L, monotone acceptance
    and momentum restart. L is the largest per-task spectral norm of
    (2/N) Phi_s^T Phi_s. Stops when the prox-gradient mapping norm at the
    current iterate is <= ``tol``; on hitting ``max_iter`` first, returns with
    ``converged=False`` rather than raising.

    Returns
    -------
    (GroupCoefficients, SolverReport)
    """
    if lam < 0:
        raise ValueError("penalty weight must be nonnegative")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if x0 is not None and x0.matrix.shape != (design.m, design.p):
        raise ValueError("warm start does not match the design")
    if design.m == 1:
        fit = _lasso_path(design, lam, tol, max_iter)
        if fit is not None:
            return fit
    return _apg(design, lam, tol, max_iter, x0)


def _apg(
    design: PooledDesign,
    lam: float,
    tol: float,
    max_iter: int,
    x0: GroupCoefficients | None,
) -> tuple[GroupCoefficients, SolverReport]:
    """Accelerated proximal gradient on the pooled objective, with a Newton
    finish on pooled designs; arguments as checked by ``fit_group_lasso``."""
    m, p, N = design.m, design.p, design.total_rows
    G, C, y_sq = design.grams()
    lips = design.lipschitz()
    step = 1.0 / lips if lips > 0 else 1.0
    thresh = lam * step

    # Every iterate B travels with its product G·B, so the gradient and the
    # objective at B cost no further product.
    def gram_times(B: np.ndarray) -> np.ndarray:
        return np.matmul(G, B[:, :, None])[:, :, 0]

    def prox_step(B: np.ndarray, GB: np.ndarray) -> np.ndarray:
        return _prox(B - step * ((2.0 / N) * (GB - C)), thresh)

    def objective(B: np.ndarray, GB: np.ndarray) -> float:
        rss = (float(np.vdot(B, GB)) - 2.0 * float(np.vdot(C, B)) + y_sq) / N
        return rss + lam * float(np.sqrt((B * B).sum(axis=0)).sum())

    def map_norm_at(B: np.ndarray, GB: np.ndarray) -> float:
        return float(np.linalg.norm(B - prox_step(B, GB))) / step

    x = x0.matrix.copy() if x0 is not None else np.zeros((m, p))
    gx = gram_times(x)
    f_x = objective(x, gx)
    history = [f_x]
    gap = map_norm_at(x, gx)
    iterations = newton_steps = 0
    method = "apg"
    # a single-task fit reaches APG only when its solution may not be
    # unique, and Newton would pick an arbitrary point of the solution set
    try_below = HANDOFF_MAP_NORM if m > 1 else 0.0
    converged = gap <= tol
    if not converged:
        y_pt, gy = x, gx
        t = 1.0
        for k in range(1, max_iter + 1):
            iterations = k
            z = prox_step(y_pt, gy)
            gz = gram_times(z)
            f_z = objective(z, gz)
            if f_z <= f_x:
                t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
                mom = (t - 1.0) / t_next
                # G is linear, so G·y follows from the products already held
                y_pt = z + mom * (z - x)
                gy = gz + mom * (gz - gx)
                x, gx, f_x, t = z, gz, f_z, t_next
            else:
                # accelerated step overshot: take a plain prox step from x,
                # which cannot increase the objective at step 1/L, and restart
                z = prox_step(x, gx)
                gz = gram_times(z)
                y_pt, gy = z, gz
                x, gx, f_x, t = z, gz, objective(z, gz), 1.0
            if k % CHECK_EVERY == 0 or k == max_iter:
                history.append(f_x)
                gap = map_norm_at(x, gx)
                if gap <= tol:
                    converged = True
                    break
                if gap <= try_below:
                    try_below = gap * HANDOFF_RETRY
                    z, steps = _newton_finish(G, C, N, lam, x)
                    newton_steps += steps
                    if z is not None:
                        # accepted only under APG's own stop rule and only if
                        # it does not raise the objective; else APG carries on
                        gz = gram_times(z)
                        f_z, gap_z = objective(z, gz), map_norm_at(z, gz)
                        if gap_z <= tol and f_z <= f_x:
                            x, f_x, gap, method, converged = z, f_z, gap_z, "newton", True
                            history.append(f_x)
                            break

    report = SolverReport(
        method=method,
        converged=converged,
        iterations=iterations + newton_steps,
        map_norm=gap,
        objective=f_x,
        objective_history=np.asarray(history),
    )
    return GroupCoefficients(x), report


def _newton_finish(
    G: np.ndarray, C: np.ndarray, N: int, lam: float, x: np.ndarray
) -> tuple[np.ndarray | None, int]:
    """Newton's method on the pooled objective restricted to the nonzero
    columns S of ``x``; returns the (m, p) point, zero off S, and the steps
    taken, or None in place of the point when the attempt aborts.

    While every column b_j of B[:, S] is nonzero the penalty is smooth, with
    gradient lam * u_j and Hessian w_j (I - u_j u_j^T), where u_j = b_j/||b_j||
    and w_j = lam/||b_j||. The Hessian of the restricted objective is then

        blockdiag_s[(2/N) G_s,SS + diag(w)] - sum_j w_j (u_j (x) e_j)(u_j (x) e_j)^T,

    one |S|x|S| block per task minus a rank-|S| term. By Woodbury a step costs
    one batched solve over the task blocks and one |S|x|S| capacitance solve.
    The attempt aborts when a column norm reaches zero, a solve is singular, a
    value is non-finite, or a step reverses a column's direction (u_j turns by
    more than 90 degrees). The last is the sign of a column that is zero at
    the optimum: the restricted problem then has no stationary point, and
    Newton pushes the column back and forth through zero. It stops when the
    largest gradient entry is at most ``NEWTON_GRAD_TOL * max(1, lam)`` or
    after ``NEWTON_MAX_STEPS`` steps.
    """
    S = np.flatnonzero((x * x).sum(axis=0) > 0.0)
    if S.size == 0:
        return None, 0
    GS = (2.0 / N) * G[:, S][:, :, S]
    CS = (2.0 / N) * C[:, S]
    B = x[:, S]
    eye = np.eye(S.size)
    grad_tol = NEWTON_GRAD_TOL * max(1.0, lam)
    steps = 0
    U = None
    with np.errstate(all="ignore"):
        while True:
            norms = np.sqrt((B * B).sum(axis=0))
            if not np.all(np.isfinite(B)) or not np.all(norms > 0.0):
                return None, steps
            U, U_prev = B / norms, U
            if U_prev is not None and np.any((U * U_prev).sum(axis=0) < 0.0):
                return None, steps
            grad = np.matmul(GS, B[:, :, None])[:, :, 0] - CS + lam * U
            if np.abs(grad).max() <= grad_tol or steps == NEWTON_MAX_STEPS:
                break
            w = lam / norms
            # Hessian D - P P^T: D holds the task blocks, and column j of P is
            # sqrt(w_j) (u_j (x) e_j), so P's rows for task s are diag(V[s]).
            # Woodbury: H^-1 g = Z + X (I - P^T X)^-1 P^T Z with Z = D^-1 g
            # and X = D^-1 P, both from one batched solve.
            V = U * np.sqrt(w)
            rhs = np.concatenate((grad[:, :, None], V[:, :, None] * eye), axis=2)
            try:
                sol = np.linalg.solve(GS + w * eye, rhs)
                Z, X = sol[:, :, 0], sol[:, :, 1:]
                v = np.linalg.solve(eye - (V[:, :, None] * X).sum(axis=0), (V * Z).sum(axis=0))
            except np.linalg.LinAlgError:
                return None, steps
            B = B - (Z + X @ v)
            steps += 1
    point = np.zeros_like(x)
    point[:, S] = B
    return point, steps


PATH_EVENT_FLOOR = 1e-12  # smaller drop times and join closing rates are ignored


def _lasso_path(
    design: PooledDesign, lam: float, tol: float, max_steps: int
) -> tuple[GroupCoefficients, SolverReport] | None:
    """Exact single-task lasso by homotopy, or None when it cannot certify.

    The path starts at lam_max with beta = 0. On the active set A with signs
    s_A, lowering lam by t moves beta_A by t * d with (2/N) G_AA d = s_A, so
    every active correlation (2/N) phi_j^T r stays at +-lam. A step goes to
    the nearest of three events: an inactive correlation reaching +-lam
    (join), an active coefficient reaching zero (drop), or the target lam.
    """
    block = design.blocks[0]
    phi, y, G, C = block.features, block.rewards, block.gram, block.cross
    N, p = phi.shape
    scale = 2.0 / N
    beta = np.zeros(p)
    corr = scale * C
    signs = np.zeros(p)  # +-1 on the active set, 0 elsewhere
    at = float(np.abs(corr).max())
    if at > lam:
        j = int(np.argmax(np.abs(corr)))
        signs[j] = np.sign(corr[j])
    steps = 0
    while at > lam:
        if steps == max_steps:
            return None
        steps += 1
        idx = np.flatnonzero(signs)
        try:
            d = np.linalg.solve(scale * G[idx][:, idx], signs[idx])
        except np.linalg.LinAlgError:
            return None
        # correlations move as corr - t * rate, active ones as (at - t) * sign;
        # an inactive one joins when it closes its gap to +-(at - t), at once
        # if it sits on (or by rounding just past) the bound moving outward
        rate = scale * (G[:, idx] @ d)
        gaps = np.concatenate((at - corr, at + corr))
        closing = np.concatenate((1.0 - rate, 1.0 + rate))
        with np.errstate(divide="ignore", invalid="ignore"):
            joins = np.maximum(gaps, 0.0) / closing
            drops = -beta[idx] / d
        joins[np.tile(signs != 0, 2) | ~(closing > PATH_EVENT_FLOOR)] = np.inf
        drops[~(drops > PATH_EVENT_FLOOR)] = np.inf
        join, drop = int(np.argmin(joins)), int(np.argmin(drops))
        t = min(at - lam, joins[join], drops[drop])
        beta[idx] += t * d
        if t == at - lam:
            break
        at -= t
        if t == joins[join]:
            # the first half of ``joins`` reaches +lam, the second -lam
            signs[join % p] = 1.0 if join < p else -1.0
        else:
            signs[idx[drop]] = beta[idx[drop]] = 0.0
        corr = scale * (C - G @ beta)

    # a non-finite direction leaves NaN in beta, which fails the KKT test
    coeffs = GroupCoefficients(beta.reshape(1, p))
    kkt = float(kkt_residuals(design, coeffs, lam).max())
    if not kkt <= tol:
        return None
    equicorrelated = np.abs(scale * (phi.T @ (y - phi @ beta))) >= lam - tol
    size = int(equicorrelated.sum())
    if size > N or (size and np.linalg.matrix_rank(phi[:, equicorrelated]) < size):
        return None
    objective = pooled_loss(design, coeffs, lam)
    report = SolverReport(
        method="path",
        converged=True,
        iterations=steps,
        map_norm=kkt,
        objective=objective,
        objective_history=np.asarray([objective]),
    )
    return coeffs, report


def kkt_residuals(design: PooledDesign, coeffs: GroupCoefficients, lam: float) -> np.ndarray:
    """Per-group optimality residuals at ``coeffs``.

    For a group with a nonzero cross-task block the residual is
    ||g_j + lam * u_j|| with u_j the block's unit direction; for an exactly
    zero block it is max(0, ||g_j|| - lam). A point is optimal iff every
    residual is zero. Gradients are recomputed from raw residuals so the
    certificate shares no state with the solver.
    """
    if coeffs.matrix.shape != (design.m, design.p):
        raise ValueError("coefficients do not match the design")
    N = design.total_rows
    grad_rows = np.empty_like(coeffs.matrix)
    for s, block in enumerate(design.blocks):
        phi, y = block.features, block.rewards
        grad_rows[s] = (2.0 / N) * (phi.T @ (phi @ coeffs.matrix[s] - y))
    norms = coeffs.group_norms()
    nonzero = norms > 0
    units = coeffs.matrix / np.where(nonzero, norms, 1.0)
    stationarity = np.sqrt(((grad_rows + lam * units) ** 2).sum(axis=0))
    slack = np.maximum(0.0, np.sqrt((grad_rows**2).sum(axis=0)) - lam)
    return np.where(nonzero, stationarity, slack)
