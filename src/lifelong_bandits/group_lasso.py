"""Pooled multi-task group lasso.

Data from m tasks share one feature dictionary of p groups. With per-task
design blocks Phi_s (n_s rows) and rewards y_s, the pooled objective over
coefficients beta = (beta_1, ..., beta_m) is

    (1/N) * sum_s ||y_s - Phi_s beta_s||^2
        + lam * sum_j sqrt( sum_s ||beta_s^(j)||^2 ),          N = sum_s n_s,

so each penalty group gathers coordinate block j across every task. The
conceptual design matrix is block-diagonal in the tasks; it is never
materialized. The solver works on the per-task Gram stack G (m, d, d) and
crossterms C (m, d).

The solver is an accelerated proximal-gradient iteration with a monotone
acceptance step and momentum restart on rejection. It requires scalar groups
(d_j = 1, as in every feature atlas), so the coefficients are an (m, p)
matrix B, each penalty group is one column, and the prox shrinks column
norms. Each iterate carries its product G·B: the gradient is
(2/N)(G·B - C), the objective is

    (sum B∘(G·B) - 2 sum C∘B + ||y||^2) / N + lam * sum_j ||B[:, j]||,

and the momentum point's product follows from the carried ones by
linearity. One batched matmul per iteration is the only product, with a
second one when a rejected step restarts the momentum. The fit stops when the
prox-gradient mapping norm falls below ``tol``. ``kkt_residuals`` provides an
optimality certificate computed from raw residuals, independent of the solver
path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _group_starts(dims: tuple[int, ...]) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(dims)[:-1])).astype(np.intp)


class PooledDesign:
    """Per-task design blocks and rewards sharing one group structure.

    Parameters
    ----------
    features : sequence of ndarray
        One (n_s, d) matrix per task; n_s = 0 is allowed (an empty task
        contributes nothing to the loss but still owns coefficients).
    rewards : sequence of ndarray
        One (n_s,) vector per task.
    dims : sequence of int
        Per-group feature dimensions; sum(dims) must equal d.
    """

    def __init__(self, features, rewards, dims) -> None:
        if len(features) != len(rewards):
            raise ValueError("need one reward vector per design block")
        if len(features) == 0:
            raise ValueError("need at least one task")
        self.dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in self.dims):
            raise ValueError("group dimensions must be positive")
        d = sum(self.dims)
        self.features = []
        self.rewards = []
        for k, (phi, y) in enumerate(zip(features, rewards)):
            phi = np.asarray(phi, dtype=float)
            y = np.asarray(y, dtype=float).reshape(-1)
            if phi.ndim != 2 or phi.shape[1] != d:
                raise ValueError(f"task {k + 1}: design block must be (n_s, {d})")
            if phi.shape[0] != y.shape[0]:
                raise ValueError(f"task {k + 1}: rows and rewards disagree")
            if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(y))):
                raise ValueError(f"task {k + 1}: non-finite data")
            self.features.append(phi)
            self.rewards.append(y)
        if self.total_rows == 0:
            raise ValueError("pooled design has no rows")

    @property
    def m(self) -> int:
        """Number of tasks."""
        return len(self.features)

    @property
    def p(self) -> int:
        """Number of penalty groups."""
        return len(self.dims)

    @property
    def d(self) -> int:
        """Per-task coefficient dimension."""
        return sum(self.dims)

    @property
    def total_rows(self) -> int:
        return sum(phi.shape[0] for phi in self.features)

    def grams(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Batched per-task Gram data: (m,d,d) matrices, (m,d) crossterms,
        and the total squared reward norm."""
        m, d = self.m, self.d
        G = np.empty((m, d, d))
        C = np.empty((m, d))
        y_sq = 0.0
        for s in range(m):
            phi, y = self.features[s], self.rewards[s]
            G[s] = phi.T @ phi
            C[s] = phi.T @ y
            y_sq += float(y @ y)
        return G, C, y_sq


class GroupCoefficients:
    """Coefficients for m tasks over a shared group structure.

    Stored as an (m, d) matrix; row s holds task s's coefficients, and the
    columns split into p group slices. ``values`` flattens task-major, i.e.
    task 1's full coefficient block first. Task and group accessors are
    1-based, matching the math convention used throughout.
    """

    def __init__(self, matrix, dims) -> None:
        self.dims = tuple(int(d) for d in dims)
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[1] != sum(self.dims):
            raise ValueError(f"matrix must be (m, {sum(self.dims)})")
        self.matrix = mat
        self._starts = _group_starts(self.dims)

    @classmethod
    def zeros(cls, m: int, dims) -> "GroupCoefficients":
        return cls(np.zeros((m, sum(dims))), dims)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return len(self.dims)

    @property
    def values(self) -> np.ndarray:
        """Flat vector of length m*d with per-task blocks in task order."""
        return self.matrix.ravel().copy()

    def _slice(self, j: int) -> slice:
        if not 1 <= j <= self.p:
            raise IndexError(f"group index {j} outside 1..{self.p}")
        start = self._starts[j - 1]
        return slice(start, start + self.dims[j - 1])

    def block(self, s: int, j: int) -> np.ndarray:
        """Task s's coefficients for group j, shape (d_j,). 1-based."""
        if not 1 <= s <= self.m:
            raise IndexError(f"task index {s} outside 1..{self.m}")
        return self.matrix[s - 1, self._slice(j)].copy()

    def group(self, j: int) -> np.ndarray:
        """Group j's cross-task block flattened to (m * d_j,). 1-based."""
        return self.matrix[:, self._slice(j)].ravel().copy()

    def group_norm(self, j: int) -> float:
        return float(np.linalg.norm(self.matrix[:, self._slice(j)]))

    def group_norms(self) -> np.ndarray:
        """All p cross-task group norms."""
        sq = np.add.reduceat((self.matrix**2).sum(axis=0), self._starts)
        return np.sqrt(sq)


@dataclass
class SolverReport:
    """What the group-lasso fit did.

    ``objective_history`` is subsampled at the convergence-check cadence and
    is non-increasing by construction of the monotone acceptance step (up to
    1e-10 float noise).
    """

    converged: bool
    iterations: int
    map_norm: float
    objective: float
    step: float
    lipschitz: float
    objective_history: np.ndarray = field(repr=False)


def pooled_loss(design: PooledDesign, coeffs: GroupCoefficients, lam: float) -> float:
    """Pooled objective: mean squared residual plus the group penalty."""
    if coeffs.m != design.m or coeffs.dims != design.dims:
        raise ValueError("coefficients do not match the design")
    if lam < 0:
        raise ValueError("penalty weight must be nonnegative")
    rss = 0.0
    for s in range(design.m):
        r = design.rewards[s] - design.features[s] @ coeffs.matrix[s]
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
    check_every: int = 10,
) -> tuple[GroupCoefficients, SolverReport]:
    """Minimize the pooled group-lasso objective.

    Accelerated proximal gradient with constant step 1/L, monotone acceptance
    and momentum restart. L is the largest per-task spectral norm of
    (2/N) Phi_s^T Phi_s. Stops when the prox-gradient mapping norm at the
    current iterate is <= ``tol``; on hitting ``max_iter`` first, returns with
    ``converged=False`` rather than raising. Every group must be scalar
    (d_j = 1); other group dimensions raise ``ValueError``.

    Returns
    -------
    (GroupCoefficients, SolverReport)
    """
    if lam < 0:
        raise ValueError("penalty weight must be nonnegative")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if any(d != 1 for d in design.dims):
        raise ValueError("the solver requires every group dimension to be 1")
    if x0 is not None and (x0.m != design.m or x0.dims != design.dims):
        raise ValueError("warm start does not match the design")
    m, p, N = design.m, design.p, design.total_rows
    G, C, y_sq = design.grams()

    lips = 0.0
    for s in range(m):
        # exact top eigenvalue of the task's scaled Gram; d is small
        top = float(np.linalg.eigvalsh(G[s])[-1]) if G[s].any() else 0.0
        lips = max(lips, 2.0 * top / N)
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
    iterations = 0
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
            if k % check_every == 0 or k == max_iter:
                history.append(f_x)
                gap = map_norm_at(x, gx)
                if gap <= tol:
                    converged = True
                    break

    report = SolverReport(
        converged=converged,
        iterations=iterations,
        map_norm=gap,
        objective=f_x,
        step=step,
        lipschitz=lips,
        objective_history=np.asarray(history),
    )
    return GroupCoefficients(x, design.dims), report


def kkt_residuals(design: PooledDesign, coeffs: GroupCoefficients, lam: float) -> np.ndarray:
    """Per-group optimality residuals at ``coeffs``.

    For a group with a nonzero cross-task block the residual is
    ||g_j + lam * u_j|| with u_j the block's unit direction; for an exactly
    zero block it is max(0, ||g_j|| - lam). A point is optimal iff every
    residual is zero. Gradients are recomputed from raw residuals so the
    certificate shares no state with the solver.
    """
    if coeffs.m != design.m or coeffs.dims != design.dims:
        raise ValueError("coefficients do not match the design")
    N = design.total_rows
    grad_rows = np.empty_like(coeffs.matrix)
    for s in range(design.m):
        phi, y = design.features[s], design.rewards[s]
        grad_rows[s] = (2.0 / N) * (phi.T @ (phi @ coeffs.matrix[s] - y))
    starts = _group_starts(design.dims)
    out = np.empty(design.p)
    for j in range(design.p):
        sl = slice(starts[j], starts[j] + design.dims[j])
        g = grad_rows[:, sl].ravel()
        b = coeffs.matrix[:, sl].ravel()
        nb = np.linalg.norm(b)
        if nb > 0:
            out[j] = np.linalg.norm(g + lam * b / nb)
        else:
            out[j] = max(0.0, float(np.linalg.norm(g)) - lam)
    return out
