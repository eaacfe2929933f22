"""Pooled multi-task group lasso.

Data from m tasks share one feature dictionary of p scalar groups. With
per-task design blocks Phi_s (n_s rows, p columns) and rewards y_s, the
pooled objective over the (m, p) coefficient matrix B is

    (1/N) * sum_s ||y_s - Phi_s B[s]||^2 + lam * sum_j ||B[:, j]||,
                                                            N = sum_s n_s,

so each penalty group gathers coordinate j across every task. The
conceptual design matrix is block-diagonal in the tasks; it is never
materialized. The solvers work on the tasks' rows, zero-padded to one
(m, r, p) stack F (r the largest task's row count), and crossterms C (m, p);
a Gram is built only over a support S, as F[:, :, S]^T F[:, :, S].

A ``PooledDesign`` holds F with the rewards, validated when it is built,
and computes every statistic a fit reads then (each task's crossterm,
||y_s||^2 and top Gram eigenvalue). ``prefix(k)`` takes its first k tasks
as views of the same arrays, statistics included, so the fits of a growing
pool (the lifelong runner's after each task, the offline sweep's over m)
are fits of one design's prefixes and hold each row once.

The solver is an accelerated proximal-gradient iteration with a monotone
acceptance step and momentum restart on rejection. Each penalty group is
one column of B, so the prox shrinks column norms, and it returns the column
norms of its point. Each iterate carries its gradient step
g = step·(2/N)(F^T (F·B) - C), so the prox argument is B - g and the
objective is

    (sum B∘g / (2 step/N) - sum C∘B + ||y||^2) / N + lam * sum_j ||B[:, j]||.

g is affine in B, so the momentum point's follows from the carried ones.
Two batched matmuls per iteration (F·B, then F^T times it) are the only
products, with two more when a rejected step restarts the momentum. Every
prox step measures the prox-gradient mapping norm at the point it started
from. The fit stops when the mapping norm at its iterate is <= ``TOL`` (the
stop rule), tested whenever the norm an iteration measured is within
``TOL``, before each Newton attempt and at the last iteration, or gives up
after ``MAX_ITER`` iterations; both are module constants, read at each fit,
and no argument or config key sets them. ``kkt_residuals`` provides an
optimality certificate computed from raw residuals, independent of the
solver path.

On a pooled design (m >= 2) the iteration identifies the support long before
it meets ``TOL``, so it hands off to Newton's method (after the semismooth
Newton idea of Li, Sun & Toh, SIAM J. Optim. 2018) once the iteration has
slowed. Every prox step gives the support of its point and the mapping norm
at the point it started from. Once that norm is <= ``HANDOFF_MAP_NORM``, or
at the first iteration of a warm fit whose prox step keeps the nonzero
columns of its start ``x0``, whatever that norm, the stop rule is tested at
the iterate, which ends the fit if it holds, and otherwise Newton solves the
smooth problem over the support. A column that is still nonzero there but
zero at the optimum shows itself at once: a Newton step pushes it through
zero. Newton then drops it, goes back to the point before that step without
it, and carries on over the smaller support.
Its point is accepted only if its own mapping norm is <= ``TOL`` and its
objective is no higher than the iterate's. A point that fails only the
mapping norm becomes the iterate, with momentum restarted, so the next prox
step can bring back a column Newton dropped wrongly; a point above the iterate's
objective is discarded. Either way the iteration carries on, and one factor
rules every attempt: Newton is tried once the measured norm has fallen
``HANDOFF_MAP_NORM``-fold from a reference. The reference is 1, except on
the support of the last declined attempt, where it is that attempt's norm
capped at 1 (a warm fit's first attempt can be declined at a norm above 1).
So a new support is tried as soon as the norm is within
``HANDOFF_MAP_NORM``, and a declined one only once the norm has fallen that
far again.
``HANDOFF_MAP_NORM = 0`` switches the hand-off off. So does a penalty whose
ratio lam / L to the Lipschitz constant is within machine epsilon: the
Newton system is then numerically the tasks' own Gram blocks, singular for a
task with fewer rows than support columns, and its point an arbitrary,
often huge, member of the solution set.
Newton stops as soon as its point can pass that test: once the largest
entry of its reduced gradient is within TOL / (2 sqrt(m |S|)), |S| the size
of the support.

A fit over a growing pool starts from the last fit over fewer tasks
(``padded_warm_start``). Each new task's row is not zero there but
predicted: one Newton step from zero of the objective in that row, on the
old fit's nonzero columns, kept only if it lowers the objective. So the
iteration does not spend its first steps growing a row whose direction the
old fit already knows. When the new tasks do not change the support, the
first prox step keeps the start's columns, and Newton is tried from there at
once, without waiting for the mapping norm to fall (unless the hand-off is
off).

A single-task fit (m = 1) is a plain lasso, whose solution path is piecewise
linear in lam. The fit follows that path exactly (homotopy, or LARS-lasso:
Osborne, Presnell & Turlach 2000; Efron et al. 2004) from
lam_max = (2/N)||Phi^T y||_inf down to the target, one join or drop event per
step, with at most ``MAX_ITER`` steps. It returns the path's point only when it
can certify it: every KKT residual is <= ``TOL``, and the columns of the
equicorrelation set {j : (2/N)|phi_j^T r| >= lam - TOL} are linearly
independent, which makes the solution unique (Tibshirani 2013, Lemma 2).
Otherwise, for instance on a singular active Gram, an exhausted step budget
or a polytope of solutions, the fit runs the proximal-gradient iteration
above from a cold start (a warm start is ignored: the member of a set of
solutions that the iteration reaches depends on where it starts), without a
Newton attempt: a Newton point would be one arbitrary member of that set.

``fit_lassos``, the one route for single-task fits, follows the paths of a
design's K tasks at once (every federated client in one call;
``fit_group_lasso`` runs it with K = 1) on the design's row stack: each step
takes every unfinished task to its own next event, solving all the tasks'
active blocks, padded to the largest with the identity, in one batched
solve. Each task keeps its own step
count, certificate and fallback: a singular solve, a non-finite direction,
an exhausted budget or a failed certificate declines that task alone,
which then runs the proximal-gradient iteration on its own data. So task
s's answer is the one a fit of its data alone gives, up to rounding (about
1e-12 on the coefficients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-8  # the stop rule's mapping norm, and the path certificate's KKT residual
MAX_ITER = 50_000  # iterations of the proximal-gradient iteration, and steps of the lasso path
HANDOFF_MAP_NORM = 1e-2  # fall of the mapping norm before Newton is tried; 0 switches it off
NEWTON_MAX_STEPS = 30


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class PooledDesign:
    """The tasks' rows and rewards over one set of p scalar groups, as one
    zero-padded row stack, with the statistics every fit reads.

    Task s's n_s = ``rows[s - 1]`` rows and rewards are the first n_s of
    ``F[s - 1]`` and ``Y[s - 1]`` ((m, r, p) and (m, r), r the largest n_s),
    the rest zero. They are validated and copied in when the design is
    built, and each task's crossterm Phi_s^T y_s (row s - 1 of the (m, p)
    ``C``), ||y_s||^2 and top Gram eigenvalue are computed then, the
    eigenvalues in one batched call over the stack's Grams of side
    min(r, p), with the running totals in task order of the row counts and
    ||y_s||^2 that give ``total_rows`` and ``y_sq``; all are read-only.
    ``prefix(k)`` gives the design of the first k tasks as views of the same
    arrays, statistics included, so the fits over a design's prefixes share
    its rows and compute no statistic again.

    Parameters
    ----------
    features : sequence of ndarray
        One (n_s, p) matrix per task, all with the same p >= 1 columns;
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
        # task 1's width, against which every task is checked
        first = np.shape(features[0])
        p = first[1] if len(first) == 2 else 0
        blocks = []
        for k, (phi, y) in enumerate(zip(features, rewards), start=1):
            phi = np.asarray(phi, dtype=float)
            y = np.asarray(y, dtype=float).reshape(-1)
            if phi.ndim != 2 or phi.shape[1] != p or p == 0:
                raise ValueError(f"task {k}: design block must be (n_s, p), p >= 1 as in task 1")
            if phi.shape[0] != y.shape[0]:
                raise ValueError(f"task {k}: rows and rewards disagree")
            if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(y))):
                raise ValueError(f"task {k}: non-finite data")
            blocks.append((phi, y))
        rows = np.array([len(y) for _, y in blocks])
        if rows.sum() == 0:
            raise ValueError("pooled design has no rows")
        m, r = len(rows), rows.max()
        F, Y = np.zeros((m, r, p)), np.zeros((m, r))
        C, y_sq = np.empty((m, p)), np.empty(m)
        for s, (phi, y) in enumerate(blocks):
            n = len(y)
            F[s, :n], Y[s, :n] = phi, y
            phi, y = F[s, :n], Y[s, :n]
            C[s], y_sq[s] = phi.T @ y, y @ y
        # Phi Phi^T and Phi^T Phi share their nonzero spectrum, and a task's
        # zero rows add only zero eigenvalues, so one call covers every task
        F_T = F.transpose(0, 2, 1)
        gram = np.matmul(F, F_T) if r < p else np.matmul(F_T, F)
        self._top_eig = _frozen(np.linalg.eigvalsh(gram)[:, -1])
        self.F, self.Y, self.rows, self.C = _frozen(F), _frozen(Y), _frozen(rows), _frozen(C)
        # running totals in task order, so a prefix reads its own
        self._rows_to, self._y_sq_to = _frozen(np.cumsum(rows)), _frozen(np.cumsum(y_sq))

    def prefix(self, k: int) -> "PooledDesign":
        """The design of the first k tasks, as views of this one's arrays."""
        if not 1 <= k <= self.m:
            raise ValueError(f"prefix length must lie in 1..{self.m}")
        if self._rows_to[k - 1] == 0:
            raise ValueError("pooled design has no rows")
        design = object.__new__(PooledDesign)
        r = self.rows[:k].max()
        design.F, design.Y = self.F[:k, :r], self.Y[:k, :r]
        design.rows, design.C = self.rows[:k], self.C[:k]
        design._rows_to, design._y_sq_to = self._rows_to[:k], self._y_sq_to[:k]
        design._top_eig = self._top_eig[:k]
        return design

    @property
    def m(self) -> int:
        """Number of tasks."""
        return len(self.rows)

    @property
    def p(self) -> int:
        """Number of penalty groups, one feature column each."""
        return self.F.shape[2]

    @property
    def total_rows(self) -> int:
        return int(self._rows_to[-1])

    @property
    def y_sq(self) -> float:
        """The squared norm of every task's rewards together."""
        return float(self._y_sq_to[-1])

    def lipschitz(self) -> float:
        """Lipschitz constant of the loss gradient: the largest per-task
        spectral norm of (2/N) Phi_s^T Phi_s."""
        return max(0.0, 2.0 * float(self._top_eig.max()) / self.total_rows)


def group_norms(coeffs: np.ndarray) -> np.ndarray:
    """The p cross-task group norms of an (m, p) coefficient matrix, whose
    row s - 1 holds task s's coefficients: the norm of each column."""
    return np.sqrt((coeffs**2).sum(axis=0))


def padded_warm_start(
    coeffs: np.ndarray | None, design: PooledDesign, lam: float
) -> np.ndarray | None:
    """The start of a fit of ``design`` at penalty ``lam`` from an earlier fit
    over fewer of its first tasks: ``coeffs`` with a predicted row for each
    task added since. None (a cold start) when there is no earlier fit or it
    had as many tasks as ``design`` or more.

    Let S be the nonzero columns of ``coeffs`` and c_j their norms. Each new
    task's row, in order, is one Newton step from zero of the objective in
    that row with every row before it fixed, zero off S:

        ((2/N) G_s,SS + diag(lam / c_S)) b = (2/N) C_s,S,  G_s,SS = F_s,S^T F_s,S.

    The row enters only if it lowers the pooled objective, by the exact change
    (b^T G_s,SS b - 2 C_s,S^T b) / N + lam * sum_j (sqrt(c_j^2 + b_j^2) - c_j),
    and c then takes it in. The row stays zero when S is empty, ``lam`` is
    zero (the step would be an unpenalized least-squares fit), the solve is
    singular or a value is not finite. Nothing is accepted here: the fit
    still iterates from this start to its own stop rule.
    """
    if coeffs is None or len(coeffs) >= design.m:
        return None
    old, p = coeffs.shape
    start = np.zeros((design.m, p))
    start[:old] = coeffs
    norms_sq = (coeffs * coeffs).sum(axis=0)
    S = np.flatnonzero(norms_sq > 0.0)
    if S.size == 0 or lam == 0.0:
        return start
    scale = 2.0 / design.total_rows
    FS = design.F[old:, :, S]
    GS = scale * np.matmul(FS.transpose(0, 2, 1), FS)
    CS = scale * design.C[old:, S]
    c = np.sqrt(norms_sq[S])
    with np.errstate(all="ignore"):
        for s, (A, rhs) in enumerate(zip(GS, CS), start=old):
            try:
                b = np.linalg.solve(A + np.diag(lam / c), rhs)
            except np.linalg.LinAlgError:
                continue
            grown = np.sqrt(c * c + b * b)
            # the penalty's change sqrt(c^2 + b^2) - c, without the cancellation
            penalty = lam * float((b * b / (grown + c)).sum())
            if np.all(np.isfinite(b)) and 0.5 * float(b @ A @ b) - float(rhs @ b) + penalty < 0.0:
                start[s, S], c = b, grown
    return start


@dataclass
class SolverReport:
    """What the group-lasso fit did, returned beside the (m, p) coefficients.

    ``method`` names the stage that produced the returned point: ``"path"``
    for a certified single-task path fit, ``"newton"`` for an accepted Newton
    finish and ``"apg"`` for the proximal-gradient iterate.

    For a proximal-gradient fit, with or without a Newton finish,
    ``iterations`` counts the iterations plus every Newton step (those of
    declined attempts too), ``newton_attempts`` and ``newton_steps`` count
    the Newton attempts and their steps, ``map_norm`` is the prox-gradient
    mapping norm at the returned point, and ``objective_history`` holds the
    objective at the start and at every stop test (at each iteration whose
    measured mapping norm is within ``TOL``, before each Newton attempt and
    at the last iteration), and after each attempt whose
    point became the iterate, that point's objective: the accepted point's
    last. It is non-increasing: the iteration's monotone acceptance step
    keeps it so (up to 1e-10 float noise), and a Newton point becomes the
    iterate only at or below the last entry. For a path fit, ``iterations``
    counts path steps, ``newton_attempts`` and ``newton_steps`` are 0,
    ``converged`` is True, ``map_norm`` is the largest KKT residual and
    ``objective_history`` is ``[objective]``.
    """

    method: str
    converged: bool
    iterations: int
    map_norm: float
    objective: float
    objective_history: np.ndarray = field(repr=False)
    newton_attempts: int = 0
    newton_steps: int = 0


def pooled_loss(design: PooledDesign, coeffs: np.ndarray, lam: float) -> float:
    """Pooled objective at the (m, p) coefficient matrix ``coeffs``: mean
    squared residual plus the group penalty."""
    if coeffs.shape != (design.m, design.p):
        raise ValueError("coefficients do not match the design")
    if lam < 0:
        raise ValueError("penalty weight must be nonnegative")
    residuals = design.Y - np.matmul(design.F, coeffs[:, :, None])[:, :, 0]
    rss = float(np.vdot(residuals, residuals))
    return rss / design.total_rows + lam * float(group_norms(coeffs).sum())


def _prox_step(B: np.ndarray, g: np.ndarray, thresh: float) -> tuple[np.ndarray, np.ndarray]:
    """The proximal-gradient step from B with gradient step g: shrink each
    column of the (m, p) matrix B - g toward zero by ``thresh`` in its
    cross-task norm. Returns the new point and its column norms."""
    U = B - g
    norms = np.sqrt(np.add.reduce(U * U))
    # factor 0 at or below thresh and 1 - thresh/norm above it; at thresh = 0
    # the floor 1 only keeps a zero column from 0/0, and every factor is 1
    factors = 1.0 - thresh / np.maximum(norms, thresh or 1.0)
    return U * factors, norms * factors


def fit_group_lasso(
    design: PooledDesign, lam: float, *, x0: np.ndarray | None = None
) -> tuple[np.ndarray, SolverReport]:
    """Minimize the pooled group-lasso objective.

    A single-task design (m = 1) is fitted by ``fit_lassos`` with K = 1,
    which ignores ``x0``: the exact lasso path when it can certify a unique
    solution, and otherwise accelerated proximal gradient from a cold start.
    Every pooled fit (m >= 2) runs accelerated proximal gradient from
    ``x0``, handing off to a Newton finish on the support it has found.

    Accelerated proximal gradient uses constant step 1/L, monotone acceptance
    and momentum restart. L is the largest per-task spectral norm of
    (2/N) Phi_s^T Phi_s. Stops when the prox-gradient mapping norm at the
    current iterate is <= ``TOL``; on hitting ``MAX_ITER`` first, returns with
    ``converged=False`` rather than raising.

    Returns the (m, p) coefficient matrix, row s - 1 for task s and column
    j - 1 for group j, and the ``SolverReport``. An (m, p) start ``x0`` is
    not written to.
    """
    if lam < 0:
        raise ValueError("penalty weight must be nonnegative")
    if x0 is not None and x0.shape != (design.m, design.p):
        raise ValueError("warm start does not match the design")
    if design.m == 1:
        coeffs, (report,) = fit_lassos(design, lam)
        return coeffs, report
    return _apg(design, lam, TOL, MAX_ITER, x0)


def _apg(
    design: PooledDesign,
    lam: float,
    tol: float,
    max_iter: int,
    x0: np.ndarray | None,
) -> tuple[np.ndarray, SolverReport]:
    """Accelerated proximal gradient on the pooled objective, with a Newton
    finish on pooled designs; arguments as checked by ``fit_group_lasso``,
    which passes ``TOL`` and ``MAX_ITER`` as ``tol`` and ``max_iter``."""
    m, p, N = design.m, design.p, design.total_rows
    F, C, y_sq = design.F, design.C, design.y_sq
    F_T = F.transpose(0, 2, 1)
    lips = design.lipschitz()
    step = 1.0 / lips if lips > 0 else 1.0
    thresh = lam * step
    scale = 2.0 * step / N
    scaled_C = scale * C

    # Every iterate B travels with its gradient step
    # g = step * (2/N)(F^T (F·B) - C), so the prox argument is B - g and the
    # objective at B costs no product.
    def grad_step(B: np.ndarray) -> np.ndarray:
        return np.matmul(F_T, np.matmul(F, B[:, :, None]))[:, :, 0] * scale - scaled_C

    def objective(B: np.ndarray, g: np.ndarray, norms: np.ndarray) -> float:
        # sum B∘(F^T F·B) = sum B∘g / scale + sum C∘B
        rss = (float(np.vdot(B, g)) / scale - float(np.vdot(C, B)) + y_sq) / N
        return rss + lam * float(np.add.reduce(norms))

    def map_norm(B: np.ndarray, z: np.ndarray) -> float:
        # ||B - z|| / step by the ddot np.linalg.norm runs, without its wrapper
        d = B - z
        return math.sqrt(np.vdot(d, d)) / step

    x = x0.copy() if x0 is not None else np.zeros((m, p))
    gx = grad_step(x)
    norms = np.sqrt(np.add.reduce(x * x))
    f_x = objective(x, gx, norms)
    history = [f_x]
    iterations = newton_attempts = newton_steps = 0
    method = "apg"
    # a single-task fit reaches APG only when its solution may not be
    # unique, and Newton would pick an arbitrary point of the solution set;
    # so would a pooled fit whose lam / L is within rounding (module docstring)
    handoff = m > 1 and thresh > np.finfo(float).eps and HANDOFF_MAP_NORM > 0.0
    start = (norms > 0.0).tobytes() if x0 is not None else None  # x0's nonzero columns
    tried, tried_ref = None, 1.0  # support of the last declined attempt, and its reference
    # the start's stop test, whose prox step is iteration 1's: its momentum point is x
    z, norms = _prox_step(x, gx, thresh)
    gap = map_norm(x, z)
    converged = gap <= tol
    if not converged:
        y_pt, gy = x, gx
        t = 1.0
        for k in range(1, max_iter + 1):
            iterations = k
            base = y_pt
            if k > 1:
                z, norms = _prox_step(y_pt, gy, thresh)
            gz = grad_step(z)
            f_z = objective(z, gz, norms)
            if f_z <= f_x:
                t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
                mom = (t - 1.0) / t_next
                # g is affine in B, so g at y follows from the steps already held
                y_pt = z + mom * (z - x)
                gy = gz + mom * (gz - gx)
                x, gx, f_x, t = z, gz, f_z, t_next
            else:
                # accelerated step overshot: take a plain prox step from x,
                # which cannot increase the objective at step 1/L, and restart
                base = x
                z, norms = _prox_step(x, gx, thresh)
                gz = grad_step(z)
                y_pt, gy = z, gz
                x, gx, f_x, t = z, gz, objective(z, gz, norms), 1.0
            # the mapping norm at the point this iteration's prox started from
            moved = map_norm(z, base)
            attempt = False
            if handoff:
                support = (norms > 0.0).tobytes()
                # the norm must fall HANDOFF_MAP_NORM-fold from 1, or on the last
                # declined support from that attempt's norm (module docstring)
                ref = tried_ref if support == tried else 1.0
                # a warm fit whose first prox step keeps x0's support tries Newton at once
                attempt = moved <= HANDOFF_MAP_NORM * ref or (k == 1 and support == start)
            if attempt or moved <= tol or k == max_iter:
                history.append(f_x)
                gap = map_norm(x, _prox_step(x, gx, thresh)[0])
                if gap <= tol:
                    converged = True
                    break
            if attempt:
                tried, tried_ref = support, min(moved, 1.0)
                z, steps = _newton_finish(F, C, N, lam, x, tol)
                newton_attempts += 1
                newton_steps += steps
                if z is not None:
                    # accepted only under APG's own stop rule and only if it
                    # does not raise the objective; a point that fails only
                    # the stop rule becomes the iterate, and momentum restarts
                    gz = grad_step(z)
                    f_z = objective(z, gz, np.sqrt(np.add.reduce(z * z)))
                    gap_z = map_norm(z, _prox_step(z, gz, thresh)[0])
                    if f_z <= f_x:
                        x, gx, f_x, gap = z, gz, f_z, gap_z
                        y_pt, gy, t = z, gz, 1.0
                        history.append(f_x)
                        if gap_z <= tol:
                            method, converged = "newton", True
                            break

    report = SolverReport(
        method=method,
        converged=converged,
        iterations=iterations + newton_steps,
        map_norm=gap,
        objective=f_x,
        objective_history=np.asarray(history),
        newton_attempts=newton_attempts,
        newton_steps=newton_steps,
    )
    return x, report


def _newton_finish(
    F: np.ndarray, C: np.ndarray, N: int, lam: float, x: np.ndarray, tol: float
) -> tuple[np.ndarray | None, int]:
    """Newton's method on the pooled objective restricted to the nonzero
    columns S of ``x``; returns the (m, p) point, zero off S, and the steps
    taken, or None in place of the point when the attempt aborts.

    While every column b_j of B[:, S] is nonzero the penalty is smooth, with
    gradient lam * u_j and Hessian w_j (I - u_j u_j^T), where u_j = b_j/||b_j||
    and w_j = lam/||b_j||. The Hessian of the restricted objective is then

        D - P P^T,  D = blockdiag_s[(2/N) G_s,SS + diag(w)],

    G_s,SS = F_s,S^T F_s,S built from the (m, r, p) row stack ``F`` once per
    support, and P's rows for task s equal to diag(sqrt(w) u_j[s]): one
    |S|x|S| block per task minus a rank-|S| term. By Woodbury a step is
    D^-1 (g + P v), where v solves the |S|x|S| capacitance system
    (I - P^T D^-1 P) v = P^T D^-1 g, so it costs one batched inverse of the
    task blocks and one capacitance solve.

    A step that takes a column's norm to zero or reverses its direction (u_j
    turns by more than 90 degrees) is the sign of a column that is zero at
    the optimum: the restricted problem then has no stationary point, and
    Newton would push the column back and forth through zero. So such a step
    is undone: those columns leave S, the point goes back to the one before
    the step, restricted to the kept columns, and Newton carries on from
    there over the smaller support. The attempt aborts on an empty support,
    a singular inverse or solve, a non-finite value, or a drop with no step
    left to take from the point it goes back to.

    ``NEWTON_MAX_STEPS`` bounds the steps of the whole attempt, over every
    support it visits. It stops there, or once the largest reduced-
    gradient entry is at most tol / (2 sqrt(m |S|)). The point is then
    handed to APG's own stop rule, a prox-gradient mapping norm <= ``tol``.
    On a support that holds, that mapping is the reduced gradient, up to a
    term of second order in the step, and zero off S, so its norm is at most
    sqrt(m |S|) times the largest entry: the stop asks for half of ``tol``,
    and no more.
    """
    # ufunc reductions throughout, without ndarray.all/any/max/sum's wrappers
    S = (np.add.reduce(x * x) > 0.0).nonzero()[0]
    B = x[:, S]
    m = x.shape[0]
    steps = 0
    with np.errstate(all="ignore"):
        while S.size:  # once per support: S shrinks at every drop
            k = S.size
            FS = F[:, :, S]
            GS = np.matmul(FS.transpose(0, 2, 1), FS)
            GS *= 2.0 / N
            CS = (2.0 / N) * C[:, S]
            D = np.empty_like(GS)
            diagonal = D.reshape(m, k * k)[:, :: k + 1]  # a view of every block's diagonal
            eye = np.eye(k)
            grad_tol = tol / (2.0 * math.sqrt(m * k))
            U = None
            while True:
                if not np.logical_and.reduce(np.isfinite(B), axis=None):
                    return None, steps
                norms = np.sqrt(np.add.reduce(B * B))
                U, U_prev = B / norms, U
                dropped = ~(norms > 0.0)
                if U_prev is not None:
                    dropped |= np.add.reduce(U * U_prev) < 0.0
                if np.logical_or.reduce(dropped):
                    break
                grad = np.matmul(GS, B[:, :, None])[:, :, 0] - CS + lam * U
                largest = np.maximum.reduce(np.abs(grad), axis=None)
                if largest <= grad_tol or steps == NEWTON_MAX_STEPS:
                    point = np.zeros_like(x)
                    point[:, S] = B
                    return point, steps
                w = lam / norms
                # column j of P is sqrt(w_j) (u_j (x) e_j), so P's rows for task s
                # are diag(V[s]), P^T D^-1 P = sum_s V[s] o D_s^-1 o V[s] and
                # (P v)[s] = V[s] * v
                V = U * np.sqrt(w)
                np.copyto(D, GS)
                diagonal += w
                try:
                    D_inv = np.linalg.inv(D)
                    Z = np.matmul(D_inv, grad[:, :, None])[:, :, 0]
                    capacitance = eye - np.add.reduce(V[:, :, None] * D_inv * V[:, None, :])
                    v = np.linalg.solve(capacitance, np.add.reduce(V * Z))
                except np.linalg.LinAlgError:
                    return None, steps
                before = B
                B = B - np.matmul(D_inv, (grad + V * v)[:, :, None])[:, :, 0]
                steps += 1
            # the last step pushed the dropped columns through zero: go back
            # to the point before it, without them
            if steps == NEWTON_MAX_STEPS:
                return None, steps
            kept = ~dropped
            S, B = S[kept], before[:, kept]
    return None, steps


PATH_EVENT_FLOOR = 1e-12  # smaller drop times and join closing rates are ignored


def fit_lassos(design: PooledDesign, lam: float) -> tuple[np.ndarray, list[SolverReport]]:
    """Fit the K tasks of ``design`` as K single-task lassos at once, each
    on its own rows alone; ``fit_group_lasso`` fits a single-task design
    this way, with K = 1.

    One homotopy follows every task's path together; a task it declines
    runs accelerated proximal gradient on its own data from a cold start.
    Returns the (K, p) matrix whose row s holds task s's coefficients, and
    the K reports. Raises ValueError on a task without rows.
    """
    if lam < 0:
        raise ValueError("penalty weight must be nonnegative")
    rows = design.rows
    if not rows.all():
        raise ValueError(f"task {rows.argmin() + 1} has no rows")
    coeffs, reports = _lasso_paths(design, lam, TOL, MAX_ITER)
    for s, report in enumerate(reports):
        if report is None:
            alone = PooledDesign([design.F[s, : rows[s]]], [design.Y[s, : rows[s]]])
            (coeffs[s],), reports[s] = _apg(alone, lam, TOL, MAX_ITER, None)
    return coeffs, reports


def _lasso_paths(
    design: PooledDesign, lam: float, tol: float, max_steps: int
) -> tuple[np.ndarray, list[SolverReport | None]]:
    """The exact lasso of each of a design's K tasks alone, by one homotopy:
    the (K, p) path points, and per task its report, or None if uncertified.

    Task s's rows are the first ``rows[s]`` of F[s] (r, p) and Y[s] (r,),
    the rest zero. Each path starts at its lam_max with beta = 0. On the
    active set A with signs s_A, lowering lam by t moves beta_A by t * d with
    (2/N) G_AA d = s_A, so every active correlation (2/N) phi_j^T r stays at
    +-lam. A step takes every unfinished task to its own nearest event: an
    inactive correlation reaching +-lam (join), an active coefficient
    reaching zero (drop), or the target lam. Between events the
    correlations move linearly, so each step carries them forward by t times
    their rate; the certificate recomputes everything from the rows. The
    tasks' active sets are padded to the largest one, their padded block of
    G_AA set to the identity, so one batched solve gives every d; a singular
    or non-finite solve declines that task alone.
    """
    F, Y, rows = design.F, design.Y, design.rows
    K, _, p = F.shape
    beta = np.zeros((K, p))
    steps = np.zeros(K, dtype=int)
    declined = np.zeros(K, dtype=bool)
    corr = (2.0 / rows)[:, None] * np.matmul(Y[:, None, :], F)[:, 0]
    at = np.abs(corr).max(axis=1)
    live = np.flatnonzero(at > lam)
    # the unfinished tasks' data and state, compacted whenever tasks leave;
    # B and S carry a zero column p, where every padded active slot points
    F_ = F if live.size == K else F[live]
    N, at, corr = rows[live], at[live], corr[live]
    B = np.zeros((live.size, p + 1))
    S = np.zeros_like(B)  # +-1 on the active set, 0 elsewhere
    tasks = np.arange(live.size)
    first = np.abs(corr).argmax(axis=1)
    S[tasks, first] = np.sign(corr[tasks, first])
    signs = np.ones(2 * p)  # the sign of the bound each entry of ``joins`` reaches
    signs[p:] = -1.0
    scale, at_task = (2.0 / N)[:, None], tasks[:, None]
    k = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while live.size:
            if k == max_steps:
                declined[live] = True
                break
            k += 1
            active = S[:, :p] != 0.0
            order = _leading_columns(active, p)
            # the active columns as rows of a (k, a, r) stack, padded slots zeroed
            FA = F_[at_task, :, np.minimum(order, p - 1)]
            if live.size > 1:
                padded = order == p
                FA[padded] = 0.0
            GA = np.matmul(FA, FA.transpose(0, 2, 1))
            GA *= scale[:, :, None]
            if live.size > 1:
                a = order.shape[1]
                GA.reshape(-1, a * a)[:, :: a + 1] += padded
            # a padded slot holds column p, whose sign and beta are 0
            rhs = S[at_task, order]
            try:
                d = np.linalg.solve(GA, rhs[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                # a singular task's NaN direction ends its path at this step
                d = np.full(rhs.shape, np.nan)
                for i in tasks:
                    try:
                        d[i] = np.linalg.solve(GA[i], rhs[i])
                    except np.linalg.LinAlgError:
                        pass
            # correlations move as corr - t * rate, active ones as (at - t) * sign;
            # an inactive one joins when it closes its gap to +-(at - t), at once
            # if it sits on (or by rounding just past) the bound moving outward;
            # an active column's rate, masked to NaN, keeps it from joining
            rate = scale * np.matmul(np.matmul(d[:, None, :], FA), F_)[:, 0]
            bound, masked = at[:, None], np.where(active, np.nan, rate)
            closing = np.concatenate((1.0 - masked, 1.0 + masked), axis=1)
            joins = np.maximum(np.concatenate((bound - corr, bound + corr), axis=1), 0.0) / closing
            joins[~(closing > PATH_EVENT_FLOOR)] = np.inf
            beta_A = B[at_task, order]
            drops = -beta_A / d
            drops[~(drops > PATH_EVENT_FLOOR)] = np.inf
            join, drop = joins.argmin(axis=1), drops.argmin(axis=1)
            t_join = joins.min(axis=1)
            target = at - lam
            t = np.minimum(target, np.minimum(t_join, drops.min(axis=1)))
            B[at_task, order] = beta_A + t[:, None] * d
            at = at - t
            # a non-finite direction leaves NaN in t or in beta; either ends the
            # task's path, and NaN in beta fails the KKT test
            finished = ~(t < target)
            any_finished = finished.any()
            if any_finished:
                beta[live[finished]] = B[finished, :p]
                steps[live[finished]] = k
            # every other task joins one column or drops one; the first half of
            # ``joins`` reaches +lam, the second -lam, and an inactive beta is 0
            joined = t == t_join
            changed = np.where(joined, join % p, order[tasks, drop])
            S[tasks, changed] = signs[join] * joined
            B[tasks, changed] = 0.0
            corr -= t[:, None] * rate
            if any_finished:
                keep = ~finished
                live, F_, N, B, S, at, corr = (v[keep] for v in (live, F_, N, B, S, at, corr))
                tasks = np.arange(live.size)
                scale, at_task = (2.0 / N)[:, None], tasks[:, None]

    # the certificate of every task, from its rows alone
    residuals = np.matmul(F, beta[:, :, None])[:, :, 0] - Y
    grad = (2.0 / rows)[:, None] * np.matmul(residuals[:, None, :], F)[:, 0]
    kkt = np.where(
        np.abs(beta) > 0.0,
        np.abs(grad + lam * np.sign(beta)),
        np.maximum(0.0, np.abs(grad) - lam),
    ).max(axis=1)
    equicorrelated = np.abs(grad) >= lam - tol
    sizes = equicorrelated.sum(axis=1)
    certified = ~declined & (kkt <= tol) & (sizes <= rows)
    # the equicorrelated columns must be linearly independent: their rank,
    # as ``np.linalg.matrix_rank`` takes it, must reach their count
    check = np.flatnonzero(certified & (sizes > 0))
    if check.size:
        cols = _leading_columns(equicorrelated[check], 0)
        # the transposed columns, those past a task's own count zeroed
        FE = F.transpose(0, 2, 1)[check[:, None], cols]
        FE *= (np.arange(cols.shape[1]) < sizes[check][:, None])[:, :, None]
        sv = np.linalg.svd(FE, compute_uv=False)
        cut = sv.max(axis=1) * rows[check] * np.finfo(float).eps
        certified[check] &= (sv > cut[:, None]).sum(axis=1) >= sizes[check]
    rss = np.matmul(residuals[:, None, :], residuals[:, :, None])[:, 0, 0]
    objectives = rss / rows + lam * np.sqrt(beta * beta).sum(axis=1)
    reports = [
        SolverReport(
            method="path",
            converged=True,
            iterations=int(steps[s]),
            map_norm=float(kkt[s]),
            objective=float(objectives[s]),
            objective_history=np.asarray([float(objectives[s])]),
        )
        if certified[s]
        else None
        for s in range(K)
    ]
    return beta, reports


def _leading_columns(mask: np.ndarray, fill: int) -> np.ndarray:
    """Each row's True columns of a (K, p) mask in ascending order, padded
    with ``fill`` to the largest row's count. (A sort would give them too,
    but it maps in some 256 KB of the sort routines' code, which peak RSS
    shows.)"""
    if len(mask) == 1:
        return mask.nonzero()[1][None]
    counts = mask.sum(axis=1)
    order = np.full((len(mask), counts.max()), fill)
    order[np.arange(order.shape[1]) < counts[:, None]] = mask.nonzero()[1]
    return order


def kkt_residuals(design: PooledDesign, coeffs: np.ndarray, lam: float) -> np.ndarray:
    """Per-group optimality residuals at the (m, p) coefficient matrix ``coeffs``.

    For a group with a nonzero cross-task block the residual is
    ||g_j + lam * u_j|| with u_j the block's unit direction; for an exactly
    zero block it is max(0, ||g_j|| - lam). A point is optimal iff every
    residual is zero. Gradients are recomputed from raw residuals so the
    certificate shares no state with the solver.
    """
    if coeffs.shape != (design.m, design.p):
        raise ValueError("coefficients do not match the design")
    F = design.F
    residuals = np.matmul(F, coeffs[:, :, None])[:, :, 0] - design.Y
    grad_rows = (2.0 / design.total_rows) * np.matmul(residuals[:, None, :], F)[:, 0]
    norms = group_norms(coeffs)
    nonzero = norms > 0
    units = coeffs / np.where(nonzero, norms, 1.0)
    stationarity = np.sqrt(((grad_rows + lam * units) ** 2).sum(axis=0))
    slack = np.maximum(0.0, np.sqrt((grad_rows**2).sum(axis=0)) - lam)
    return np.where(nonzero, stationarity, slack)
