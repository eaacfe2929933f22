"""GP-UCB over a finite feature-space posterior.

The posterior is kept in primal (feature-space) form. With selected features
phi scaled by sqrt(1/|J|) so that phi(x)^T phi(x') equals the averaged kernel
value, the state after i observations is

    A = lam^2 I + sum phi phi^T,      b = sum phi * y,

giving mean mu(x) = phi(x)^T A^{-1} b and variance
sigma^2(x) = lam^2 * phi(x)^T A^{-1} phi(x). These match the kernel-space
(dual) posterior formulas exactly; the dual computation lives in the tests as
the independent oracle. The primal keeps updates at O(d^2) for the small
post-selection dimension instead of growing with the number of observations.

The realized information gain (1/2) log det(I + lam^-2 K_i) is computed from
the same Cholesky factor via log det A - 2 d log lam and checked against the
closed-form cap (1/2) d log(1 + lam^-2 i / d) after every observation; a
violation beyond 1e-6 raises, and the worst slack seen is kept for run
records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import EmptyKernelError
from .features import FeatureAtlas, KernelEstimate, selected_columns, selected_features

INFO_GAIN_SLACK = 1e-9
_INFO_GAIN_HARD = 1e-6


@dataclass(frozen=True)
class UcbConfig:
    """Acquisition hyperparameters.

    ``nu`` is the constant exploration coefficient; ``nu_schedule`` optionally
    overrides it per step (called with the 1-based step about to be selected).
    ``lam`` is the observation regularizer. ``grid_points`` is the candidate
    resolution per axis for harness-built grids; None defers to the
    environment default.
    """

    nu: float = 10.0
    lam: float = 0.1
    grid_points: int | None = None
    nu_schedule: Callable[[int], float] | None = None

    def __post_init__(self) -> None:
        if self.nu < 0:
            raise ValueError("exploration coefficient must be nonnegative")
        if self.lam <= 0:
            raise ValueError("regularizer must be positive")
        if self.grid_points is not None and self.grid_points < 2:
            raise ValueError("grid resolution must be at least 2")

    def nu_at(self, step: int) -> float:
        return float(self.nu_schedule(step)) if self.nu_schedule else self.nu


class PosteriorState:
    """Primal ridge posterior accumulator in d dimensions."""

    def __init__(self, dim: int, lam: float) -> None:
        if dim < 1:
            raise ValueError("need at least one feature dimension")
        if lam <= 0:
            raise ValueError("regularizer must be positive")
        self.dim = dim
        self.lam = float(lam)
        self.A = lam * lam * np.eye(dim)
        self.b = np.zeros(dim)
        self.count = 0
        self._factor = None

    def observe(self, phi: np.ndarray, y: float) -> None:
        """Fold in one observation (phi already sqrt-weight scaled)."""
        phi = np.asarray(phi, dtype=float).reshape(-1)
        if phi.shape[0] != self.dim:
            raise ValueError("feature dimension mismatch")
        self.A += np.outer(phi, phi)
        self.b += phi * float(y)
        self.count += 1
        self._factor = None

    def _cho(self):
        if self._factor is None:
            self._factor = cho_factor(self.A, lower=True)
        return self._factor

    def mean_var(self, phi: np.ndarray) -> tuple[float, float]:
        """Posterior mean and variance at one scaled feature vector."""
        phi = np.asarray(phi, dtype=float).reshape(-1)
        factor = self._cho()
        solved = cho_solve(factor, phi)
        mu = float(solved @ self.b)
        var = self.lam**2 * float(phi @ solved)
        return mu, max(var, 0.0)

    def mean_var_many(self, Phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized posterior over the rows of a scaled feature matrix."""
        factor = self._cho()
        theta = cho_solve(factor, self.b)
        mu = Phi @ theta
        solved = cho_solve(factor, Phi.T)
        var = self.lam**2 * np.einsum("ij,ji->i", Phi, solved)
        return mu, np.maximum(var, 0.0)

    def info_gain(self) -> float:
        """Realized information gain of the observations folded in so far."""
        low = self._cho()[0]
        logdet = 2.0 * float(np.log(np.diag(low)).sum())
        return 0.5 * (logdet - 2.0 * self.dim * np.log(self.lam))


def info_gain_bound(d_k: int, n: int, lam: float) -> float:
    """Closed-form cap on the information gain of n observations under a
    d_k-dimensional feature kernel with bounded diagonal."""
    if d_k < 1:
        raise ValueError("feature dimension must be at least 1")
    if n < 0:
        raise ValueError("observation count must be nonnegative")
    if lam <= 0:
        raise ValueError("regularizer must be positive")
    if n == 0:
        return 0.0
    return 0.5 * d_k * np.log1p(n / (lam * lam * d_k))


def realized_info_gain(gram: np.ndarray, lam: float) -> float:
    """(1/2) log det(I + lam^-2 K) from an observed-point Gram matrix.

    The dual-form computation; the solver itself uses the primal identity.
    Rejects matrices that are non-PSD beyond -1e-8.
    """
    if lam <= 0:
        raise ValueError("regularizer must be positive")
    K = np.asarray(gram, dtype=float)
    if K.size == 0:
        return 0.0
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("Gram matrix must be square")
    K = 0.5 * (K + K.T)
    eigs = np.linalg.eigvalsh(K)
    if eigs[0] < -1e-8:
        raise ValueError(f"Gram matrix is not PSD (min eigenvalue {eigs[0]:.3e})")
    return 0.5 * float(np.log1p(np.maximum(eigs, 0.0) / (lam * lam)).sum())


class GpUcb:
    """Upper-confidence-bound policy on a fixed candidate set.

    The base-solver contract the lifelong loops rely on: construct with a
    kernel estimate, ``select(candidates)`` returns the index of the chosen
    candidate (ties to the lowest index), ``observe(index, y)`` folds in the
    reward for a candidate. ``observe_point`` accepts an arbitrary in-domain
    point instead. Candidate features are cached for the last candidate array
    passed, which the agent keeps a reference to, so repeated calls with the
    same grid object cost one feature evaluation total.
    """

    def __init__(self, atlas: FeatureAtlas, estimate: KernelEstimate, config: UcbConfig) -> None:
        if estimate.is_empty:
            raise EmptyKernelError("cannot run the solver on an empty kernel estimate")
        self.atlas = atlas
        self.estimate = estimate
        self.config = config
        self.state = PosteriorState(len(selected_columns(atlas, estimate)), config.lam)
        self.max_gain_slack = -np.inf
        self._grid: np.ndarray | None = None
        self._grid_features: np.ndarray | None = None

    def _features_for(self, candidates: np.ndarray) -> np.ndarray:
        # hold the array itself: an id alone can be reused by a new array
        # once the old one is freed
        if self._grid is not candidates:
            self._grid_features = selected_features(self.atlas, self.estimate, candidates)
            self._grid = candidates
        return self._grid_features

    def select(self, candidates: np.ndarray) -> int:
        """Index of the UCB argmax over the candidate rows."""
        Phi = self._features_for(candidates)
        if Phi.shape[0] == 0:
            raise ValueError("candidate set is empty")
        mu, var = self.state.mean_var_many(Phi)
        nu = self.config.nu_at(self.state.count + 1)
        return int(np.argmax(mu + nu * np.sqrt(var)))

    def observe(self, index: int, y: float, candidates: np.ndarray) -> None:
        """Fold in the reward observed at candidate ``index``."""
        Phi = self._features_for(candidates)
        self.state.observe(Phi[index], y)
        self._check_info_gain()

    def observe_point(self, x, y: float) -> None:
        """Fold in a reward observed at an arbitrary in-domain point."""
        phi = selected_features(self.atlas, self.estimate, np.atleast_2d(np.asarray(x, float)))[0]
        self.state.observe(phi, y)
        self._check_info_gain()

    def _check_info_gain(self) -> None:
        gain = self.state.info_gain()
        bound = info_gain_bound(self.state.dim, self.state.count, self.state.lam)
        slack = gain - bound
        if slack > self.max_gain_slack:
            self.max_gain_slack = slack
        if slack > _INFO_GAIN_HARD:
            raise RuntimeError(
                f"information gain {gain:.6f} exceeds its cap {bound:.6f}"
            )
