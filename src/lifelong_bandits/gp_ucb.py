"""GP-UCB agents over a finite feature-space posterior, stepped in lockstep.

The posterior is kept in primal (feature-space) form. With selected features
phi scaled by sqrt(1/|J|) so that phi(x)^T phi(x') equals the averaged kernel
value, the state after i observations is

    A = lam^2 I + sum phi phi^T,      b = sum phi * y,

giving mean mu(x) = phi(x)^T theta with theta = A^{-1} b and variance
sigma^2(x) = lam^2 * phi(x)^T A^{-1} phi(x). These match the kernel-space
(dual) posterior formulas exactly; the dual computation lives in the tests as
the independent oracle.

A itself is never stored or factored. The state holds A^{-1}, starting at
I / lam^2, and folds each observation in with the Sherman-Morrison update

    u = A^{-1} phi,   q = 1 + phi^T u,   w = u / sqrt(q),
    A^{-1} <- A^{-1} - w w^T.

By the matrix determinant lemma det(A + phi phi^T) = q det A, so the
realized information gain (1/2) log det(I + lam^-2 K_i) = (1/2) sum log q
is a running sum. The variance of every candidate is kept beside its
features and lowered by lam^2 (Phi w)^2 per observation.

Agents that share a config and a candidate table step together in
``LockstepUcb``, each under its own kernel J_j, the sorted tuple of its
1-based group indices (see :mod:`.features`), over one (G, D) table of the
unscaled features f of the union of their groups, which it slices from the
(G, p) table it is given. Agent j's kernel becomes a prior weight w_j,
1/|J_j| on its own groups and 0 elsewhere: its A^{-1} starts at
diag(w_j) / lam^2. With S = diag(sqrt(w_j)) this A^{-1} is
S A^{-1} S and theta is S theta of the scaled posterior above, so the mean
f^T theta, the variance lam^2 f^T A^{-1} f and q agree with it in exact
arithmetic, the groups outside J_j stay exactly 0, no step scales by agent,
and the prior variance is w_j . f^2. The k states are stacked: A^{-1} as
(k, D, D), theta as (k, D), the candidate variances as (k, G) and the
log-determinants as (k,). ``GpUcb`` is a group of one agent.

The lockstep observe delays its rank-one updates. ``inv`` holds A^{-1} as
of the last fold, and the first ``held`` rows of the (k, D, D) block
``pending`` hold the vectors w observed since, as rows of P. An observe
takes u = inv phi - P^T (P phi), then q and w as above, and appends w to
P. Once D vectors are held, D being the group's own width, they fold in
as inv <- inv - P^T P, one batched product, and P empties. Theta carries
no b: A^{-1} <- A^{-1} - w w^T and b <- b + phi y give the recursive
least-squares update theta <- theta + w (y - phi^T theta) / sqrt(q).
``inv``, ``theta`` and ``pending`` are row blocks of one (k, 2D + 1, D)
array, so one batched product with phi gives inv phi, phi^T theta and
P phi. A select is one (k, D) x (D, G) product; an observe is that
product, one thin product with P, one (k, D) x (D, G) product for the
variances and, once every D observations, the fold. The fold is delayed
because a dense rank-one update reads and writes the whole (k, D, D)
stack at every observation: when the delay landed, it cut the cost of an
agent-step from 17.4 to 11.9 us at d=50, and at d=5 it cost a little
more, 6.9 against 6.6 us (``BENCH_15.json``). Each agent's gain is
checked against the cap of its own d_j = |J_j|. A step of a single agent
is bound by numpy call overhead, so on the 500-point grid 20 agents in
lockstep cost 4.3 us per agent-step at d=5, 8.8 us at d=50 and 9.2 us
under the 8 kernels of a learned run (union width 50) (``BENCH_45.json``,
one BLAS thread, 2 shared cores, where these medians move by up to a
third between sessions).

There is no periodic refactor from scratch. The update only subtracts
rank-one terms, and the drift stays at rounding level. Measured on the
full 50-group cosine kernel (d=50, G=500, lam=0.1) for 4 tasks of the
default synthetic environment at seed 0 (task values up to 11 in
magnitude, noise 0.1, 10 uniform draws and then UCB choices), against a
Householder-QR least-squares posterior and the log-determinant of A:
lockstep agents differ by at most 6e-14 on the mean and 1.4e-15 on the
variance after 100 observations and by 3e-12 and 8e-14 after 2000, when
the smallest variance on the grid is 5e-6, and from the log-determinant
gain by 1e-12 and 5e-11. The recursive theta does not multiply the error
of A^{-1} by |b|, as theta = A^{-1} b does. Variances are clamped at zero
where they are read. A property test pins the drift against a
from-scratch Cholesky posterior.

UCB scores can tie exactly. Cosine features satisfy
cos(j pi (1 - x)) = (-1)^j cos(j pi x), so under every kernel the prior
variance at a point equals that at its mirror image about the middle of
the domain, and under a kernel of even frequencies only the whole
posterior is mirror symmetric. The computed scores of such a pair differ
by rounding, and which one is larger depends on the order of the
floating-point operations. So ``select`` does not take a plain argmax:
``ucb_choice`` returns the lowest index whose score is at least
top - 1e-12 * max(1, |top|). Over the 491 520 selects of the four
bandit kinds at the 64 benchmark pool seeds, the relative gap between the
top two scores of a select is either below 1e-13 (a rounding gap, 7 156
of them, or exactly 0) or at least 1e-10, so the rule decides these ties
and nothing else, whatever order the sums are taken in.

The realized information gain is checked against the closed-form cap
(1/2) d log(1 + lam^-2 i / d) after every observation; a violation beyond
1e-6 raises, and the worst slack seen is kept for run records.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EmptyKernelError
from .features import FeatureAtlas

_INFO_GAIN_HARD = 1e-6
TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class UcbConfig:
    """Acquisition hyperparameters.

    ``nu`` is the constant exploration coefficient and ``lam`` the
    observation regularizer.
    """

    nu: float = 10.0
    lam: float = 0.1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nu) and self.nu >= 0):
            raise ValueError(f"exploration coefficient {self.nu!r} must be finite and nonnegative")
        if self.lam <= 0:
            raise ValueError("regularizer must be positive")
        # The posterior starts at I / lam^2, the variance scales by lam^2 and
        # the info-gain cap divides by it, so lam^2 and 1/lam^2 must be
        # finite, normal floats. And each observation lowers the inverse by a
        # term of its own size, leaving O(1) entries whose relative error is
        # about eps / lam^2: once lam^2 falls to eps, none of their digits is
        # left, and the gain check fails at run time (on NaN or on the cap).
        square = self.lam * self.lam
        if not sys.float_info.epsilon <= square <= 1.0 / sys.float_info.min:
            raise ValueError(
                f"regularizer {self.lam!r} out of range: lam^2 must lie in "
                "[machine epsilon, 1 / smallest normal float]"
            )


def ucb_choice(scores: np.ndarray) -> np.ndarray:
    """Index of the top score along the last axis: the lowest index whose
    score is at least top - TIE_TOLERANCE * max(1, |top|). A NaN or an
    infinite top score raises: no score compares with it."""
    top = scores.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise ValueError("UCB scores hold a NaN or an infinity")
    floor = top - TIE_TOLERANCE * np.maximum(np.abs(top), 1.0)
    return (scores >= floor).argmax(axis=-1)


class LockstepUcb:
    """k GP-UCB agents under one config, each with its own kernel, in lockstep.

    ``table`` is the candidates' (G, p) unscaled feature table, such as
    ``env.grid_features``, and agent j runs under ``kernels[j]``, a tuple of
    distinct column indices in 1..p weighed 1/|J_j| each (an empty kernel
    raises ``EmptyKernelError``, a repeated or out-of-range index
    ``ValueError``). ``features`` keeps the (G, D) columns of their union.
    Every agent starts from its prior and observes one candidate per step.
    ``inv`` is the stacked A^{-1} as of the last fold and the first ``held``
    rows of ``pending`` the update vectors observed since, folded into
    ``inv`` once D of them are held; the module docstring describes this
    state and what a step costs. ``ucb_choice`` keeps rounding from
    deciding a choice.
    """

    def __init__(self, table: np.ndarray, kernels, config: UcbConfig) -> None:
        p = table.shape[1]
        weights = np.zeros((len(kernels), p))
        for row, kernel in zip(weights, kernels):
            if not kernel:
                raise EmptyKernelError("every agent needs a kernel with at least one group")
            if len(set(kernel)) != len(kernel) or not all(1 <= j <= p for j in kernel):
                raise ValueError(f"kernel {kernel!r} needs distinct indices in 1..{p}")
            row[np.asarray(kernel) - 1] = 1.0 / len(kernel)
        used = weights.any(axis=0)
        weights = weights[:, used]
        k, width = weights.shape
        self.features = table[:, used]
        self.config = config
        self.dims = np.array([len(kernel) for kernel in kernels])
        self.count = 0
        # inv, theta and pending are row blocks of one array, so that one
        # product with phi gives inv phi, phi^T theta and P phi
        self._rows = np.zeros((k, 2 * width + 1, width))
        self.inv = self._rows[:, :width]
        self.inv[:, np.arange(width), np.arange(width)] = weights / config.lam**2
        self.theta = self._rows[:, width]
        self.pending = self._rows[:, width + 1 :]
        self.held = 0
        self.var = weights @ np.square(self.features).T
        self.log_det = np.zeros(k)
        self.max_gain_slack = np.full(k, -np.inf)
        # the closed-form cap (1/2) d log(1 + lam^-2 i / d) after i
        # observations is cap_weight * log1p(i / cap_scale); dims >= 1 holds
        # here and lam > 0 in UcbConfig
        self.cap_weight = 0.5 * self.dims
        self.cap_scale = (config.lam * config.lam) * self.dims

    def select(self) -> np.ndarray:
        """Each agent's UCB choice over the candidates (see ``ucb_choice``)."""
        scores = np.sqrt(np.maximum(self.var, 0.0))
        scores *= self.config.nu
        scores += self.theta @ self.features.T
        return ucb_choice(scores)

    def observe(self, indices: np.ndarray, y: np.ndarray) -> None:
        """Fold reward ``y[j]`` at candidate ``indices[j]`` into agent j."""
        lam = self.config.lam
        width = self.pending.shape[1]
        phi = self.features[indices]
        products = np.matmul(self._rows[:, : width + 1 + self.held], phi[:, :, None])[:, :, 0]
        u = products[:, :width]
        if self.held:
            u -= np.matmul(products[:, None, width + 1 :], self.pending[:, : self.held])[:, 0]
        q = 1.0 + np.einsum("kd,kd->k", phi, u)
        root = np.sqrt(q)
        w = self.pending[:, self.held]
        np.divide(u, root[:, None], out=w)
        self.theta += w * ((y - products[:, width]) / root)[:, None]
        self.var -= lam**2 * np.square(w @ self.features.T)
        self.held += 1
        if self.held == width:
            self.inv -= np.matmul(self.pending.transpose(0, 2, 1), self.pending)
            self.held = 0
        self.log_det += np.log(q)
        self.count += 1
        gain = 0.5 * self.log_det
        slack = gain - self.cap_weight * np.log1p(self.count / self.cap_scale)
        np.maximum(self.max_gain_slack, slack, out=self.max_gain_slack)
        worst = int(slack.argmax())  # the first NaN, if any, which fails the gate too
        if not slack[worst] <= _INFO_GAIN_HARD:
            # a q that is not a positive number broke the posterior first
            broken = np.flatnonzero(~((q > 0) & (q < np.inf)))
            if broken.size:
                j = broken[0]
                raise RuntimeError(f"agent {j}: q = 1 + phi^T A^-1 phi is {float(q[j])!r}")
            raise RuntimeError(
                f"information gain {gain[worst]:.6f} exceeds its cap "
                f"{gain[worst] - slack[worst]:.6f}"
            )


class GpUcb:
    """One GP-UCB agent under one kernel, a tuple of group indices: a
    one-agent ``LockstepUcb``.

    ``select(candidates)`` returns the index of the UCB choice among the
    candidate rows and ``observe(index, y, candidates)`` folds in the reward
    observed at one of them. The agent is bound to the first candidate array
    it is given, whose features it evaluates once; any other array raises
    ``ValueError``. No runner steps it: they step ``LockstepUcb`` groups
    directly. It is kept, outside the package's ``__all__``, for perfbench's
    tracer, which wraps its ``__init__``, ``select`` and ``observe``.
    """

    def __init__(self, atlas: FeatureAtlas, kernel: tuple[int, ...], config: UcbConfig) -> None:
        if not kernel:
            raise EmptyKernelError("cannot run the solver on an empty kernel")
        self.atlas = atlas
        self.kernel = kernel
        self.config = config
        self.candidates: np.ndarray | None = None
        self.group: LockstepUcb | None = None

    def _group_over(self, candidates: np.ndarray) -> LockstepUcb:
        if self.group is None:
            self.candidates = candidates
            self.group = LockstepUcb(self.atlas.concat_many(candidates), [self.kernel], self.config)
        elif candidates is not self.candidates:
            raise ValueError("the agent is bound to the first candidate array it was given")
        return self.group

    def select(self, candidates: np.ndarray) -> int:
        """Index of the UCB choice over the candidate rows (see ``ucb_choice``)."""
        return int(self._group_over(candidates).select()[0])

    def observe(self, index: int, y: float, candidates: np.ndarray) -> None:
        """Fold in the reward observed at candidate ``index``."""
        self._group_over(candidates).observe(np.array([index]), np.array([float(y)]))
