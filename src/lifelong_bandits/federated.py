"""Federated kernel learning: local fits, index-only votes, majority merge.

Each client fits a single-task group lasso on its own exploration data and
uploads nothing but the surviving group indices. The server keeps per-index
counters and selects the indices endorsed by at least a fraction alpha of
the clients seen so far. The counter merge is commutative, so vote order
never matters, and the ledger accepts votes only: raw observations cannot
cross the client boundary by construction.

``client_fits`` fits many clients in one call: one batched lasso path
(``group_lasso.fit_lassos``) follows every client's own path at once, so
each client's coefficients still depend on its own rows only, and a client
whose path is declined falls back to the iterative solver alone.
``client_fit``, its one-client form, is kept only for perfbench's tracer.

``run_federated`` plans every client's forced prefix first, with the
planning pass of :mod:`.lifelong`; then all clients' draws are fitted into
votes in one ``client_fits`` call, whose fit reports the run record keeps,
and the votes go into the ledger in client order. The server set after a
client's own vote (or the full kernel when the set is empty) is the kernel
of that client's agent, which is fed the forced draws before it selects;
every agent steps in the agent pass of :mod:`.lifelong`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .gp_ucb import UcbConfig
from .group_lasso import PooledDesign, SolverReport, fit_lassos, group_norms
from .lifelong import LifelongRunRecord, _forced_draws, _plan, _run_agents
# design_from_tasks and learn_kernel stay bound here: perfbench's tracer
# wraps these bindings
from .selection import design_from_tasks, learn_kernel, threshold_groups  # noqa: F401


@dataclass(frozen=True)
class ClientVote:
    """One client's uplink: its id, the endorsed indices, and a fit-failure flag.

    ``indices`` and ``client`` are the complete wire content; the flag is
    for local logs only.
    """

    client: int
    indices: tuple[int, ...]
    failed: bool = False

    def __post_init__(self):
        ordered = tuple(sorted(set(int(j) for j in self.indices)))
        if ordered != self.indices:
            object.__setattr__(self, "indices", ordered)


class VoteLedger:
    """Per-index endorsement counters with an alpha-fraction selection rule."""

    def __init__(self, p: int, alpha: float) -> None:
        if p < 1:
            raise ConfigError("need at least one group")
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        self.p = p
        self.alpha = float(alpha)
        self.counts = np.zeros(p, dtype=int)
        self.clients_seen = 0

    def add(self, vote: ClientVote) -> None:
        """Count the vote, or raise ``ConfigError`` and count none of it."""
        for j in vote.indices:
            if not 1 <= j <= self.p:
                raise ConfigError(f"vote index {j} outside 1..{self.p}")
        for j in vote.indices:
            self.counts[j - 1] += 1
        self.clients_seen += 1

    def selected(self) -> tuple[int, ...]:
        """Indices endorsed by at least alpha of the clients seen.

        The comparison is non-strict, and an index with zero endorsements is
        never selected, so alpha=0 yields exactly the union of the votes and
        alpha=1 exactly their intersection.
        """
        if self.clients_seen < 1:
            return ()
        need = self.clients_seen * self.alpha
        keep = (self.counts >= need) & (self.counts >= 1)
        return tuple(int(j) + 1 for j in np.flatnonzero(keep))


def client_fits(
    features,
    rewards,
    lam: float,
    omega: float,
    *,
    clients,
) -> tuple[list[ClientVote], list[SolverReport]]:
    """Fit each client's data alone, all in one batched lasso path, and
    return their index votes and the fits' reports, both in client order.

    ``features[s]`` holds the feature rows of client s's points (the rows of
    the environment's grid features it drew), ``rewards[s]`` their rewards,
    and ``clients[s]`` its id. A client without data raises
    ``DataError`` before any client is fitted.

    The threshold is a plain strict cut at omega on the group norms (the
    single-task case of the pooled rule). A non-converged fit gives an
    empty vote with the failure flag set rather than raising.
    """
    rewards = [np.asarray(y, dtype=float) for y in rewards]
    for client, y in zip(clients, rewards, strict=True):
        if y.size == 0:
            raise DataError(f"client {client} has no exploration data")
    coeffs, reports = fit_lassos(PooledDesign(features, rewards), lam)
    votes = []
    for client, beta, report in zip(clients, coeffs, reports):
        failed = not report.converged
        indices = () if failed else threshold_groups(group_norms(beta[None]), 1, omega)
        votes.append(ClientVote(client=client, indices=indices, failed=failed))
    return votes, reports


def client_fit(
    phi: np.ndarray,
    y,
    lam: float,
    omega: float,
    *,
    client: int = 0,
) -> ClientVote:
    """Fit one client's data alone and return its index vote: the
    one-client form of ``client_fits``. No runner calls it; it is kept,
    outside the package's ``__all__``, for perfbench's tracer."""
    (vote,), _ = client_fits([phi], [y], lam, omega, clients=[client])
    return vote


@dataclass
class FederatedRunRecord(LifelongRunRecord):
    votes: list[ClientVote] = field(default_factory=list)
    server_sets: list[tuple[int, ...]] = field(default_factory=list)


def run_federated(
    env,
    m: int,
    n: int,
    omega: float,
    lam: float,
    alpha: float,
    *,
    ucb: UcbConfig = UcbConfig(),
    seed: int = 0,
) -> FederatedRunRecord:
    """Run m client tasks with voting between exploration and exploitation.

    Every client explores for the constant integerized sqrt(n) prefix, fits
    its own data, and votes. The server set after the client's own vote
    determines the kernel for that same client's exploitation phase, and
    the fresh agent sees the exploration observations first, so the
    posterior holds the full task history. Every task's agent runs under
    the GP-UCB config ``ucb``.
    """
    ledger = VoteLedger(env.p, alpha)
    plans = _plan(env, n, np.full(m, math.sqrt(n)), seed)
    record = FederatedRunRecord(seed=seed)
    record.votes, record.reports = client_fits(
        *_forced_draws(env, plans), lam, omega, clients=[plan.task for plan in plans]
    )
    kernels = []
    for vote in record.votes:
        ledger.add(vote)
        selected = ledger.selected()
        record.server_sets.append(selected)
        if not selected:
            record.events.append((vote.client, "fallback"))
        kernels.append(selected or tuple(range(1, env.p + 1)))
    record.tasks = _run_agents(env, n, plans, kernels, ucb, record)
    record.final_kernel = kernels[-1]
    return record
