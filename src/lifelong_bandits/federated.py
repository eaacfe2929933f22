"""Federated kernel learning: local fits, index-only votes, majority merge.

Each client fits a single-task group lasso on its own exploration data and
uploads nothing but the surviving group indices. The server keeps per-index
counters and selects the indices endorsed by at least a fraction alpha of
the clients seen so far. The counter merge is commutative, so vote order
never matters, and the ledger accepts votes only: raw observations cannot
cross the client boundary by construction.

``run_federated`` runs the shared task loop of :mod:`.lifelong` with a
kernel callback: each client's forced draws are fitted into a vote, the
vote goes into the ledger, and the server set after it (or the full kernel
when the set is empty) is the kernel of that client's agent, which is fed
the forced draws before it selects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .features import KernelEstimate
from .gp_ucb import UcbConfig
from .group_lasso import PooledDesign
from .lifelong import LifelongRunRecord, ScheduleMode, _run_tasks
# design_from_tasks stays bound here: perfbench's tracer wraps this binding
from .selection import design_from_tasks, learn_kernel  # noqa: F401


@dataclass(frozen=True)
class ClientVote:
    """One client's uplink: its id, the endorsed indices, and fit metadata.

    ``indices`` and ``client`` are the complete wire content; the counts and
    flag exist for local logs only.
    """

    client: int
    indices: tuple[int, ...]
    explore_count: int
    failed: bool = False

    def __post_init__(self):
        ordered = tuple(sorted(set(int(j) for j in self.indices)))
        if ordered != self.indices:
            object.__setattr__(self, "indices", ordered)

    def wire_format(self) -> str:
        return f"{self.client}:{','.join(str(j) for j in self.indices)}"


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
        for j in vote.indices:
            if not 1 <= j <= self.p:
                raise ConfigError(f"vote index {j} outside 1..{self.p}")
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


def client_fit(
    phi: np.ndarray,
    y,
    lam: float,
    omega: float,
    *,
    client: int = 0,
    tol: float = 1e-8,
    max_iter: int = 50_000,
) -> ClientVote:
    """Fit one client's data alone and return its index vote.

    ``phi`` holds the feature rows of the client's points (the rows of the
    environment's grid features it drew), ``y`` their rewards.

    The threshold is a plain strict cut at omega on the group norms (the
    single-task case of the pooled rule). A non-converged fit returns an
    empty vote with the failure flag set rather than raising.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise DataError("client has no exploration data")
    outcome = learn_kernel(PooledDesign([phi], [y]), omega, lam, tol=tol, max_iter=max_iter)
    if not outcome.report.converged:
        return ClientVote(client=client, indices=(), explore_count=len(y), failed=True)
    indices = () if outcome.fallback else outcome.estimate.selected
    return ClientVote(client=client, indices=indices, explore_count=len(y))


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
    solver_tol: float = 1e-8,
    solver_max_iter: int = 50_000,
    config_digest: str = "",
) -> FederatedRunRecord:
    """Run m client tasks with voting between exploration and exploitation.

    Every client explores for the constant integerized sqrt(n) prefix, fits
    its own data, and votes. The server set after the client's own vote
    determines the kernel for that same client's exploitation phase, and
    the fresh agent sees the exploration observations first, so the
    posterior holds the full task history. Every task's agent runs under
    the GP-UCB config ``ucb``.
    """
    atlas = env.atlas
    ledger = VoteLedger(atlas.p, alpha)
    record = FederatedRunRecord(seed=seed, config_digest=config_digest)

    def vote_kernel(s: int, drawn: list[int], drawn_y: list[float]) -> KernelEstimate:
        vote = client_fit(
            env.grid_features[drawn],
            drawn_y,
            lam,
            omega,
            client=s,
            tol=solver_tol,
            max_iter=solver_max_iter,
        )
        if vote.failed:
            record.events.append((s, "solver"))
        ledger.add(vote)
        selected = ledger.selected()
        record.votes.append(vote)
        record.server_sets.append(selected)
        if selected:
            return KernelEstimate(p=atlas.p, selected=selected)
        record.events.append((s, "fallback"))
        return KernelEstimate.full(atlas.p)

    _run_tasks(env, m, n, ScheduleMode.CONSTANT, record, vote_kernel, seed=seed, ucb=ucb)
    record.final_kernel = record.tasks[-1].kernel
    return record
