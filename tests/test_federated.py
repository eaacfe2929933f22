"""Client votes, the server ledger, and the federated runner."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong_bandits.environment import SyntheticEnvironment, SyntheticSpec
from lifelong_bandits.errors import ConfigError, DataError
from lifelong_bandits.features import BasisFamily, FeatureAtlas
from lifelong_bandits import federated
from lifelong_bandits.federated import (
    ClientVote,
    VoteLedger,
    client_fit,
    client_fits,
    run_federated,
)
from lifelong_bandits.group_lasso import PooledDesign, fit_lassos
from lifelong_bandits.harness import build_config, run_experiment


class TestVoteLedger:
    def test_unanimous(self):
        ledger = VoteLedger(p=5, alpha=0.25)
        for s in range(1, 4):
            ledger.add(ClientVote(client=s, indices=(1, 2)))
        assert ledger.selected() == (1, 2)

    def test_majority_hand_count(self):
        ledger = VoteLedger(p=3, alpha=0.5)
        for s, vote in enumerate([(1,), (2,), (1,), (1,)], start=1):
            ledger.add(ClientVote(client=s, indices=vote))
        # threshold 4 * 0.5 = 2; index 1 has 3 endorsements, index 2 has 1
        assert ledger.selected() == (1,)

    def test_alpha_zero_is_union(self):
        ledger = VoteLedger(p=6, alpha=0.0)
        ledger.add(ClientVote(client=1, indices=(2,)))
        ledger.add(ClientVote(client=2, indices=(5,)))
        ledger.add(ClientVote(client=3, indices=()))
        assert ledger.selected() == (2, 5)

    def test_alpha_one_is_intersection(self):
        ledger = VoteLedger(p=6, alpha=1.0)
        ledger.add(ClientVote(client=1, indices=(1, 2, 3)))
        ledger.add(ClientVote(client=2, indices=(2, 3, 4)))
        ledger.add(ClientVote(client=3, indices=(2, 4, 6)))
        assert ledger.selected() == (2,)

    def test_empty_ledger_selects_nothing(self):
        assert VoteLedger(p=4, alpha=0.5).selected() == ()

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        votes = [
            ClientVote(
                client=s,
                indices=tuple(rng.choice(8, size=rng.integers(0, 5), replace=False) + 1),
            )
            for s in range(1, 13)
        ]
        reference = None
        for trial in range(20):
            order = rng.permutation(len(votes))
            ledger = VoteLedger(p=8, alpha=0.3)
            for i in order:
                ledger.add(votes[i])
            if reference is None:
                reference = ledger.selected()
            assert ledger.selected() == reference

    def test_monotone_inclusion_under_replay(self):
        rng = np.random.default_rng(1)
        ledger = VoteLedger(p=6, alpha=0.4)
        for s in range(1, 40):
            vote = tuple(rng.choice(6, size=rng.integers(0, 4), replace=False) + 1)
            before = set(ledger.selected())
            ledger.add(ClientVote(client=s, indices=vote))
            after = set(ledger.selected())
            for j in before & set(vote):
                assert j in after

    def test_bad_indices_rejected(self):
        ledger = VoteLedger(p=3, alpha=0.5)
        with pytest.raises(ConfigError):
            ledger.add(ClientVote(client=1, indices=(4,)))
        # a vote with a valid index before the bad one leaves no count behind
        ledger = VoteLedger(p=5, alpha=0.5)
        with pytest.raises(ConfigError):
            ledger.add(ClientVote(client=1, indices=(2, 9)))
        assert ledger.counts.tolist() == [0, 0, 0, 0, 0]
        assert ledger.clients_seen == 0
        ledger.add(ClientVote(client=2, indices=(3,)))
        assert ledger.selected() == (3,)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigError):
            VoteLedger(p=3, alpha=1.5)

    def test_counts_bounded_by_clients(self):
        ledger = VoteLedger(p=4, alpha=0.5)
        for s in range(1, 9):
            ledger.add(ClientVote(client=s, indices=(1,)))
            assert ledger.counts.max() <= ledger.clients_seen


class TestClientVote:
    def test_indices_sorted_and_deduplicated(self):
        vote = ClientVote(client=2, indices=(5, 1, 5, 3))
        assert vote.indices == (1, 3, 5)


class TestClientFit:
    def test_zero_rewards_vote_nothing(self):
        atlas = FeatureAtlas(BasisFamily.COSINE_1D, 5)
        X = np.linspace(0.0, 1.0, 12)[:, None]
        vote = client_fit(atlas.concat_many(X), np.zeros(12), lam=0.1, omega=0.25)
        assert vote.indices == ()
        assert not vote.failed

    def test_single_group_signal_recovered(self):
        atlas = FeatureAtlas(BasisFamily.COSINE_1D, 5)
        rng = np.random.default_rng(2)
        X = rng.uniform(0.0, 1.0, size=(40, 1))
        y = 2.0 * np.cos(2 * np.pi * X[:, 0])
        vote = client_fit(atlas.concat_many(X), y, lam=0.01, omega=0.25)
        assert vote.indices == (2,)

    def test_empty_data_rejected(self):
        with pytest.raises(DataError):
            client_fit(np.zeros((0, 5)), np.zeros(0), lam=0.1, omega=0.25)

    def test_empty_client_rejected_before_any_fit(self, monkeypatch):
        fits = []
        monkeypatch.setattr(federated, "fit_lassos", lambda *args, **kwargs: fits.append(args))
        phi = np.ones((3, 5))
        with pytest.raises(DataError, match="client 2"):
            client_fits([phi, np.zeros((0, 5))], [np.ones(3), []], 0.1, 0.25, clients=[1, 2])
        assert fits == []

    def test_non_unique_client_fit_left_to_the_iterative_solver(self, monkeypatch):
        # Client 6 of federated seed 14 (defaults) drew a point where every
        # cosine feature is +-1. At the optimum all 50 columns are
        # equicorrelated on 10 rows, so the lasso solutions form a polytope:
        # the path must decline, and the vote is the iterative solver's.
        config = build_config("federated", {"seeds": "14,"})
        seen = {}

        def spy(features, rewards, *args, **kwargs):
            votes, reports = client_fits(features, rewards, *args, **kwargs)
            for phi, y, vote, report in zip(features, rewards, votes, reports):
                seen[vote.client] = (phi, y, vote, report)
            return votes, reports

        monkeypatch.setattr(federated, "client_fits", spy)
        run_experiment(config)
        phi, y, vote, report = seen[6]
        assert vote.indices == (2, 5, 10, 13, 17, 20, 21, 25, 35, 43, 48)
        assert not vote.failed
        _, (alone,) = fit_lassos(PooledDesign([phi], [y]), config.lam)
        assert report.method == alone.method == "apg"


def grid_clients(seed, rows, p=8):
    """One client per entry of ``rows``: that many uniform draws of a
    60-point grid and their noisy rewards under one environment."""
    env = small_env(seed=seed % 50, n_tasks=1)
    rng = np.random.default_rng(seed)
    features, rewards = [], []
    for n in rows:
        drawn = rng.integers(env.grid_size, size=n)
        features.append(env.grid_features[drawn])
        rewards.append(env.values[drawn, 0] + 0.1 * rng.standard_normal(n))
    return features, rewards


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rows=st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=6),
    changed=st.integers(min_value=0, max_value=5),
    new_rows=st.integers(min_value=1, max_value=16),
)
def test_a_clients_rows_move_no_other_vote(seed, rows, changed, new_rows):
    # a client whose rows all repeat one point where every cosine feature
    # is +-1 has a non-unique fit, which the path declines
    features, rewards = grid_clients(seed, rows)
    features[0] = np.repeat(small_env().grid_features[:1], 3, axis=0)
    rewards[0] = np.array([1.0, 0.5, 0.2])
    votes, _ = client_fits(features, rewards, 0.05, 0.25, clients=range(1, len(rows) + 1))
    changed %= len(rows)
    other_features, other_rewards = grid_clients(seed + 1, [new_rows])
    features[changed], rewards[changed] = other_features[0], other_rewards[0]
    moved, _ = client_fits(features, rewards, 0.05, 0.25, clients=range(1, len(rows) + 1))
    assert [v.client for v in votes] == [v.client for v in moved] == list(range(1, len(rows) + 1))
    for s, (before, after) in enumerate(zip(votes, moved)):
        if s != changed:
            assert before == after
    for phi, y, vote in zip(features, rewards, moved):
        assert vote == client_fit(phi, y, 0.05, 0.25, client=vote.client)


def test_server_side_signatures_accept_no_observations():
    # the aggregation path sees votes and ledgers only; no parameter on the
    # server side takes features, rewards, or points
    params = inspect.signature(VoteLedger.selected).parameters
    assert list(params) == ["self"]
    add_params = inspect.signature(VoteLedger.add).parameters
    assert list(add_params) == ["self", "vote"]


def small_env(seed=0, n_tasks=6, noise=0.1):
    spec = SyntheticSpec(p=8, support_size=2, norm_bound=6.0, beta_min=0.5, noise=noise)
    return SyntheticEnvironment(spec, n_tasks=n_tasks, master_seed=seed, grid_points=60)


class TestRunFederated:
    def test_single_client_uses_own_vote(self):
        env = small_env(seed=3, n_tasks=1, noise=0.02)
        record = run_federated(env, m=1, n=49, omega=0.25, lam=0.05, alpha=0.5, seed=1)
        vote = record.votes[0]
        expected = vote.indices if vote.indices else tuple(range(1, 9))
        assert record.tasks[0].kernel == expected
        assert record.server_sets[0] == vote.indices

    def test_constant_exploration_counts(self):
        env = small_env(seed=4)
        record = run_federated(env, m=4, n=100, omega=0.25, lam=0.1, alpha=0.25, seed=0)
        assert [t.explore_count for t in record.tasks] == [10, 10, 10, 10]
        for t in record.tasks:
            assert t.explored[:10].all() and not t.explored[10:].any()

    def test_own_vote_counts_before_exploitation(self):
        env = small_env(seed=5)
        record = run_federated(env, m=3, n=36, omega=0.25, lam=0.1, alpha=1.0, seed=2)
        ledger = VoteLedger(p=8, alpha=1.0)
        for s, vote in enumerate(record.votes, start=1):
            ledger.add(vote)
            expected = ledger.selected()
            assert record.server_sets[s - 1] == expected
            kernel = expected if expected else tuple(range(1, 9))
            assert record.tasks[s - 1].kernel == kernel

    def test_identical_noiseless_clients_agree_immediately(self):
        atlas = FeatureAtlas(BasisFamily.COSINE_1D, 8)
        rng = np.random.default_rng(6)
        X = rng.uniform(0.0, 1.0, size=(40, 1))
        y = 1.5 * np.cos(np.pi * X[:, 0]) - 2.0 * np.cos(3 * np.pi * X[:, 0])
        ledger = VoteLedger(p=8, alpha=1.0)
        common = None
        for s in range(1, 4):
            vote = client_fit(atlas.concat_many(X), y, lam=0.02, omega=0.25, client=s)
            if common is None:
                common = vote.indices
            assert vote.indices == common == (1, 3)
            ledger.add(vote)
            assert ledger.selected() == common

    def test_determinism(self):
        a = run_federated(small_env(seed=7), m=3, n=25, omega=0.25, lam=0.1, alpha=0.25, seed=4)
        b = run_federated(small_env(seed=7), m=3, n=25, omega=0.25, lam=0.1, alpha=0.25, seed=4)
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.actions, tb.actions)
            assert np.array_equal(ta.rewards, tb.rewards)
        assert a.votes == b.votes

    def test_info_gain_within_slack(self):
        record = run_federated(small_env(seed=8), m=3, n=25, omega=0.25, lam=0.1, alpha=0.25, seed=5)
        assert record.max_gain_slack <= 1e-9

    def test_too_many_tasks_rejected(self):
        env = small_env(seed=9, n_tasks=2)
        with pytest.raises(ConfigError):
            run_federated(env, m=3, n=10, omega=0.25, lam=0.1, alpha=0.5)
