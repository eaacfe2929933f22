"""Regularized least-squares posterior, UCB selection, and information gain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong_bandits.environment import SyntheticEnvironment, SyntheticSpec, uniform_grid
from lifelong_bandits.errors import EmptyKernelError
from lifelong_bandits.features import (
    BasisFamily,
    FeatureAtlas,
    KernelEstimate,
    kernel_gram,
    selected_features,
)
from lifelong_bandits.gp_ucb import (
    GpUcb,
    PosteriorState,
    UcbConfig,
    info_gain_bound,
    realized_info_gain,
)
from lifelong_bandits.seeding import substream


def dual_posterior(Phi, y, phi_query, lam):
    """Kernel-space posterior, an independent route to the same quantities.

    mean = k(x)^T (K + lam^2 I)^{-1} y
    var  = k(x,x) - k(x)^T (K + lam^2 I)^{-1} k(x)
    with K = Phi Phi^T and k(x) = Phi phi_query.
    """
    K = Phi @ Phi.T
    kx = Phi @ phi_query
    kxx = float(phi_query @ phi_query)
    M = K + lam * lam * np.eye(len(y))
    w = np.linalg.solve(M, np.stack([y, kx], axis=1))
    mean = float(kx @ w[:, 0])
    var = lam * lam * 0.0 + kxx - float(kx @ w[:, 1])
    return mean, var


def mean_var(state, phi):
    """Posterior mean and variance at one scaled feature vector: one row of
    ``mean_var_many``."""
    means, variances = state.mean_var_many(np.asarray(phi, dtype=float)[None, :])
    return float(means[0]), float(variances[0])


class TestPosteriorState:
    def test_prior(self):
        state = PosteriorState(dim=3, lam=0.5)
        phi = np.array([1.0, 2.0, 2.0])
        mean, var = mean_var(state, phi)
        assert mean == 0.0
        assert var == pytest.approx(9.0)

    def test_one_observation_hand_values(self):
        # lam=1, phi=e1: A = diag(2,1), b = y0 e1, mean = y0/2, var = 1/2
        state = PosteriorState(dim=2, lam=1.0)
        phi = np.array([1.0, 0.0])
        state.observe(phi, 3.0)
        mean, var = mean_var(state, phi)
        assert mean == pytest.approx(1.5)
        assert var == pytest.approx(0.5)

    def test_one_observation_matches_dual(self):
        state = PosteriorState(dim=2, lam=1.0)
        phi = np.array([1.0, 0.0])
        state.observe(phi, 3.0)
        mean, var = mean_var(state, phi)
        dm, dv = dual_posterior(phi[None, :], np.array([3.0]), phi, 1.0)
        assert mean == pytest.approx(dm)
        assert var == pytest.approx(dv)

    def test_primal_equals_dual_randomized(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 7))
            n = int(rng.integers(0, 21))
            lam = float(rng.uniform(0.05, 2.0))
            Phi = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            state = PosteriorState(dim=d, lam=lam)
            for i in range(n):
                state.observe(Phi[i], y[i])
            q = rng.normal(size=d)
            mean, var = mean_var(state, q)
            dm, dv = dual_posterior(Phi, y, q, lam)
            worst = max(worst, abs(mean - dm), abs(var - dv))
        assert worst < 1e-8

    def test_variance_never_increases(self):
        rng = np.random.default_rng(1)
        state = PosteriorState(dim=4, lam=0.3)
        q = rng.normal(size=4)
        _, prev = mean_var(state, q)
        for _ in range(30):
            state.observe(rng.normal(size=4), rng.normal())
            _, var = mean_var(state, q)
            assert var <= prev + 1e-12
            prev = var

    def test_observation_order_is_irrelevant(self):
        rng = np.random.default_rng(2)
        Phi = rng.normal(size=(8, 3))
        y = rng.normal(size=8)
        a = PosteriorState(dim=3, lam=0.7)
        b = PosteriorState(dim=3, lam=0.7)
        for i in range(8):
            a.observe(Phi[i], y[i])
            b.observe(Phi[7 - i], y[7 - i])
        q = rng.normal(size=3)
        assert mean_var(a, q) == pytest.approx(mean_var(b, q))

    def test_small_lam_interpolates(self):
        rng = np.random.default_rng(3)
        Phi = np.eye(3)
        y = rng.normal(size=3)
        state = PosteriorState(dim=3, lam=1e-4)
        for i in range(3):
            state.observe(Phi[i], y[i])
        for i in range(3):
            mean, var = mean_var(state, Phi[i])
            assert mean == pytest.approx(y[i], abs=1e-6)
            assert var == pytest.approx(0.0, abs=1e-6)

    def test_mean_var_many_matches_scalar(self):
        rng = np.random.default_rng(4)
        state = PosteriorState(dim=3, lam=0.4)
        seen = [(rng.normal(size=3), rng.normal()) for _ in range(6)]
        for phi, y in seen:
            state.observe(phi, y)
        Phi, y = np.array([phi for phi, _ in seen]), np.array([y for _, y in seen])
        Q = rng.normal(size=(10, 3))
        means, variances = state.mean_var_many(Q)
        for i in range(10):
            # each batch row equals the query alone and the dual formulas
            m, v = mean_var(state, Q[i])
            assert means[i] == pytest.approx(m)
            assert variances[i] == pytest.approx(v)
            dm, dv = dual_posterior(Phi, y, Q[i], 0.4)
            assert means[i] == pytest.approx(dm)
            assert variances[i] == pytest.approx(dv)


class TestInfoGain:
    def test_bound_single_obs(self):
        assert info_gain_bound(1, 1, 1.0) == pytest.approx(0.5 * np.log(2.0))

    def test_bound_zero_obs(self):
        assert info_gain_bound(3, 0, 0.1) == 0.0

    def test_realized_identity_gram(self):
        K = np.eye(2)
        assert realized_info_gain(K, 1.0) == pytest.approx(np.log(2.0))

    def test_realized_empty(self):
        assert realized_info_gain(np.zeros((0, 0)), 0.5) == 0.0

    def test_state_tracks_realized(self):
        rng = np.random.default_rng(5)
        Phi = rng.normal(size=(12, 3))
        state = PosteriorState(dim=3, lam=0.6)
        for i in range(12):
            state.observe(Phi[i], 0.0)
        expected = realized_info_gain(Phi @ Phi.T, 0.6)
        assert state.info_gain() == pytest.approx(expected, abs=1e-9)

    def test_rejects_indefinite_gram(self):
        with pytest.raises(ValueError):
            realized_info_gain(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)


def make_agent(p=5, selected=(1, 2), nu=10.0, lam=0.1, grid_n=60):
    atlas = FeatureAtlas(BasisFamily.COSINE_1D, p)
    est = KernelEstimate(p=p, selected=selected)
    grid = uniform_grid(atlas.domain, grid_n)
    agent = GpUcb(atlas, est, UcbConfig(nu=nu, lam=lam))
    return atlas, est, grid, agent


class TestGpUcb:
    def test_empty_kernel_rejected(self):
        atlas = FeatureAtlas(BasisFamily.COSINE_1D, 4)
        with pytest.raises(EmptyKernelError):
            GpUcb(atlas, KernelEstimate(p=4, selected=()), UcbConfig())

    def test_prior_tie_breaks_first_grid_point(self):
        # with no data the mean is 0 everywhere and sigma is the feature norm;
        # cosine features have equal norm at x=0 and x=1, argmax takes index 0
        atlas, est, grid, agent = make_agent(selected=(1,))
        assert agent.select(grid) == 0

    def test_pure_exploitation_picks_posterior_argmax(self):
        atlas, est, grid, agent = make_agent(selected=(1,), nu=0.0, lam=0.1)
        # teach it that the function is phi_1, scaled: peak at x=0
        for idx in (10, 30, 50):
            x = grid[idx]
            y = float(selected_features(atlas, est, [x])[0, 0] * 2.0)
            agent.observe(idx, y, grid)
        choice = agent.select(grid)
        means, _ = agent.state.mean_var_many(selected_features(atlas, est, grid))
        assert choice == int(np.argmax(means))

    def test_observe_point_equals_observe_index(self):
        atlas, est, grid, a = make_agent()
        _, _, _, b = make_agent()
        for idx in (3, 17, 44):
            a.observe(idx, 1.0, grid)
            b.observe_point(grid[idx], 1.0)
        q = grid[25]
        pa = mean_var(a.state, selected_features(atlas, est, [q])[0])
        pb = mean_var(b.state, selected_features(atlas, est, [q])[0])
        assert pa == pytest.approx(pb)

    def test_new_candidate_array_gets_its_own_features(self):
        # Once a candidate array is freed, a new array of the same size
        # usually takes its address and id (np.empty right after the free
        # does so on CPython). The agent must still evaluate features at the
        # new array's points, so it may not key anything on the id.
        for _ in range(20):
            atlas, est, _, agent = make_agent(selected=(1,))
            first = np.full((50, 1), 0.3)
            agent.select(first)
            del first
            fresh = np.empty((50, 1))
            fresh.fill(0.7)
            agent.observe(0, 1.0, fresh)
            expected = selected_features(atlas, est, fresh)[0]
            np.testing.assert_allclose(agent.state.b, expected, rtol=0, atol=1e-15)

    def test_info_gain_never_exceeds_bound(self):
        rng = np.random.default_rng(6)
        atlas, est, grid, agent = make_agent(selected=(1, 3), lam=0.2)
        for _ in range(80):
            idx = int(rng.integers(len(grid)))
            agent.observe(idx, float(rng.normal()), grid)
        assert agent.max_gain_slack <= 0.0 + 1e-12

    def test_finds_peak_of_smooth_reward(self):
        # reward 2*cos(pi x) restricted to its own kernel: peak at grid point 0
        atlas, est, grid, agent = make_agent(selected=(1,), nu=2.0, lam=0.1)
        rng = np.random.default_rng(7)
        values = 2.0 * np.cos(np.pi * grid[:, 0])
        pulls = []
        for _ in range(200):
            idx = agent.select(grid)
            pulls.append(idx)
            agent.observe(idx, float(values[idx] + 0.05 * rng.normal()), grid)
        # late pulls concentrate within one grid cell of the optimum
        late = pulls[-20:]
        assert max(abs(grid[i, 0] - 0.0) for i in late) <= 1.5 / (len(grid) - 1)

    def test_regret_is_sublinear_on_synthetic_tasks(self):
        spec = SyntheticSpec(p=10, support_size=2, norm_bound=4.0, beta_min=0.5)
        halves = []
        for seed in range(20):
            env = SyntheticEnvironment(spec, n_tasks=1, master_seed=seed, grid_points=120)
            est = KernelEstimate(p=spec.p, selected=env.support)
            agent = GpUcb(env.atlas, est, UcbConfig(nu=2.0, lam=0.2))
            view = env.task_view(1)
            regs = []
            for _ in range(120):
                idx = agent.select(env.grid)
                agent.observe(idx, view.observe(idx), env.grid)
                regs.append(view.regret(idx))
            first, second = sum(regs[:60]), sum(regs[60:])
            halves.append((first, second))
        better = sum(second < 0.5 * first + 1e-9 for first, second in halves)
        assert better >= 15


def scratch_posterior(Phi, y, Q, lam):
    """Posterior mean and variance at the rows of Q, from a Cholesky factor of
    A = lam^2 I + Phi^T Phi built from scratch."""
    low = np.linalg.cholesky(lam * lam * np.eye(Q.shape[1]) + Phi.T @ Phi)
    half = np.linalg.solve(low, np.column_stack([Phi.T @ y, Q.T]))
    mean = half[:, 1:].T @ half[:, 0]
    var = lam * lam * np.einsum("ij,ij->j", half[:, 1:], half[:, 1:])
    return mean, var


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    d=st.integers(min_value=1, max_value=50),
    n=st.integers(min_value=0, max_value=200),
    lam=st.floats(min_value=0.05, max_value=2.0),
    switch_at=st.floats(min_value=0.0, max_value=1.0),
)
def test_incremental_posterior_matches_scratch_property(seed, d, n, lam, switch_at):
    # observe and observe_point mixed at random, the candidate array replaced
    # once mid-run: the means and variances select scores, and the running
    # information gain, agree with a from-scratch posterior
    rng = np.random.default_rng(seed)
    p = 50
    atlas = FeatureAtlas(BasisFamily.COSINE_1D, p)
    selected = rng.choice(np.arange(1, p + 1), size=d, replace=False)
    est = KernelEstimate(p=p, selected=tuple(int(j) for j in selected))
    agent = GpUcb(atlas, est, UcbConfig(nu=1.0, lam=lam))

    def new_grid():
        return rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 80)), 1))

    def check(cand):
        Phi = selected_features(atlas, est, np.reshape(points, (-1, 1)))
        y = np.asarray(rewards)
        mean, var = scratch_posterior(Phi, y, selected_features(atlas, est, cand), lam)
        mu, sigma2 = agent.posterior(cand)
        scale = max(1.0, float(np.abs(y).max(initial=0.0)))
        np.testing.assert_allclose(mu, mean, rtol=0, atol=1e-9 * scale)
        np.testing.assert_allclose(sigma2, np.maximum(var, 0.0), rtol=0, atol=1e-9)
        gain = realized_info_gain(Phi @ Phi.T, lam)
        assert abs(agent.state.info_gain() - gain) <= 1e-9

    cand = new_grid()
    agent.select(cand)
    points, rewards = [], []
    switch = int(switch_at * n)
    for i in range(n):
        if i == switch:
            cand = new_grid()
            agent.select(cand)
            check(cand)
        y = float(rng.normal())
        if rng.random() < 0.5:
            idx = int(rng.integers(len(cand)))
            agent.observe(idx, y, cand)
            points.append(cand[idx, 0])
        else:
            x = float(rng.uniform(0.0, 1.0))
            agent.observe_point([x], y)
            points.append(x)
        rewards.append(y)
    check(cand)
