"""Regularized least-squares posterior, UCB selection, and information gain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong_bandits import gp_ucb
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
    LockstepUcb,
    UcbConfig,
    info_gain_bound,
    realized_info_gain,
    ucb_choice,
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


def one_agent(points, dim, lam):
    """A one-agent ``LockstepUcb`` over the cosine atlas rows of ``points``
    under all ``dim`` groups at weight 1/dim, and those rows scaled by
    sqrt(1/dim): the features whose inner products are the agent's kernel."""
    table = FeatureAtlas(BasisFamily.COSINE_1D, dim).concat_many(np.reshape(points, (-1, 1)))
    group = LockstepUcb(table, np.full((1, dim), 1.0 / dim), UcbConfig(lam=lam))
    return group, table / np.sqrt(dim)


def observe(group, index, y):
    group.observe(np.array([index]), np.array([float(y)]))


def posterior(group):
    """The one agent's posterior mean and variance at every candidate row,
    as ``select`` reads them."""
    return group.theta[0] @ group.features.T, np.maximum(group.var[0], 0.0)


class TestPosteriorState:
    """The posterior state of one agent, on the atlas rows it sees."""

    def test_prior(self):
        group, scaled = one_agent([0.0, 0.3], dim=3, lam=0.5)
        mean, var = posterior(group)
        assert not mean.any()
        # the prior variance is the kernel diagonal, 1 where every cosine is
        assert var[0] == pytest.approx(1.0)
        assert var[1] == pytest.approx(scaled[1] @ scaled[1])

    def test_one_observation_hand_values(self):
        # lam=1, one group, x=0 so f=1: A = 2, b = y0, mean = y0/2, var = 1/2
        group, _ = one_agent([0.0], dim=1, lam=1.0)
        observe(group, 0, 3.0)
        mean, var = posterior(group)
        assert mean[0] == pytest.approx(1.5)
        assert var[0] == pytest.approx(0.5)

    def test_one_observation_matches_dual(self):
        group, scaled = one_agent([0.3, 0.7], dim=2, lam=1.0)
        observe(group, 0, 3.0)
        mean, var = posterior(group)
        for i in range(2):
            dm, dv = dual_posterior(scaled[:1], np.array([3.0]), scaled[i], 1.0)
            assert mean[i] == pytest.approx(dm)
            assert var[i] == pytest.approx(dv)

    def test_primal_equals_dual_randomized(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 7))
            n = int(rng.integers(0, 21))
            lam = float(rng.uniform(0.05, 2.0))
            # n observed points and one query point
            group, scaled = one_agent(rng.uniform(size=n + 1), d, lam)
            y = rng.normal(size=n)
            for i in range(n):
                observe(group, i, y[i])
            mean, var = posterior(group)
            dm, dv = dual_posterior(scaled[:n], y, scaled[n], lam)
            worst = max(worst, abs(mean[n] - dm), abs(var[n] - dv))
        assert worst < 1e-8

    def test_variance_never_increases(self):
        rng = np.random.default_rng(1)
        group, _ = one_agent(rng.uniform(size=40), dim=4, lam=0.3)
        prev = posterior(group)[1]
        for _ in range(30):
            observe(group, int(rng.integers(40)), rng.normal())
            var = posterior(group)[1]
            assert (var <= prev + 1e-12).all()
            prev = var

    def test_observation_order_is_irrelevant(self):
        rng = np.random.default_rng(2)
        points = rng.uniform(size=9)
        y = rng.normal(size=8)
        a, _ = one_agent(points, dim=3, lam=0.7)
        b, _ = one_agent(points, dim=3, lam=0.7)
        for i in range(8):
            observe(a, i, y[i])
            observe(b, 7 - i, y[7 - i])
        for got, want in zip(posterior(a), posterior(b)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_small_lam_interpolates(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=3)
        group, _ = one_agent([0.1, 0.45, 0.8], dim=3, lam=1e-4)
        for i in range(3):
            observe(group, i, y[i])
        mean, var = posterior(group)
        np.testing.assert_allclose(mean, y, rtol=0, atol=1e-6)
        np.testing.assert_allclose(var, 0.0, rtol=0, atol=1e-6)

    def test_mean_var_many_matches_scalar(self):
        # the variances kept beside the candidates, lowered once per
        # observation, equal lam^2 f^T A^{-1} f from the inverse as of the
        # last fold and the update vectors held since, row by row, and the
        # dual formulas
        rng = np.random.default_rng(4)
        group, scaled = one_agent(rng.uniform(size=16), dim=4, lam=0.4)
        y = rng.normal(size=6)
        for i in range(6):
            observe(group, i, y[i])
        assert group.held == 2
        held = group.pending[0, : group.held]
        inverse = group.inv[0] - held.T @ held
        means, variances = posterior(group)
        for i, f in enumerate(group.features):
            assert means[i] == pytest.approx(f @ group.theta[0])
            assert variances[i] == pytest.approx(0.4**2 * f @ inverse @ f)
            dm, dv = dual_posterior(scaled[:6], y, scaled[i], 0.4)
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
        group, scaled = one_agent(rng.uniform(size=12), dim=3, lam=0.6)
        for i in range(12):
            observe(group, i, 0.0)
        expected = realized_info_gain(scaled @ scaled.T, 0.6)
        assert 0.5 * group.log_det[0] == pytest.approx(expected, abs=1e-9)

    def test_rejects_indefinite_gram(self):
        with pytest.raises(ValueError):
            realized_info_gain(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)


@pytest.mark.parametrize("lam", [1e-300, 1e-150, 1e-8, 1e154, 1e160, np.nan])
def test_regularizer_outside_float_range_rejected(lam):
    # lam^2 below machine epsilon leaves no digit of the downdated inverse;
    # 1/lam^2 or lam^2 outside the normal floats over- or underflows
    with pytest.raises(ValueError, match="out of range"):
        UcbConfig(lam=lam)


@pytest.mark.parametrize("lam", [1.5e-8, 0.1, 1e150])
def test_regularizer_inside_float_range_accepted(lam):
    assert UcbConfig(lam=lam).lam == lam


def make_agent(p=5, selected=(1, 2), nu=10.0, lam=0.1, grid_n=60):
    atlas = FeatureAtlas(BasisFamily.COSINE_1D, p)
    est = KernelEstimate(p=p, selected=selected)
    grid = uniform_grid(atlas.domain, grid_n)
    agent = GpUcb(atlas, est, UcbConfig(nu=nu, lam=lam))
    return atlas, est, grid, agent


def mirror_pair():
    """Two candidates, x = 0.2 and its mirror image 0.8, under the all-even
    kernel (2, 4): their features agree in exact arithmetic, so every
    posterior score ties, but the computed prior variance of the mirror
    point is the higher one."""
    atlas = FeatureAtlas(BasisFamily.COSINE_1D, 8)
    return atlas, KernelEstimate(p=8, selected=(2, 4)), np.array([[0.2], [0.8]])


class TestUcbChoice:
    def test_exact_tie_goes_to_the_lower_index(self):
        assert ucb_choice(np.array([1.0, 3.0, 3.0, 2.0])) == 1

    def test_gap_within_tolerance_is_a_tie(self):
        top = 40.0
        assert ucb_choice(np.array([top * (1 - 1e-13), top])) == 0
        # below 1 the tolerance is absolute
        assert ucb_choice(np.array([0.5, 0.5 + 5e-13])) == 0

    def test_relative_gap_of_1e_9_is_not_a_tie(self):
        top = 40.0
        assert ucb_choice(np.array([top * (1 - 1e-9), top])) == 1
        assert ucb_choice(np.array([0.5, 0.5 + 1e-9])) == 1

    @pytest.mark.parametrize(
        "scores",
        [[[np.nan, 1.0, 2.0]], [[0.0, 1.0, 0.0], [1.0, np.nan, 2.0]], [[1.0, np.inf, 2.0]]],
    )
    def test_nan_or_infinite_top_raises(self, scores):
        # a NaN top compares with no score, and an infinite one leaves a NaN
        # floor, so either would give index 0 whatever the scores
        with pytest.raises(ValueError, match="NaN or an infinity"):
            ucb_choice(np.array(scores))

    def test_rows_are_decided_separately(self):
        scores = np.array([[2.0, 2.0, 1.0], [0.0, 1.0, 1.0 + 1e-9], [5.0, 4.0, 5.0]])
        assert ucb_choice(scores).tolist() == [0, 2, 0]


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

    def test_mirror_tie_goes_to_the_lower_index(self):
        atlas, est, mirror = mirror_pair()
        agent = GpUcb(atlas, est, UcbConfig())
        assert agent.select(mirror) == 0
        assert agent.group.var[0, 1] > agent.group.var[0, 0]

    def test_pure_exploitation_picks_posterior_argmax(self):
        atlas, est, grid, agent = make_agent(selected=(1,), nu=0.0, lam=0.1)
        # teach it that the function is phi_1, scaled: peak at x=0
        seen = [10, 30, 50]
        Q = selected_features(atlas, est, grid)
        y = 2.0 * Q[seen, 0]
        for idx, yi in zip(seen, y):
            agent.observe(idx, float(yi), grid)
        choice = agent.select(grid)
        means, _ = scratch_posterior(Q[seen], y, Q, 0.1)
        assert choice == int(np.argmax(means))

    def test_other_candidate_array_rejected(self):
        # the agent holds the first array it is given, so no other array,
        # not even an equal copy, can pass for it
        atlas, est, grid, agent = make_agent(selected=(1,))
        agent.observe(3, 1.0, grid)
        with pytest.raises(ValueError, match="bound"):
            agent.select(grid.copy())
        with pytest.raises(ValueError, match="bound"):
            agent.observe(0, 1.0, grid.copy())
        # the rejected calls left the agent as it was
        assert agent.group.count == 1
        np.testing.assert_array_equal(agent.group.features, atlas.concat_many(grid)[:, :1])
        assert 0 <= agent.select(grid) < len(grid)

    def test_info_gain_never_exceeds_bound(self):
        rng = np.random.default_rng(6)
        atlas, est, grid, agent = make_agent(selected=(1, 3), lam=0.2)
        for _ in range(80):
            idx = int(rng.integers(len(grid)))
            agent.observe(idx, float(rng.normal()), grid)
        assert agent.group.max_gain_slack[0] <= 0.0 + 1e-12

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


def assert_group_matches(group, agents, grid):
    """Each lockstep agent's mean, variance and gain equal those of its own
    ``GpUcb``, a group of one at the width of its own kernel."""
    for j, agent in enumerate(agents):
        assert agent.candidates is grid
        mean, var = posterior(agent.group)
        np.testing.assert_allclose(group.theta[j] @ group.features.T, mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.maximum(group.var[j], 0.0), var, rtol=0, atol=1e-12)
        assert 0.5 * group.log_det[j] == pytest.approx(0.5 * agent.group.log_det[0], abs=1e-12)
        assert group.max_gain_slack[j] == pytest.approx(agent.group.max_gain_slack[0], abs=1e-12)


class TestLockstepUcb:
    def test_matches_separate_agents(self):
        # nested, disjoint, all-even and repeated kernels in one group
        self.check_against_agents(((1, 2, 5), (2, 5), (3, 7), (2, 4, 6), (1, 2, 5)), width=7)

    def test_width_one_group_folds_every_step(self):
        self.check_against_agents(((3,), (3,)), width=1)

    def check_against_agents(self, selections, width):
        atlas, _, grid, _ = make_agent(p=7, grid_n=80)
        kernels = [KernelEstimate(p=7, selected=sel) for sel in selections]
        config = UcbConfig(nu=2.0, lam=0.3)
        agents = [GpUcb(atlas, est, config) for est in kernels]
        group = LockstepUcb.over_table(atlas.concat_many(grid), kernels, config)
        assert group.features.shape == (80, width)
        assert group.dims.tolist() == [len(sel) for sel in selections]
        rng = np.random.default_rng(0)
        for step in range(25):
            chosen = group.select()
            assert chosen.tolist() == [agent.select(grid) for agent in agents]
            # half the steps observe arbitrary points, as forced draws do
            idx = rng.integers(len(grid), size=len(agents)) if step % 2 else chosen
            y = rng.standard_normal(len(agents))
            group.observe(idx, y)
            for agent, i, yi in zip(agents, idx, y):
                agent.observe(int(i), float(yi), grid)
        assert_group_matches(group, agents, grid)
        columns = sorted(set().union(*selections))
        for j, est in enumerate(kernels):
            # the columns outside the agent's kernel never leave the prior
            outside = ~np.isin(columns, est.selected)
            assert not group.theta[j, outside].any()
            assert not group.inv[j][outside].any() and not group.inv[j][:, outside].any()
            assert not group.pending[j, : group.held][:, outside].any()
        assert group.count == 25 and group.held == 25 % width

    def test_matches_separate_agents_across_folds(self):
        # the union is 5 columns wide, so the pending block folds into the
        # inverse at 5 and 10 observations
        atlas, _, grid, _ = make_agent(p=7, grid_n=80)
        kernels = [KernelEstimate(p=7, selected=sel) for sel in ((1, 2, 5), (2, 5), (3, 7))]
        config = UcbConfig(nu=2.0, lam=0.3)
        agents = [GpUcb(atlas, est, config) for est in kernels]
        group = LockstepUcb.over_table(atlas.concat_many(grid), kernels, config)
        width = group.features.shape[1]
        assert width == 5
        rng = np.random.default_rng(1)
        for count in range(1, 2 * width + 1):
            idx = group.select() if count % 3 else rng.integers(len(grid), size=len(agents))
            y = rng.standard_normal(len(agents))
            group.observe(idx, y)
            for agent, i, yi in zip(agents, idx, y):
                agent.observe(int(i), float(yi), grid)
            if count in (width, width + 1, 2 * width):
                assert group.held == count % width
                assert_group_matches(group, agents, grid)

    def test_rejects_mismatched_or_empty_weights(self):
        features = np.ones((4, 2))
        with pytest.raises(ValueError):
            LockstepUcb(features, np.ones((2, 3)), UcbConfig())
        with pytest.raises(EmptyKernelError):
            LockstepUcb(features, np.array([[0.5, 0.5], [0.0, 0.0]]), UcbConfig())

    def test_mirror_tie_goes_to_the_lower_index(self):
        atlas, est, mirror = mirror_pair()
        group = LockstepUcb.over_table(atlas.concat_many(mirror), [est, est], UcbConfig())
        assert group.var[0, 1] > group.var[0, 0]
        assert group.select().tolist() == [0, 0]

    def test_relative_gap_of_1e_9_is_not_a_tie(self):
        # prior scores nu * |f| under one column of weight 1
        features = np.array([[1.0], [1.0 + 1e-9], [-1.0]])
        group = LockstepUcb(features, np.ones((2, 1)), UcbConfig(nu=10.0))
        assert group.select().tolist() == [1, 1]

    def test_info_gain_cap_enforced(self, monkeypatch):
        atlas, est, grid, _ = make_agent()
        group = LockstepUcb.over_table(atlas.concat_many(grid), [est] * 3, UcbConfig())
        monkeypatch.setattr(gp_ucb, "info_gain_bound", lambda d, n, lam: 0.0)
        with pytest.raises(RuntimeError, match="exceeds its cap"):
            group.observe(np.array([0, 5, 9]), np.zeros(3))

    def test_nan_gain_fails_the_cap(self):
        # a posterior gone NaN must not pass the gate as a False comparison
        atlas, est, grid, _ = make_agent()
        group = LockstepUcb.over_table(atlas.concat_many(grid), [est] * 3, UcbConfig())
        group.log_det[1] = np.nan
        with pytest.raises(RuntimeError, match="exceeds its cap"):
            group.observe(np.array([0, 5, 9]), np.zeros(3))

    def test_broken_q_is_named_with_its_agent(self):
        atlas, est, grid, _ = make_agent()
        group = LockstepUcb.over_table(atlas.concat_many(grid), [est] * 3, UcbConfig())
        group.inv[1, 0, 0] = np.nan
        with pytest.raises(RuntimeError, match=r"agent 1: q = 1 \+ phi\^T A\^-1 phi is nan"):
            group.observe(np.array([0, 5, 9]), np.zeros(3))
        # an inverse gone indefinite gives a negative q, whose log is NaN
        group = LockstepUcb.over_table(atlas.concat_many(grid), [est] * 3, UcbConfig())
        group.inv[2] *= -1.0
        with np.errstate(invalid="ignore"):
            with pytest.raises(RuntimeError, match=r"agent 2: q = .* is -"):
                group.observe(np.array([0, 5, 9]), np.zeros(3))

    def test_info_gain_cap_uses_each_agents_dimension(self):
        assert np.array_equal(
            info_gain_bound(np.array([1, 5]), 7, 0.3),
            [info_gain_bound(1, 7, 0.3), info_gain_bound(5, 7, 0.3)],
        )
        with pytest.raises(ValueError):
            info_gain_bound(np.array([2, 0]), 7, 0.3)


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
    k=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=0, max_value=150),
    lam=st.floats(min_value=0.05, max_value=2.0),
)
def test_mixed_lockstep_matches_scratch_property(seed, k, n, lam):
    # k agents under random kernels of 1 to 50 groups, UCB choices and
    # arbitrary points mixed at random: each agent's means, variances and
    # information gain agree with a from-scratch posterior on its own scaled
    # features
    rng = np.random.default_rng(seed)
    p = 50
    atlas = FeatureAtlas(BasisFamily.COSINE_1D, p)
    kernels = [
        KernelEstimate(p=p, selected=tuple(int(j) for j in rng.choice(
            np.arange(1, p + 1), size=int(rng.integers(1, p + 1)), replace=False)))
        for _ in range(k)
    ]
    cand = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 80)), 1))
    group = LockstepUcb.over_table(atlas.concat_many(cand), kernels, UcbConfig(nu=1.0, lam=lam))
    rewards = rng.normal(size=(n, k))
    chosen = np.empty((n, k), dtype=int)
    for i in range(n):
        chosen[i] = group.select() if rng.random() < 0.5 else rng.integers(len(cand), size=k)
        group.observe(chosen[i], rewards[i])
    for j, est in enumerate(kernels):
        Q = selected_features(atlas, est, cand)
        Phi, y = Q[chosen[:, j]], rewards[:, j]
        mean, var = scratch_posterior(Phi, y, Q, lam)
        scale = max(1.0, float(np.abs(y).max(initial=0.0)))
        mu = group.theta[j] @ group.features.T
        np.testing.assert_allclose(mu, mean, rtol=0, atol=1e-9 * scale)
        np.testing.assert_allclose(
            np.maximum(group.var[j], 0.0), np.maximum(var, 0.0), rtol=0, atol=1e-9
        )
        gain = realized_info_gain(Phi @ Phi.T, lam)
        assert abs(0.5 * group.log_det[j] - gain) <= 1e-9
