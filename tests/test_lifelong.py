"""Exploration schedules and the sequential task runner."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import lifelong_bandits
from lifelong_bandits import lifelong
from lifelong_bandits.environment import SyntheticEnvironment, SyntheticSpec
from lifelong_bandits.errors import ConfigError
from lifelong_bandits.federated import run_federated
from lifelong_bandits.gp_ucb import GpUcb, LockstepUcb, UcbConfig
from lifelong_bandits.lifelong import (
    LifelongRunRecord,
    ScheduleMode,
    _run_tasks,
    exploration_counts,
    integerize,
    run_baseline,
    run_lifelong,
    schedule_rates,
    theory_lambda,
)
from lifelong_bandits.group_lasso import PooledDesign
from lifelong_bandits.seeding import STREAM_EXPLORE, substream


class TestRates:
    def test_decreasing_first_task(self):
        assert schedule_rates(100, 1, ScheduleMode.DECREASING)[0] == pytest.approx(
            10.0, abs=1e-12
        )

    def test_decreasing_sixteenth_task(self):
        rates = schedule_rates(100, 16, ScheduleMode.DECREASING)
        assert rates[15] == pytest.approx(5.0, abs=1e-12)

    def test_constant(self):
        rates = schedule_rates(100, 7, ScheduleMode.CONSTANT)
        assert np.all(rates == 10.0)

    def test_decreasing_is_nonincreasing(self):
        rates = schedule_rates(47, 30, ScheduleMode.DECREASING)
        assert np.all(np.diff(rates) <= 0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            schedule_rates(0, 5, ScheduleMode.CONSTANT)
        with pytest.raises(ValueError):
            schedule_rates(5, 5, "custom")


class TestIntegerize:
    def test_hand_trace(self):
        assert list(integerize([2.5, 2.5, 2.5, 2.5])) == [2, 3, 2, 3]

    def test_integers_pass_through(self):
        assert list(integerize([3.0, 3.0])) == [3, 3]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            integerize([1.0, -0.5])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=25,
        )
    )
    def test_prefix_sums_stay_within_one(self, rates):
        counts = integerize(rates)
        run_rate, run_count = 0.0, 0
        for rate, count in zip(rates, counts):
            run_rate += rate
            run_count += count
            assert abs(run_count - run_rate) < 1.0 + 1e-9


class TestSchedule:
    def test_counts_capped_by_horizon(self):
        counts = exploration_counts(ScheduleMode.CONSTANT, 100, 12)
        assert np.all(counts <= 100)
        assert np.all(counts >= 0)

    def test_prefix_tracking(self):
        counts = exploration_counts(ScheduleMode.DECREASING, 83, 40)
        rates = schedule_rates(83, 40, ScheduleMode.DECREASING)
        gaps = np.abs(np.cumsum(counts) - np.cumsum(rates))
        assert gaps.max() < 1.0


def small_env(seed=0, n_tasks=8, noise=0.1, grid_points=60):
    spec = SyntheticSpec(p=8, support_size=2, norm_bound=6.0, beta_min=0.5, noise=noise)
    return SyntheticEnvironment(spec, n_tasks=n_tasks, master_seed=seed, grid_points=grid_points)


class TestRunLifelong:
    def test_single_task_matches_manual_loop(self):
        env = small_env(seed=3, n_tasks=1)
        n = 30
        record = run_lifelong(env, m=1, n=n, omega=0.25, lam=0.1, seed=11)
        ne = int(exploration_counts(ScheduleMode.DECREASING, n, 1)[0])
        agent = GpUcb(env.atlas, tuple(range(1, env.atlas.p + 1)), UcbConfig())
        view = env.task_view(1)
        rng = substream(11, STREAM_EXPLORE, 1)
        actions = []
        for i in range(n):
            idx = int(rng.integers(env.grid_size)) if i < ne else agent.select(env.grid)
            agent.observe(idx, view.observe(idx), env.grid)
            actions.append(idx)
        assert record.tasks[0].explore_count == ne
        assert list(record.tasks[0].actions) == actions
        assert record.tasks[0].kernel == tuple(range(1, env.atlas.p + 1))

    def test_huge_omega_never_narrows_kernel(self):
        env = small_env(seed=4, n_tasks=4)
        record = run_lifelong(env, m=4, n=16, omega=1e9, lam=0.1, seed=0)
        full = tuple(range(1, env.atlas.p + 1))
        assert all(t.kernel == full for t in record.tasks)
        assert record.final_kernel == full
        kinds = {kind for _, kind in record.events}
        assert kinds <= {"fallback", "solver"} and "fallback" in kinds

    def test_exploration_prefix_flags(self):
        env = small_env(seed=5, n_tasks=5)
        record = run_lifelong(env, m=5, n=25, omega=0.25, lam=0.1, seed=2)
        for t in record.tasks:
            assert t.explored[: t.explore_count].all()
            assert not t.explored[t.explore_count :].any()

    def test_exploration_draws_look_uniform(self):
        spec = SyntheticSpec(p=4, support_size=1, norm_bound=5.0, beta_min=0.5)
        pulls = []
        for seed in (0, 1):
            env = SyntheticEnvironment(spec, n_tasks=25, master_seed=seed, grid_points=30)
            record = run_lifelong(
                env, m=25, n=36, omega=0.25, lam=0.1,
                schedule_mode=ScheduleMode.CONSTANT, seed=seed,
            )
            for t in record.tasks:
                pulls.extend(t.actions[t.explored])
        counts = np.bincount(pulls, minlength=30)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_handoff_causality(self):
        env_a = small_env(seed=6, n_tasks=3)
        env_b = small_env(seed=6, n_tasks=3)
        full = run_lifelong(env_a, m=3, n=20, omega=0.25, lam=0.1, seed=1)
        short = run_lifelong(env_b, m=2, n=20, omega=0.25, lam=0.1, seed=1)
        for a, b in zip(full.tasks[:2], short.tasks):
            assert a.kernel == b.kernel
            assert np.array_equal(a.actions, b.actions)
            assert np.array_equal(a.rewards, b.rewards)

    def test_determinism(self):
        a = run_lifelong(small_env(seed=7), m=4, n=18, omega=0.25, lam=0.1, seed=9)
        b = run_lifelong(small_env(seed=7), m=4, n=18, omega=0.25, lam=0.1, seed=9)
        assert a.final_kernel == b.final_kernel
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.actions, tb.actions)
            assert np.array_equal(ta.rewards, tb.rewards)

    def test_recovers_support_and_sticks(self):
        env = small_env(seed=8, n_tasks=8, noise=0.05)
        record = run_lifelong(env, m=8, n=60, omega=0.25, lam=0.1, seed=3)
        assert record.final_kernel == env.support
        # the kernel each update produced: task s+1 ran under it, the last is final
        after = [t.kernel for t in record.tasks[1:]] + [record.final_kernel]
        hit = [s for s, kernel in enumerate(after, start=1) if kernel == env.support]
        assert hit and all(kernel == env.support for kernel in after[hit[0] - 1 :])
        assert record.tasks[-1].recovered is True

    def test_info_gain_within_slack(self):
        record = run_lifelong(small_env(seed=9), m=3, n=24, omega=0.25, lam=0.1, seed=4)
        assert record.max_gain_slack <= 1e-9

    def test_regrets_nonnegative_and_lengths(self):
        record = run_lifelong(small_env(seed=10), m=3, n=17, omega=0.25, lam=0.1, seed=5)
        for t in record.tasks:
            assert len(t.actions) == len(t.rewards) == len(t.regrets) == 17
            assert np.all(t.regrets >= 0)
        assert len(record.cumulative_regret()) == 3 * 17

    def test_inv_sqrt_policy_runs(self):
        record = run_lifelong(
            small_env(seed=11), m=3, n=16, omega=0.25, lam=0.3,
            lam_policy="inv_sqrt", seed=6,
        )
        assert len(record.tasks) == 3

    def test_all_data_policy_runs(self):
        record = run_lifelong(
            small_env(seed=12), m=3, n=16, omega=0.25, lam=0.1,
            meta_data="all", seed=7,
        )
        assert len(record.tasks) == 3

    def test_bad_config_rejected(self):
        env = small_env()
        with pytest.raises(ConfigError):
            run_lifelong(env, m=2, n=10, omega=0.25, lam=0.1, lam_policy="linear")
        with pytest.raises(ConfigError):
            run_lifelong(env, m=2, n=10, omega=0.25, lam=0.1, meta_data="half")
        with pytest.raises(ConfigError):
            run_lifelong(env, m=env.m + 1, n=10, omega=0.25, lam=0.1)


class TestBaseline:
    def test_oracle_kernel_is_pinned(self):
        env = small_env(seed=13)
        record = run_baseline(env, "oracle", m=3, n=15, seed=1)
        assert all(t.kernel == env.support for t in record.tasks)
        assert all(t.explore_count == 0 for t in record.tasks)
        assert all(not t.explored.any() for t in record.tasks)
        assert all(t.recovered is True for t in record.tasks)

    def test_constant_reward_gives_zero_regret(self):
        env = small_env(seed=14, noise=0.0)
        env.values[:] = 3.0
        record = run_baseline(env, "oracle", m=2, n=10, seed=0)
        assert record.final_regret == 0.0

    def test_oracle_beats_full_on_average(self):
        diffs = []
        for seed in range(5):
            env = small_env(seed=seed, n_tasks=4)
            oracle = run_baseline(env, "oracle", m=4, n=40, seed=seed)
            naive = run_baseline(env, "full", m=4, n=40, seed=seed)
            diffs.append(naive.final_regret - oracle.final_regret)
        assert np.mean(diffs) > 0

    def test_determinism(self):
        a = run_baseline(small_env(seed=15), "full", m=2, n=12, seed=2)
        b = run_baseline(small_env(seed=15), "full", m=2, n=12, seed=2)
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.actions, tb.actions)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError):
            run_baseline(small_env(), "truth", m=2, n=10)


def pinned_run(env, kernel, m, n, mode, *, seed, alone):
    """Records of m tasks under one pinned kernel, as one group or each alone.

    An ``after_task`` hook makes the loop run every task before it plans the
    next, so each task's agent runs in a group of its own.
    """
    record = LifelongRunRecord(seed=seed)
    after_task = (lambda task: None) if alone else None
    _run_tasks(
        env, m, n, mode, record, lambda plans: [kernel] * len(plans),
        seed=seed, after_task=after_task,
    )
    return record


class TestLockstep:
    """Tasks that share a kernel step together; each runs as it would alone.

    The kernels here hold an odd frequency, so no grid point ties with its
    mirror image (see the gp_ucb module docstring) and rounding cannot swap
    a choice.
    """

    M, N = 20, 60

    @pytest.fixture(scope="class")
    def env(self):
        env = SyntheticEnvironment(SyntheticSpec(), n_tasks=self.M, master_seed=5)
        assert any(j % 2 for j in env.support)
        return env

    def kernels(self, env, source):
        if source == "pinned":
            return [env.support, tuple(range(1, env.p + 1))]
        if source == "lifelong":
            record = run_lifelong(env, self.M, self.N, 0.25, 0.5, lam_policy="inv_sqrt", seed=5)
        else:
            record = run_federated(env, self.M, self.N, 0.25, 0.2, 0.25, seed=5)
        return sorted({task.kernel for task in record.tasks})

    @pytest.mark.parametrize("source", ["pinned", "lifelong", "federated"])
    def test_group_records_match_tasks_run_alone(self, env, source):
        kernels = self.kernels(env, source)
        assert len(kernels) >= 2 and all(any(j % 2 for j in k) for k in kernels)
        for kernel in kernels:
            for mode in (None, ScheduleMode.DECREASING):
                group = pinned_run(env, kernel, self.M, self.N, mode, seed=5, alone=False)
                alone = pinned_run(env, kernel, self.M, self.N, mode, seed=5, alone=True)
                for a, b in zip(group.tasks, alone.tasks, strict=True):
                    for name in ("task", "kernel", "explore_count"):
                        assert getattr(a, name) == getattr(b, name), name
                    for name in ("actions", "rewards", "regrets", "explored"):
                        assert np.array_equal(getattr(a, name), getattr(b, name)), name
                # the gains agree up to the rounding of the stacked products
                assert group.max_gain_slack == pytest.approx(alone.max_gain_slack, abs=1e-12)

    def test_group_slack_is_the_worst_task_alone(self, env):
        kernel = env.support
        group = pinned_run(env, kernel, 4, 30, None, seed=2, alone=False)
        slacks = [pinned_run(env, kernel, s, 30, None, seed=2, alone=True).max_gain_slack
                  for s in range(1, 5)]
        # a run of s tasks alone holds the worst slack of its first s tasks
        assert slacks == sorted(slacks)
        assert group.max_gain_slack == pytest.approx(slacks[-1], abs=1e-12)

    def test_info_gain_check_raises_inside_a_group(self, env, monkeypatch):
        def not_constructed(*args):
            raise AssertionError("a task loop must not construct a GpUcb")

        init = LockstepUcb.__init__

        def capped(self, *args):
            init(self, *args)
            self.cap_weight[:] = 0.0  # a cap of 0

        monkeypatch.setattr(GpUcb, "__init__", not_constructed)
        monkeypatch.setattr(LockstepUcb, "__init__", capped)
        with pytest.raises(RuntimeError, match="exceeds its cap"):
            run_baseline(env, "oracle", m=3, n=10, seed=0)


class TestMirrorSymmetricRun:
    """At seed 23 the true support is all even, so the rewards and, under
    the oracle and most learned kernels, the posteriors are mirror
    symmetric: many UCB steps tie between a grid point and its mirror
    image, and the tie rule, not rounding, must decide them."""

    SEED, M, N = 23, 20, 100

    @pytest.fixture(scope="class")
    def env(self):
        env = SyntheticEnvironment(SyntheticSpec(), n_tasks=self.M, master_seed=self.SEED)
        assert all(j % 2 == 0 for j in env.support)
        return env

    @pytest.mark.parametrize("runner", ["lifelong", "oracle"])
    def test_grouped_tasks_match_manual_loops(self, env, runner):
        if runner == "lifelong":
            record = run_lifelong(env, self.M, self.N, 0.25, 0.5, lam_policy="inv_sqrt",
                                  seed=self.SEED)
        else:
            record = run_baseline(env, "oracle", self.M, self.N, seed=self.SEED)
        assert len({task.kernel for task in record.tasks}) < self.M
        for task in record.tasks:
            agent = GpUcb(env.atlas, task.kernel, UcbConfig())
            view = env.task_view(task.task)
            rng = substream(self.SEED, STREAM_EXPLORE, task.task)
            actions, rewards = [], []
            for i in range(self.N):
                if i < task.explore_count:
                    idx = int(rng.integers(env.grid_size))
                else:
                    idx = agent.select(env.grid)
                rewards.append(view.observe(idx))
                agent.observe(idx, rewards[-1], env.grid)
                actions.append(idx)
            assert task.actions.tolist() == actions, task.task
            assert task.rewards.tolist() == rewards, task.task


class TestTheoryLambda:
    def test_hand_value_on_orthogonal_design(self):
        # single task, identity features: (m/N) Phi^T Phi = 0.5 I, so the
        # certified kappa^2 at s_star=1 is 0.5 with no off-diagonal slack
        design = PooledDesign([np.eye(2)], [np.zeros(2)])
        lam = theory_lambda(0.3, 0.2, design, 4, support_size=1, beta_min=0.5)
        assert lam == pytest.approx(0.2 * 0.5 / (8.0 * 2.0), abs=1e-15)

    def test_uncertified_kappa_falls_back_to_constant(self):
        # one row with equal entries: off-diagonal mass kills the radicand
        design = PooledDesign([np.ones((1, 2))], [np.ones(1)])
        assert theory_lambda(0.3, 0.2, design, 2, support_size=1, beta_min=0.5) == 0.3

    def test_nonpositive_omega_bar_falls_back(self):
        design = PooledDesign([np.eye(2)], [np.zeros(2)])
        assert theory_lambda(0.3, 0.25, design, 2, support_size=1, beta_min=0.2) == 0.3

    def test_unknown_block_floor_uses_omega_alone(self):
        design = PooledDesign([np.eye(2)], [np.zeros(2)])
        lam = theory_lambda(0.3, 0.2, design, 1, support_size=1)
        assert lam == pytest.approx(0.2 * 0.5 / 8.0, abs=1e-15)

    def test_run_lifelong_accepts_theory_policy(self):
        a = run_lifelong(small_env(seed=4), 4, 20, 0.25, 0.5, lam_policy="theory", seed=4)
        b = run_lifelong(small_env(seed=4), 4, 20, 0.25, 0.5, lam_policy="theory", seed=4)
        assert len(a.tasks) == 4
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.actions, tb.actions)

    @pytest.mark.parametrize("meta_data", ["exploration", "all"])
    def test_unknown_support_is_sized_by_the_kernel_in_use(self, meta_data, monkeypatch):
        # with no true support the fit after task s assumes the support of
        # the kernel task s ran under: the full one, then the learned ones
        sizes = []

        def spy(lam0, omega, design, s, *, support_size, beta_min=None):
            sizes.append(support_size)
            return lam0

        monkeypatch.setattr(lifelong, "theory_lambda", spy)
        env = small_env(seed=4)
        env.support = None
        record = run_lifelong(env, 4, 30, 0.25, 0.5, lam_policy="theory",
                              meta_data=meta_data, seed=4)
        assert sizes == [len(task.kernel) for task in record.tasks]
        assert sizes[0] == env.p and len(set(sizes)) > 1


def test_runtime_does_not_import_scipy():
    # scipy is a test-only dependency: importing the package and running a
    # lifelong task loop must leave it unloaded
    code = (
        "import sys\n"
        "from lifelong_bandits import run_lifelong\n"
        "from lifelong_bandits.environment import SyntheticEnvironment, SyntheticSpec\n"
        "spec = SyntheticSpec(p=6, support_size=2, norm_bound=5.0, beta_min=0.5)\n"
        "env = SyntheticEnvironment(spec, n_tasks=2, master_seed=0, grid_points=30)\n"
        "record = run_lifelong(env, m=2, n=8, omega=0.25, lam=0.1, seed=0)\n"
        "assert len(record.tasks) == 2\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(lifelong_bandits.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH", "")) if p)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
