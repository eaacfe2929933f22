"""Forced-exploration counts and the sequential task runners."""

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
from lifelong_bandits import selection
from lifelong_bandits.environment import SyntheticEnvironment, SyntheticSpec
from lifelong_bandits.errors import ConfigError
from lifelong_bandits.federated import run_federated
from lifelong_bandits.gp_ucb import GpUcb, LockstepUcb, UcbConfig
from lifelong_bandits.lifelong import (
    LifelongRunRecord,
    _plan,
    _run_agents,
    integerize,
    run_baseline,
    run_lifelong,
)
from lifelong_bandits.seeding import STREAM_EXPLORE, substream
from oracles import carried_residue


def small_env(seed=0, n_tasks=8, noise=0.1, grid_points=60):
    spec = SyntheticSpec(p=8, support_size=2, norm_bound=6.0, beta_min=0.5, noise=noise)
    return SyntheticEnvironment(spec, n_tasks=n_tasks, master_seed=seed, grid_points=grid_points)


RUNNERS = ("lifelong", "federated", "oracle", "full")


def run(runner, m, n, *, env=None, seed=0):
    """One run of a runner by name on m tasks of horizon n."""
    env = small_env(seed=seed, n_tasks=m) if env is None else env
    if runner == "lifelong":
        return run_lifelong(env, m, n, 0.25, 0.1, seed=seed)
    if runner == "federated":
        return run_federated(env, m, n, 0.25, 0.1, 0.5, seed=seed)
    return run_baseline(env, runner, m, n, seed=seed)


def explore_counts(runner, m, n) -> list[int]:
    return [task.explore_count for task in run(runner, m, n).tasks]


def libo_rates(m, n) -> np.ndarray:
    """The paper's decreasing schedule: sqrt(n) / s^(1/4) for task s."""
    return np.sqrt(n) / np.arange(1, m + 1) ** 0.25


def paper_counts(runner, m, n) -> list[int]:
    """Forced draws per task as the paper prescribes them: the decreasing
    schedule for LiBO, a constant sqrt(n) for F-LiBO, none for the
    baselines, integerized and capped at n."""
    rates = {"lifelong": libo_rates(m, n), "federated": np.full(m, np.sqrt(n))}
    return np.minimum(integerize(rates.get(runner, np.zeros(m))), n).tolist()


class TestRates:
    """Each runner's per-task forced draws against the paper's rates."""

    def test_decreasing_first_task(self):
        assert explore_counts("lifelong", 1, 100) == [10]

    def test_decreasing_sixteenth_task(self):
        # task 16's rate is sqrt(100) / 16^(1/4) = 5, plus the carried residue
        counts = explore_counts("lifelong", 16, 100)
        assert counts == paper_counts("lifelong", 16, 100)
        assert counts[15] in (5, 6)

    def test_constant(self):
        assert explore_counts("federated", 7, 100) == [10] * 7
        assert explore_counts("federated", 7, 50) == paper_counts("federated", 7, 50)
        for runner in ("oracle", "full"):
            assert explore_counts(runner, 7, 50) == [0] * 7

    def test_decreasing_is_nonincreasing(self):
        # nonincreasing up to the carry: a later task draws at most one more
        counts = explore_counts("lifelong", 30, 47)
        assert counts == paper_counts("lifelong", 30, 47)
        assert all(later <= counts[i] + 1 for i in range(30) for later in counts[i + 1 :])
        assert counts[-1] < counts[0]

    def test_bad_inputs(self):
        for runner in RUNNERS:
            env = small_env(n_tasks=3)
            for m, n in ((2, 0), (0, 5)):
                with pytest.raises(ValueError, match="need n >= 1 and m >= 1"):
                    run(runner, m, n, env=env)
            with pytest.raises(ConfigError, match="too few tasks"):
                run(runner, 4, 5, env=env)


class TestIntegerize:
    def test_hand_trace(self):
        assert list(integerize([2.5, 2.5, 2.5, 2.5])) == [2, 3, 2, 3]

    def test_integers_pass_through(self):
        assert list(integerize([3.0, 3.0])) == [3, 3]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            integerize([1.0, -0.5])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=40))
    def test_prefix_sums_are_the_floors_of_the_rates(self, rates):
        counts = integerize(rates)
        assert counts.dtype.kind == "i" and np.all(counts >= 0)
        assert np.array_equal(np.cumsum(counts), np.floor(np.cumsum(rates)))

    def test_matches_the_carried_residue_loop_on_the_runners_schedules(self):
        # the floors of the prefix sums equal the carried residue in exact
        # arithmetic; on the rates the runners use, the rounding agrees too
        for n in range(1, 401):
            for rates in (math.sqrt(n) / np.arange(1, 101) ** 0.25, np.full(100, math.sqrt(n))):
                assert integerize(rates).tolist() == carried_residue(rates)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=50.0), max_size=10),
        st.one_of(st.floats(max_value=-1e-300), st.sampled_from([math.nan, math.inf])),
        st.integers(min_value=0, max_value=10),
    )
    def test_rejects_nan_inf_and_negative_rates(self, rates, bad, at):
        rates.insert(at, bad)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            integerize(rates)

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
        for runner in RUNNERS:
            for n in (1, 2, 3):
                counts = explore_counts(runner, 6, n)
                assert counts == paper_counts(runner, 6, n)
                assert all(0 <= count <= n for count in counts)

    def test_prefix_tracking(self):
        for runner, rates in (
            ("lifelong", libo_rates(40, 83)),
            ("federated", np.full(40, np.sqrt(83))),
        ):
            counts = explore_counts(runner, 40, 83)
            gaps = np.abs(np.cumsum(counts) - np.cumsum(rates))
            assert gaps.max() < 1.0


class TestRunLifelong:
    def test_single_task_matches_manual_loop(self):
        env = small_env(seed=3, n_tasks=1)
        n = 30
        record = run_lifelong(env, m=1, n=n, omega=0.25, lam=0.1, seed=11)
        ne = int(integerize([math.sqrt(n)])[0])
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
        assert kinds == {"fallback"}

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
            record = run_lifelong(env, m=25, n=36, omega=0.25, lam=0.1, seed=seed)
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

    def test_inv_sqrt_policy_runs(self, monkeypatch):
        # the fit after task s runs at penalty lam / sqrt(s)
        penalties = []
        learn_kernel = selection.learn_kernel

        def recording(design, omega, lam, **kwargs):
            penalties.append(lam)
            return learn_kernel(design, omega, lam, **kwargs)

        monkeypatch.setattr(selection, "learn_kernel", recording)
        record = run_lifelong(small_env(seed=11), m=3, n=16, omega=0.25, lam=0.3, seed=6)
        assert len(record.tasks) == 3
        assert penalties == [0.3 / math.sqrt(s) for s in (1, 2, 3)]

    def test_every_fit_reads_a_prefix_of_one_design(self, monkeypatch):
        # the fit after task s reads the first s tasks of one design, so the
        # pool holds each task's forced rows once
        stacks = []
        learn_kernel = selection.learn_kernel

        def recording(design, *args, **kwargs):
            stacks.append(design.F)
            return learn_kernel(design, *args, **kwargs)

        monkeypatch.setattr(selection, "learn_kernel", recording)
        run_lifelong(small_env(seed=12), m=4, n=16, omega=0.25, lam=0.1, seed=7)
        assert [len(F) for F in stacks] == [1, 2, 3, 4]
        assert all(np.shares_memory(F, stacks[0]) for F in stacks[1:])

    def test_too_many_tasks_rejected(self):
        env = small_env()
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

    @pytest.mark.parametrize("kernel", ["oracle", "full"])
    def test_pinned_kernel_fits_nothing(self, kernel):
        record = run_baseline(small_env(seed=13), kernel, m=3, n=15, seed=1)
        assert record.reports == [] and record.events == []

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

    def test_empty_horizon_rejected(self):
        # this used to return two empty tasks, whose final regret then
        # raised IndexError
        with pytest.raises(ValueError, match="need n >= 1 and m >= 1"):
            run_baseline(small_env(), "oracle", m=2, n=0)


def pinned_run(env, kernel, rates, n, *, seed, alone):
    """Records of one task per entry of ``rates`` under one pinned kernel,
    as one group or each alone.

    Alone, each planned task's agent runs in an agent pass of its own.
    """
    record = LifelongRunRecord(seed=seed)
    plans = _plan(env, n, rates, seed)
    if not alone:
        record.tasks = _run_agents(env, n, plans, [kernel] * len(plans), UcbConfig(), record)
        return record
    for plan in plans:
        record.tasks += _run_agents(env, n, [plan], [kernel], UcbConfig(), record)
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
            record = run_lifelong(env, self.M, self.N, 0.25, 0.5, seed=5)
        else:
            record = run_federated(env, self.M, self.N, 0.25, 0.2, 0.25, seed=5)
        return sorted({task.kernel for task in record.tasks})

    @pytest.mark.parametrize("source", ["pinned", "lifelong", "federated"])
    def test_group_records_match_tasks_run_alone(self, env, source):
        kernels = self.kernels(env, source)
        assert len(kernels) >= 2 and all(any(j % 2 for j in k) for k in kernels)
        for kernel in kernels:
            for rates in (np.zeros(self.M), libo_rates(self.M, self.N)):
                group = pinned_run(env, kernel, rates, self.N, seed=5, alone=False)
                alone = pinned_run(env, kernel, rates, self.N, seed=5, alone=True)
                for a, b in zip(group.tasks, alone.tasks, strict=True):
                    for name in ("task", "kernel", "explore_count"):
                        assert getattr(a, name) == getattr(b, name), name
                    for name in ("actions", "rewards", "regrets", "explored"):
                        assert np.array_equal(getattr(a, name), getattr(b, name)), name
                # the gains agree up to the rounding of the stacked products
                assert group.max_gain_slack == pytest.approx(alone.max_gain_slack, abs=1e-12)

    def test_group_slack_is_the_worst_task_alone(self, env):
        kernel = env.support
        group = pinned_run(env, kernel, np.zeros(4), 30, seed=2, alone=False)
        slacks = [pinned_run(env, kernel, np.zeros(s), 30, seed=2, alone=True).max_gain_slack
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
            record = run_lifelong(env, self.M, self.N, 0.25, 0.5, seed=self.SEED)
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
