"""Thresholding, kernel learning, recovery trials."""

from dataclasses import fields

import numpy as np
import pytest

from lifelong_bandits import selection
from lifelong_bandits.environment import SyntheticSpec
from lifelong_bandits.features import BasisFamily, FeatureAtlas
from lifelong_bandits.group_lasso import group_norms
from lifelong_bandits.harness import build_config
from lifelong_bandits.selection import (
    design_from_tasks,
    learn_kernel,
    recovery_sweep,
    recovery_trial,
    threshold_groups,
)


class TestThreshold:
    def test_zero_selects_nothing(self):
        assert threshold_groups(np.zeros(4), m=3, omega=0.1) == ()

    def test_strict_inequality_single_task(self):
        # threshold 0.5 * sqrt(1); the exact tie at 0.5 is excluded
        sel = threshold_groups(np.array([0.6, 0.4, 0.5]), m=1, omega=0.5)
        assert sel == (1,)

    def test_scaling_with_task_count(self):
        # omega*sqrt(4) = 0.5
        sel = threshold_groups(np.array([0.6, 0.4]), m=4, omega=0.25)
        assert sel == (1,)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            threshold_groups(np.ones(2), m=0, omega=0.1)
        with pytest.raises(ValueError):
            threshold_groups(np.ones(2), m=1, omega=-0.1)


class TestLearnKernel:
    def test_noiseless_single_group(self):
        # rewards generated from group 1 only; the fit should find exactly it
        atlas = FeatureAtlas(BasisFamily.COSINE_1D, p=6)
        rng = np.random.default_rng(42)
        m, n = 5, 20
        tasks = []
        for _ in range(m):
            X = rng.uniform(0, 1, size=n)
            y = 1.0 * np.cos(np.pi * X)
            tasks.append((X, y))
        design = design_from_tasks(atlas, tasks)
        true_norm = np.sqrt(m) * 1.0
        sel = learn_kernel(design, omega=0.5 * true_norm / np.sqrt(m), lam=1e-3)
        assert sel.selected == (1,)
        assert not sel.fallback

    def test_all_zero_rewards_falls_back_to_full(self):
        atlas = FeatureAtlas(BasisFamily.COSINE_1D, p=4)
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=10)
        design = design_from_tasks(atlas, [(X, np.zeros(10))])
        sel = learn_kernel(design, omega=0.3, lam=0.5)
        assert sel.fallback
        assert sel.selected == (1, 2, 3, 4)
        assert np.all(group_norms(sel.coeffs) == 0.0)


class TestRecoveryTrial:
    def test_hopelessly_underdetermined(self):
        spec = SyntheticSpec()
        result = recovery_trial(spec, m=1, n=1, omega=0.25, lam=0.25, seed=0)
        assert not result.exact

    def test_noiseless_recovery(self):
        spec = SyntheticSpec(noise=0.0)
        result = recovery_trial(spec, m=10, n=50, omega=0.25, lam=0.05, seed=7)
        assert result.exact
        assert result.selected == result.truth

    def test_superset_of_the_support_is_not_exact(self):
        # "exact" recovery means the selected groups equal the true ones: a
        # fit that keeps every true group plus two more did not recover it
        result = recovery_trial(SyntheticSpec(), 10, 10, 0.05, 0.25, 0)
        assert not result.fallback
        assert set(result.selected) > set(result.truth) == {16, 25, 28, 42, 48}
        assert len(result.selected) == 7
        assert not result.exact

    def test_reproducible(self):
        spec = SyntheticSpec()
        a = recovery_trial(spec, m=4, n=10, omega=0.25, lam=0.25, seed=3)
        b = recovery_trial(spec, m=4, n=10, omega=0.25, lam=0.25, seed=3)
        assert a.selected == b.selected
        assert a.truth == b.truth


class TestRecoverySweep:
    @pytest.mark.parametrize("m_values", [(1, 2, 5), (5, 1, 3, 1), (4, 4)])
    def test_matches_independent_trials(self, m_values, monkeypatch):
        # one draw of max(m_values) tasks, nested prefixes, config order; the
        # fit at m starts from the last one when that had fewer than m tasks,
        # so it meets the cold trial's optimum to the solver's tolerance
        scales, warm = [], []

        def spy(design, *args, **kwargs):
            scales.append(max(1.0, design.y_sq / design.total_rows))
            warm.append(kwargs["x0"] is not None)
            return learn_kernel(design, *args, **kwargs)

        spec = SyntheticSpec(p=12, support_size=3, norm_bound=5.0)
        monkeypatch.setattr(selection, "learn_kernel", spy)
        sweep = recovery_sweep(spec, m_values, 6, 0.25, 0.2, seed=5)
        monkeypatch.undo()
        assert len(sweep) == len(m_values) == len(scales)
        assert warm == [i > 0 and m_values[i - 1] < m for i, m in enumerate(m_values)]
        for m, got, scale in zip(m_values, sweep, scales):
            want = recovery_trial(spec, m, 6, 0.25, 0.2, seed=5)
            assert (got.selected, got.truth) == (want.selected, want.truth)
            assert (got.exact, got.fallback) == (want.exact, want.fallback)
            assert got.report.method == want.report.method
            assert got.report.converged
            assert abs(got.report.objective - want.report.objective) <= 1e-9 * scale

    def test_warm_fits_that_keep_their_start_support_try_newton_at_once(self):
        # at seed 0 of the default offline sweep, the first prox step of each
        # of these warm fits keeps the support of its start, so the fit tries
        # Newton at its first iteration, and that one attempt finishes it
        config = build_config("offline")
        spec = SyntheticSpec(*(getattr(config, f.name) for f in fields(SyntheticSpec)))
        args = (config.m_values, config.n, config.omega, config.lam)
        sweep = recovery_sweep(spec, *args, seed=0)
        for m in (10, 15, 20, 25, 30):
            report = sweep[config.m_values.index(m)].report
            assert report.iterations - report.newton_steps == 1
            assert report.newton_attempts == 1
            assert report.method == "newton"

    def test_rejects_bad_args(self):
        spec = SyntheticSpec()
        with pytest.raises(ValueError):
            recovery_sweep(spec, (), 10, 0.25, 0.25, seed=0)
        with pytest.raises(ValueError):
            recovery_sweep(spec, (3, 0), 10, 0.25, 0.25, seed=0)
        with pytest.raises(ValueError):
            recovery_sweep(spec, (3,), 0, 0.25, 0.25, seed=0)
