"""Thresholding, kernel learning, diagnostics, recovery trials."""

import numpy as np
import pytest

from lifelong_bandits.environment import SyntheticSpec
from lifelong_bandits.features import BasisFamily, FeatureAtlas
from lifelong_bandits.group_lasso import PooledDesign
from lifelong_bandits.selection import (
    design_diagnostics,
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
        assert sel.estimate.selected == (1,)
        assert not sel.fallback

    def test_all_zero_rewards_falls_back_to_full(self):
        atlas = FeatureAtlas(BasisFamily.COSINE_1D, p=4)
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=10)
        design = design_from_tasks(atlas, [(X, np.zeros(10))])
        sel = learn_kernel(design, omega=0.3, lam=0.5)
        assert sel.fallback
        assert sel.estimate.selected == (1, 2, 3, 4)
        assert np.all(sel.group_norms == 0.0)


class TestDiagnostics:
    def test_orthonormal_scaled_design(self):
        # single task, (m/N) Phi^T Phi = I
        phi = np.sqrt(2.0) * np.eye(2)
        design = PooledDesign([phi], [np.zeros(2)])
        diag = design_diagnostics(design, s_star=1)
        assert diag.c_diag == pytest.approx(1.0)
        assert diag.c_offdiag == pytest.approx(0.0)
        assert diag.kappa_lower == pytest.approx(1.0)

    def test_mild_correlation(self):
        target = np.array([[1.0, 0.1], [0.1, 1.0]])
        phi = np.linalg.cholesky(2.0 * target).T
        design = PooledDesign([phi], [np.zeros(2)])
        diag = design_diagnostics(design, s_star=1)
        assert diag.c_diag == pytest.approx(1.0, abs=1e-12)
        assert diag.c_offdiag == pytest.approx(0.1, abs=1e-12)
        assert diag.kappa_lower == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_strong_correlation_undefined(self):
        target = np.array([[1.0, 0.3], [0.3, 1.0]])
        phi = np.linalg.cholesky(2.0 * target).T
        design = PooledDesign([phi], [np.zeros(2)])
        diag = design_diagnostics(design, s_star=1)
        assert diag.kappa_lower is None


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

    def test_reproducible(self):
        spec = SyntheticSpec()
        a = recovery_trial(spec, m=4, n=10, omega=0.25, lam=0.25, seed=3)
        b = recovery_trial(spec, m=4, n=10, omega=0.25, lam=0.25, seed=3)
        assert a.selected == b.selected
        assert a.truth == b.truth


class TestRecoverySweep:
    @pytest.mark.parametrize("m_values", [(1, 2, 5), (5, 1, 3, 1), (4, 4)])
    def test_matches_independent_trials(self, m_values):
        # one draw of max(m_values) tasks, nested prefixes, config order
        spec = SyntheticSpec(p=12, support_size=3, norm_bound=5.0)
        sweep = recovery_sweep(spec, m_values, 6, 0.25, 0.2, seed=5)
        assert len(sweep) == len(m_values)
        for m, got in zip(m_values, sweep):
            want = recovery_trial(spec, m, 6, 0.25, 0.2, seed=5)
            assert (got.selected, got.truth) == (want.selected, want.truth)
            assert (got.exact, got.fallback) == (want.exact, want.fallback)
            assert got.report.method == want.report.method
            assert got.report.iterations == want.report.iterations
            assert got.report.objective == want.report.objective
            assert np.array_equal(got.report.objective_history, want.report.objective_history)

    def test_rejects_bad_args(self):
        spec = SyntheticSpec()
        with pytest.raises(ValueError):
            recovery_sweep(spec, (), 10, 0.25, 0.25, seed=0)
        with pytest.raises(ValueError):
            recovery_sweep(spec, (3, 0), 10, 0.25, 0.25, seed=0)
        with pytest.raises(ValueError):
            recovery_sweep(spec, (3,), 0, 0.25, 0.25, seed=0)


def test_diagnostics_read_the_cached_gram():
    # the per-task Gram comes from the design's record, computed once and
    # then shared with the fits, with the numbers of a direct computation
    rng = np.random.default_rng(4)
    blocks = list(rng.standard_normal((3, 5, 4)))
    design = PooledDesign(blocks, list(rng.standard_normal((3, 5))))
    assert not any("gram" in vars(block) for block in design.blocks)
    diag = design_diagnostics(design, s_star=2)
    assert all("gram" in vars(block) for block in design.blocks)
    grams = [(3 / 15) * (phi.T @ phi) for phi in blocks]
    assert diag.c_diag == min(float(np.diag(g).min()) for g in grams)
    assert diag.c_offdiag == max(float(np.abs(g - np.diag(np.diag(g))).max()) for g in grams)
