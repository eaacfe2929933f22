"""Synthetic task generation, lookup tables, and the regret oracle."""

import numpy as np
import pytest

from lifelong_bandits.environment import (
    LookupEnvironment,
    LookupTable,
    SyntheticEnvironment,
    SyntheticSpec,
    TaskView,
    sample_coefficients,
    sample_support,
    uniform_grid,
)
from lifelong_bandits.errors import ConfigError, DataError
from lifelong_bandits.features import BasisFamily, FeatureAtlas
from lifelong_bandits.seeding import STREAM_NOISE, substream
from oracles import kernel_rows, rkhs_norm_sq


class TestSpec:
    def test_defaults_are_feasible(self):
        spec = SyntheticSpec()
        assert spec.p == 50
        assert spec.support_size == 5

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(p=4, support_size=4, norm_bound=1.0, beta_min=0.9)

    def test_support_size_bounds(self):
        with pytest.raises(ValueError):
            SyntheticSpec(p=4, support_size=5)

    @pytest.mark.parametrize("name", ["norm_bound", "beta_min", "noise"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_numbers_rejected(self, name, value):
        # a NaN noise used to run with no noise (NaN > 0 is False), and a
        # NaN or infinite bound failed late, in the coefficient sampler
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            SyntheticSpec(**{name: value})


class TestSampleSupport:
    def test_full_support(self):
        spec = SyntheticSpec(p=6, support_size=6, norm_bound=10.0)
        assert sample_support(spec, substream(0, 1)) == (1, 2, 3, 4, 5, 6)

    def test_replay(self):
        spec = SyntheticSpec()
        a = sample_support(spec, substream(5, 1))
        b = sample_support(spec, substream(5, 1))
        assert a == b

    def test_uniformity_two_choose_one(self):
        spec = SyntheticSpec(p=2, support_size=1, norm_bound=10.0)
        rng = np.random.default_rng(9)
        hits = sum(sample_support(spec, rng) == (1,) for _ in range(10_000))
        assert abs(hits / 10_000 - 0.5) < 0.02


class TestSampleCoefficients:
    def test_degenerate_interval_pins_norm(self):
        spec = SyntheticSpec(p=3, support_size=1, norm_bound=2.0, beta_min=2.0)
        beta = sample_coefficients(spec, (2,), substream(0, 2, 1))
        assert np.linalg.norm(beta[1:2]) == pytest.approx(2.0)
        assert beta[0] == 0.0 and beta[2] == 0.0

    def test_constraints_hold_on_every_draw(self):
        spec = SyntheticSpec()
        support = (3, 10, 20, 30, 44)
        hi = spec.norm_bound / np.sqrt(5)
        rng = np.random.default_rng(1)
        for _ in range(500):
            beta = sample_coefficients(spec, support, rng)
            norms = [abs(beta[j - 1]) for j in support]
            assert min(norms) >= spec.beta_min
            assert max(norms) <= hi + 1e-12
            assert np.linalg.norm(beta) <= spec.norm_bound + 1e-9
            off = np.delete(beta, [j - 1 for j in support])
            assert np.all(off == 0.0)


class TestRewards:
    def test_noiseless_is_deterministic(self):
        spec = SyntheticSpec(noise=0.0)
        env = SyntheticEnvironment(spec, n_tasks=2, master_seed=0)
        view1 = env.task_view(1)
        view2 = env.task_view(1)
        idx = 17
        assert view1.observe(idx) == view2.observe(idx) == env.values[idx, 0]

    def test_grid_values_match_feature_inner_product(self):
        spec = SyntheticSpec(noise=0.0)
        env = SyntheticEnvironment(spec, n_tasks=2, master_seed=4)
        for s in range(2):
            expected = env.atlas.concat_many(env.grid) @ env.coeffs[s]
            assert np.allclose(env.values[:, s], expected, atol=1e-12)

    def test_noise_variance(self):
        spec = SyntheticSpec()
        env = SyntheticEnvironment(spec, n_tasks=1, master_seed=3)
        view = env.task_view(1)
        idx = 5
        draws = np.array([view.observe(idx) for _ in range(100_000)])
        assert abs(draws.var(ddof=1) - spec.noise**2) < 0.05 * spec.noise**2

    def test_task_noise_streams_are_isolated(self):
        spec = SyntheticSpec()
        env = SyntheticEnvironment(spec, n_tasks=3, master_seed=8)
        first = [env.task_view(s).observe(0) for s in (1, 2, 3)]
        # replaying task 2 alone gives the same draw
        assert env.task_view(2).observe(0) == first[1]

    @pytest.mark.parametrize("noise", [0.1, 0.0])
    def test_noise_terms_match_sequential_observe(self, noise):
        env = SyntheticEnvironment(SyntheticSpec(noise=noise), n_tasks=2, master_seed=8)
        picks = [17, 3, 3, 499, 0, 250, 17]
        view = env.task_view(2)
        sequential = [view.observe(i) for i in picks]
        view = env.task_view(2)
        drawn = view.values[picks] + view.noise_terms(len(picks))
        assert drawn.tolist() == sequential

    def test_noise_free_terms_keep_signed_zeros(self):
        values = np.array([-0.0, 0.0, -2.5])
        rng = substream(0, 3, 1)
        observed = [TaskView(values, 0.0, rng).observe(i) for i in range(3)]
        drawn = values + TaskView(values, 0.0, rng).noise_terms(3)
        assert np.array_equal(np.signbit(drawn), np.signbit(observed))
        assert drawn.tolist() == observed


class TestGridTable:
    def test_seeds_share_one_read_only_table(self):
        spec = SyntheticSpec(p=7, support_size=2)
        a = SyntheticEnvironment(spec, n_tasks=1, master_seed=0, grid_points=33)
        b = SyntheticEnvironment(spec, n_tasks=2, master_seed=1, grid_points=33)
        assert a.grid is b.grid and a.grid_features is b.grid_features
        assert a.grid_features.tobytes() == a.atlas.concat_many(a.grid).tobytes()
        for table in (a.grid, a.grid_features):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.5
        finer = SyntheticEnvironment(spec, n_tasks=1, master_seed=0, grid_points=34)
        assert finer.grid_features is not a.grid_features
        assert finer.grid_features.shape == (34, 7)
        assert finer.grid_features.tobytes() == finer.atlas.concat_many(finer.grid).tobytes()


class TestOptimum:
    def test_single_cosine_peak_at_zero(self):
        atlas = FeatureAtlas(BasisFamily.COSINE_1D, p=3)
        grid = uniform_grid(atlas.domain, 101)
        values = atlas.concat_many(grid) @ np.array([2.0, 0.0, 0.0])
        view = TaskView(values, 0.0, np.random.default_rng(0))
        assert view.opt_value == pytest.approx(2.0)
        assert view.regret(int(np.flatnonzero(grid[:, 0] == 0.0)[0])) == pytest.approx(0.0)

    def test_dominates_grid(self):
        values = np.random.default_rng(3).normal(size=200)
        val = TaskView(values, 0.0, np.random.default_rng(0)).opt_value
        assert val in values and np.all(val >= values)

    def test_regret_nonnegative_on_grid(self):
        spec = SyntheticSpec()
        env = SyntheticEnvironment(spec, n_tasks=2, master_seed=12)
        view = env.task_view(2)
        regrets = [view.regret(i) for i in range(0, env.grid_size, 7)]
        assert min(regrets) >= 0.0


def test_rkhs_norm_matches_gram_quadratic_form():
    spec = SyntheticSpec()
    env = SyntheticEnvironment(spec, n_tasks=1, master_seed=21)
    beta = env.coeffs[0]
    direct = rkhs_norm_sq(beta, env.support)
    rng = np.random.default_rng(77)
    X = rng.uniform(0, 1, size=(30, 1))
    rows = kernel_rows(env.atlas, env.support, X)
    K = rows @ rows.T
    f_vals = env.atlas.concat_many(X) @ beta
    alpha, *_ = np.linalg.lstsq(K, f_vals, rcond=1e-12)
    gram_form = float(f_vals @ alpha)
    assert abs(gram_form - direct) < 1e-6


class TestLookupTable:
    def build(self):
        pts = np.array([[0.0], [0.5], [1.0]])
        vals = np.array([[1.0, 9.0], [2.0, 8.0], [3.0, 7.0]])
        return LookupTable(["x1"], ["taskA", "taskB"], pts, vals)

    def test_missing_task_rejected(self):
        env = LookupEnvironment(self.build(), master_seed=0, family=BasisFamily.COSINE_1D, p=3)
        with pytest.raises(IndexError):
            env.task_view(3)

    def test_round_trip(self, tmp_path):
        table = self.build()
        path = tmp_path / "table.csv"
        table.save(path)
        loaded = LookupTable.load(path)
        np.testing.assert_array_equal(loaded.points, table.points)
        np.testing.assert_array_equal(loaded.values, table.values)
        assert (loaded.axis_names, loaded.task_names) == (table.axis_names, table.task_names)

    def test_rejects_header_without_axes(self):
        with pytest.raises(DataError):
            LookupTable.from_text("a,b\n1,2\n")

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            LookupTable.from_text("x1,task\n")

    def test_rejects_ragged_rows(self):
        with pytest.raises(DataError):
            LookupTable.from_text("x1,task\n0.0,1.0\n0.5\n")

    # a digit separator, a comment row, a non-ASCII digit: float() takes the
    # first and third, the table's reader none of them
    @pytest.mark.parametrize("row", ["0.5,1_0", "#0.5,1.0", "0.5,\uff11"])
    def test_rejects_cell_the_reader_cannot_parse_naming_its_line(self, row):
        with pytest.raises(DataError, match="line 3"):
            LookupTable.from_text(f"x1,task\n0.0,1.0\n{row}\n1.0,2.0\n")

    def test_rejects_all_axis_header(self):
        with pytest.raises(DataError):
            LookupTable.from_text("x1,x2\n0.0,1.0\n")


class TestLookupEnvironment:
    def build_2d(self):
        grid = uniform_grid(np.array([[0.0, 4.0], [10.0, 20.0]]), 5)
        vals = np.stack([grid[:, 0] + grid[:, 1], grid[:, 0] - grid[:, 1]], axis=1)
        return LookupTable(["x1", "x2"], ["a", "b"], grid, vals)

    def test_normalizes_coordinates(self):
        table = self.build_2d()
        env = LookupEnvironment(table, master_seed=0, p=9)
        assert env.grid.min() == 0.0
        assert env.grid.max() == 1.0
        assert env.m == 2
        # the cosine domain is the unit box, so its grid is the plain rescaling
        np.testing.assert_array_equal(env.grid, table.normalized_points())

    def test_legendre_grid_spans_its_domain(self):
        x = np.linspace(3.0, 7.0, 9).reshape(-1, 1)
        table = LookupTable(["x1"], ["a"], x, x**2)
        env = LookupEnvironment(table, master_seed=0, family=BasisFamily.LEGENDRE_1D, p=4)
        assert env.grid.min() == -1.0
        assert env.grid.max() == 1.0
        np.testing.assert_allclose(env.grid[:, 0], np.linspace(-1.0, 1.0, 9), atol=1e-15)
        np.testing.assert_array_equal(env.grid_features, env.atlas.concat_many(env.grid))

    @pytest.mark.parametrize("noise", [np.nan, np.inf, -0.5])
    def test_noise_must_be_finite_and_nonnegative(self, noise):
        # a NaN noise used to run silently with no noise
        with pytest.raises(ValueError, match="finite and nonnegative"):
            LookupEnvironment(self.build_2d(), master_seed=0, p=9, noise=noise)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            LookupEnvironment(
                self.build_2d(), master_seed=0, family=BasisFamily.COSINE_1D, p=5
            )

    def test_task_views_use_table_values(self):
        table = self.build_2d()
        env = LookupEnvironment(table, master_seed=0, p=9)
        view = env.task_view(1)
        assert view.observe(3) == table.values[3, 0]
        assert view.opt_value == table.values[:, 0].max()


def synthetic_grid():
    """A synthetic environment of 3 tasks over 7 groups and 40 grid points,
    with its p, grid size and noise level."""
    spec = SyntheticSpec(p=7, support_size=2, noise=0.2)
    return SyntheticEnvironment(spec, n_tasks=3, master_seed=5, grid_points=40), 7, 40, 0.2


def lookup_grid():
    """A noisy lookup environment of 3 tasks over 9 groups and a 6 x 6 grid,
    with its p, grid size and noise level."""
    grid = uniform_grid(np.array([[0.0, 2.0], [1.0, 3.0]]), 6)
    values = np.stack([s * grid.sum(axis=1) for s in (1.0, -2.0, 3.0)], axis=1)
    table = LookupTable(["x1", "x2"], ["a", "b", "c"], grid, values)
    return LookupEnvironment(table, master_seed=5, p=9, noise=0.3), 9, 36, 0.3


@pytest.mark.parametrize("build", [synthetic_grid, lookup_grid], ids=["synthetic", "lookup"])
def test_task_grid_surface(build):
    # both environments read p, the grid size and task views the same way:
    # task s is column s - 1 of the values, and its noise the task's own
    # substream of the master seed
    env, p, grid_size, noise = build()
    assert env.p == p == env.grid_features.shape[1]
    assert env.grid_size == grid_size == env.grid_features.shape[0]
    for s in (0, -1, env.m + 1):
        with pytest.raises(IndexError, match=rf"task index {s} outside 1\.\.3"):
            env.task_view(s)
    for s in range(1, env.m + 1):
        view = env.task_view(s)
        np.testing.assert_array_equal(view.values, env.values[:, s - 1])
        want = noise * substream(5, STREAM_NOISE, s).standard_normal(4)
        assert view.noise_terms(4).tolist() == want.tolist()
