"""Pooled group lasso: objective, solver, and the KKT certificate.

The solver is checked two independent ways: a dense grid search over the
coefficient box for 1- and 2-dimensional instances, and the blockwise KKT
optimality certificate for everything else. Neither oracle shares code with
the iteration. The exact single-task path and the Newton finish of pooled
fits are also checked against the proximal-gradient iteration run to a tight
tolerance.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong_bandits import group_lasso
from lifelong_bandits.group_lasso import (
    GroupCoefficients,
    PooledDesign,
    _apg,
    _lasso_path,
    fit_group_lasso,
    kkt_residuals,
    pooled_loss,
)


def single_task_design(phi, y):
    phi = np.asarray(phi, dtype=float)
    return PooledDesign([phi], [y])


def grid_oracle_objective(design, lam, lo=-3.0, hi=3.0, step=2e-3):
    """Dense grid search over all m*d coefficients; only viable for m*d <= 2."""
    md = design.m * design.p
    axis = np.arange(lo, hi + step / 2, step)
    if md == 1:
        grids = axis.reshape(-1, 1)
    elif md == 2:
        a, b = np.meshgrid(axis, axis, indexing="ij")
        grids = np.stack([a.ravel(), b.ravel()], axis=1)
    else:
        raise ValueError("grid oracle only covers 1- and 2-dim problems")
    best = np.inf
    # evaluate in chunks to bound memory
    for chunk in np.array_split(grids, max(1, len(grids) // 500_000)):
        B = chunk.reshape(len(chunk), design.m, design.p)
        rss = np.zeros(len(chunk))
        for s in range(design.m):
            resid = B[:, s, :] @ design.features[s].T - design.rewards[s]
            rss += (resid**2).sum(axis=1)
        rss /= design.total_rows
        # group j gathers coordinate j across tasks
        penalty = np.sqrt((B**2).sum(axis=1)).sum(axis=1) * lam
        best = min(best, float((rss + penalty).min()))
    return best


class TestPooledLoss:
    def test_zero_coefficients(self):
        rng = np.random.default_rng(0)
        phi = rng.normal(size=(6, 3))
        y = rng.normal(size=6)
        design = single_task_design(phi, y)
        beta = GroupCoefficients.zeros(1, design.p)
        assert pooled_loss(design, beta, 0.7) == pytest.approx(float(y @ y) / 6)

    def test_least_squares_zeroes_residual(self):
        rng = np.random.default_rng(1)
        phi = rng.normal(size=(3, 3)) + np.eye(3) * 2
        beta_ls = rng.normal(size=3)
        design = single_task_design(phi, phi @ beta_ls)
        coeffs = GroupCoefficients(beta_ls.reshape(1, -1))
        assert pooled_loss(design, coeffs, 0.0) == pytest.approx(0.0, abs=1e-20)

    def test_single_point_hand_value(self):
        # (1/1)(2 - 1)^2 + 0.5 * 1 = 1.5
        design = single_task_design(np.array([[1.0]]), np.array([2.0]))
        coeffs = GroupCoefficients(np.array([[1.0]]))
        assert pooled_loss(design, coeffs, 0.5) == pytest.approx(1.5)

    def test_dimension_mismatch_rejected(self):
        design = single_task_design(np.array([[1.0, 0.0]]), np.array([2.0]))
        wrong = GroupCoefficients(np.array([[1.0]]))
        with pytest.raises(ValueError):
            pooled_loss(design, wrong, 0.1)


class TestPooledDesign:
    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PooledDesign([np.ones((3, 2))], [np.ones(2)])

    def test_nan_rejected(self):
        bad = np.array([[1.0], [np.nan]])
        with pytest.raises(ValueError):
            PooledDesign([bad], [np.ones(2)])

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PooledDesign([np.ones((2, 3)), np.ones((2, 2))], [np.ones(2), np.ones(2)])

    def test_empty_task_allowed(self):
        design = PooledDesign([np.ones((2, 1)), np.empty((0, 1))], [np.ones(2), np.empty(0)])
        assert design.total_rows == 2
        assert design.m == 2


def random_blocks(seed, rows, p=4):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, p)) for n in rows], [rng.standard_normal(n) for n in rows]


def assert_designs_bit_equal(a, b):
    (Ga, Ca, ya), (Gb, Cb, yb) = a.grams(), b.grams()
    assert Ga.tobytes() == Gb.tobytes() and Ca.tobytes() == Cb.tobytes() and ya == yb
    assert a.lipschitz() == b.lipschitz()
    assert (a.m, a.p, a.total_rows) == (b.m, b.p, b.total_rows)
    lam = 0.1
    (ca, ra), (cb, rb) = fit_group_lasso(a, lam), fit_group_lasso(b, lam)
    assert ca.matrix.tobytes() == cb.matrix.tobytes()
    assert (ra.method, ra.iterations, ra.objective) == (rb.method, rb.iterations, rb.objective)


class TestDesignGrowth:
    # rows below and above p, and an empty task, so both eigenvalue routes run
    ROWS = [6, 2, 0, 9, 3]

    def test_appended_design_matches_fresh(self):
        blocks, ys = random_blocks(11, self.ROWS)
        grown = PooledDesign(blocks[:1], ys[:1])
        for k in range(1, len(blocks)):
            # read every statistic before the next task joins
            grown.grams(), grown.lipschitz()
            grown.append(blocks[k], ys[k])
            assert_designs_bit_equal(grown, PooledDesign(blocks[: k + 1], ys[: k + 1]))

    def test_prefix_matches_fresh_and_shares_records(self):
        blocks, ys = random_blocks(12, self.ROWS)
        full = PooledDesign(blocks, ys)
        full.grams(), full.lipschitz()
        for k in range(1, len(blocks) + 1):
            part = full.prefix(k)
            assert all(a is b for a, b in zip(part.blocks, full.blocks[:k]))
            assert_designs_bit_equal(part, PooledDesign(blocks[:k], ys[:k]))

    def test_prefix_leaves_parent_alone(self):
        blocks, ys = random_blocks(13, self.ROWS)
        full = PooledDesign(blocks, ys)
        part = full.prefix(2)
        part.append(blocks[0], ys[0])
        assert (part.m, full.m) == (3, len(blocks))
        with pytest.raises(ValueError):
            full.prefix(0)
        with pytest.raises(ValueError):
            full.prefix(len(blocks) + 1)
        with pytest.raises(ValueError):
            PooledDesign([np.empty((0, 4)), np.ones((1, 4))], [np.empty(0), np.ones(1)]).prefix(1)

    @pytest.mark.parametrize(
        "phi, y",
        [
            (np.array([[1.0, np.nan, 0.0, 0.0]]), np.ones(1)),
            (np.ones((1, 4)), np.array([np.inf])),
            (np.ones((2, 3)), np.ones(2)),
            (np.ones((3, 4)), np.ones(2)),
        ],
        ids=["nan_block", "inf_reward", "columns", "rows"],
    )
    def test_rejected_append_leaves_design_unchanged(self, phi, y):
        blocks, ys = random_blocks(14, [3, 5])
        design = PooledDesign(blocks, ys)
        before = PooledDesign(blocks, ys)
        with pytest.raises(ValueError):
            design.append(phi, y)
        assert_designs_bit_equal(design, before)

    def test_records_are_read_only_copies(self):
        blocks, ys = random_blocks(15, [3])
        design = PooledDesign(blocks, ys)
        blocks[0][0, 0] += 1.0
        block = design.blocks[0]
        assert block.features[0, 0] != blocks[0][0, 0]
        for array in (block.features, block.rewards, block.gram, block.cross):
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestGroupCoefficients:
    def test_group_norms(self):
        mat = np.array([[3.0, 1.0], [4.0, 1.0]])
        coeffs = GroupCoefficients(mat)
        np.testing.assert_allclose(coeffs.group_norms(), [5.0, np.sqrt(2.0)])


class TestFit:
    def test_large_penalty_gives_exact_zero(self):
        rng = np.random.default_rng(2)
        phi = rng.normal(size=(8, 3))
        y = rng.normal(size=8)
        design = single_task_design(phi, y)
        crit = 2.0 * max(
            np.linalg.norm(phi[:, j] @ y) / 8 for j in range(3)
        )
        coeffs, report = fit_group_lasso(design, lam=1.5 * crit)
        assert report.converged
        assert np.all(coeffs.matrix == 0.0)

    def test_unpenalized_identity_design(self):
        design = single_task_design(np.eye(2), np.array([1.0, 2.0]))
        coeffs, report = fit_group_lasso(design, lam=0.0)
        assert report.converged
        np.testing.assert_allclose(coeffs.matrix, [[1.0, 2.0]], atol=1e-7)

    def test_scalar_instance_against_fine_grid(self):
        # minimize (1/4) sum (1 - b)^2 + |b|; scalar grid at step 1e-6
        design = single_task_design(np.ones((4, 1)), np.ones(4))
        coeffs, report = fit_group_lasso(design, lam=1.0)
        grid = np.arange(0.0, 2.0, 1e-6)
        vals = (1.0 - grid) ** 2 + np.abs(grid)
        best = grid[np.argmin(vals)]
        assert report.converged
        assert coeffs.matrix[0, 0] == pytest.approx(best, abs=1e-5)
        assert coeffs.matrix[0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_two_dim_instance_against_grid_oracle(self):
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        design = single_task_design(phi, y)
        coeffs, report = fit_group_lasso(design, lam=0.3)
        ours = pooled_loss(design, coeffs, 0.3)
        oracle = grid_oracle_objective(design, 0.3)
        assert report.converged
        assert ours <= oracle + 1e-6

    def test_cross_task_grid_oracle(self):
        # two tasks, one shared group: the penalty couples the tasks
        rng = np.random.default_rng(4)
        design = PooledDesign(
            [rng.normal(size=(4, 1)), rng.normal(size=(3, 1))],
            [rng.normal(size=4), rng.normal(size=3)],
        )
        coeffs, report = fit_group_lasso(design, lam=0.4)
        ours = pooled_loss(design, coeffs, 0.4)
        oracle = grid_oracle_objective(design, 0.4)
        assert report.converged
        assert ours <= oracle + 1e-6

    def test_report_objective_history_non_increasing(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(20, 6))
        y = rng.normal(size=20)
        design = single_task_design(phi, y)
        _, report = fit_group_lasso(design, lam=0.05)
        hist = report.objective_history
        assert np.all(np.diff(hist) <= 1e-10)

    def test_warm_start_shape_checked(self):
        design = single_task_design(np.eye(2), np.array([1.0, 2.0]))
        bad = GroupCoefficients(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            fit_group_lasso(design, lam=0.1, x0=bad)

    def test_max_iter_reports_non_convergence(self):
        rng = np.random.default_rng(6)
        phi = rng.normal(size=(30, 8))
        y = rng.normal(size=30)
        design = single_task_design(phi, y)
        _, report = fit_group_lasso(design, lam=0.01, max_iter=3)
        assert not report.converged
        assert report.iterations == 3


class TestKkt:
    def test_certificate_on_converged_fits(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            m = int(rng.integers(1, 4))
            p = int(rng.integers(1, 5))
            blocks = [
                rng.normal(size=(int(rng.integers(2, 9)), p)) for _ in range(m)
            ]
            ys = [rng.normal(size=b.shape[0]) for b in blocks]
            design = PooledDesign(blocks, ys)
            lam = float(rng.uniform(0.01, 0.8))
            coeffs, report = fit_group_lasso(design, lam)
            assert report.converged, f"trial {trial} failed to converge"
            assert kkt_residuals(design, coeffs, lam).max() <= 1e-6

    def test_zero_point_certificate_matches_critical_penalty(self):
        rng = np.random.default_rng(8)
        phi = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        design = single_task_design(phi, y)
        zero = GroupCoefficients.zeros(1, design.p)
        crit = 2.0 * max(abs(phi[:, j] @ y) / 6 for j in range(2))
        assert kkt_residuals(design, zero, crit + 1e-9).max() <= 1e-9
        assert kkt_residuals(design, zero, crit / 2).max() > 0


def test_objective_dominance():
    rng = np.random.default_rng(9)
    phi = rng.normal(size=(8, 4)) + 0.5 * np.eye(8, 4)
    y = rng.normal(size=8)
    design = single_task_design(phi, y)
    lam = 0.2
    coeffs, _ = fit_group_lasso(design, lam)
    fitted = pooled_loss(design, coeffs, lam)
    zero = GroupCoefficients.zeros(1, design.p)
    assert fitted <= pooled_loss(design, zero, lam) + 1e-12
    beta_ls, *_ = np.linalg.lstsq(phi, y, rcond=None)
    ls = GroupCoefficients(beta_ls.reshape(1, -1))
    assert fitted <= pooled_loss(design, ls, lam) + lam * ls.group_norms().sum() + 1e-12


def test_scale_consistency():
    rng = np.random.default_rng(10)
    phi = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    base = single_task_design(phi, y)
    scaled = single_task_design(phi, 2.0 * y)
    lam = 0.15
    c1, _ = fit_group_lasso(base, lam, tol=1e-10)
    c2, _ = fit_group_lasso(scaled, 2.0 * lam, tol=1e-10)
    np.testing.assert_allclose(2.0 * c1.group_norms(), c2.group_norms(), atol=1e-7)


def test_task_permutation_invariance():
    rng = np.random.default_rng(11)
    blocks = [rng.normal(size=(6, 3)) for _ in range(3)]
    ys = [rng.normal(size=6) for _ in range(3)]
    lam = 0.1
    fwd = PooledDesign(blocks, ys)
    rev = PooledDesign(blocks[::-1], ys[::-1])
    cf, _ = fit_group_lasso(fwd, lam, tol=1e-10)
    cr, _ = fit_group_lasso(rev, lam, tol=1e-10)
    np.testing.assert_allclose(cf.group_norms(), cr.group_norms(), atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    lam=st.floats(min_value=0.01, max_value=1.0),
    m=st.integers(min_value=1, max_value=3),
    p=st.integers(min_value=1, max_value=4),
)
def test_kkt_certificate_property(seed, lam, m, p):
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(size=(int(rng.integers(1, 8)), p)) for _ in range(m)]
    ys = [rng.normal(size=b.shape[0]) for b in blocks]
    design = PooledDesign(blocks, ys)
    coeffs, report = fit_group_lasso(design, lam)
    if report.converged:
        assert kkt_residuals(design, coeffs, lam).max() <= 1e-6


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    lam=st.floats(min_value=0.0, max_value=1.0),
    m=st.integers(min_value=1, max_value=4),
    p=st.integers(min_value=1, max_value=5),
    warm=st.booleans(),
)
def test_report_objective_and_history_property(seed, lam, m, p, warm):
    # designs of 1-4 tasks, some of them empty, fitted cold or warm: the
    # reported objective is the pooled loss at the returned coefficients and
    # the recorded objective values never increase
    rng = np.random.default_rng(seed)
    rows = [int(rng.integers(0, 7)) for _ in range(m)]
    if sum(rows) == 0:
        rows[int(rng.integers(m))] = 1
    blocks = [rng.normal(size=(n, p)) for n in rows]
    ys = [rng.normal(size=n) for n in rows]
    design = PooledDesign(blocks, ys)
    x0 = GroupCoefficients(rng.normal(size=(m, p))) if warm else None
    coeffs, report = fit_group_lasso(design, lam, x0=x0, max_iter=2_000)
    y_scale = max(1.0, sum(float(y @ y) for y in ys) / design.total_rows)
    assert abs(report.objective - pooled_loss(design, coeffs, lam)) <= 1e-10 * y_scale
    assert np.all(np.diff(report.objective_history) <= 1e-10)


def path_design(seed, rows, p, shape):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((rows, p))
    y = rng.standard_normal(rows)
    if shape == "duplicate_row" and rows > 1:
        phi[-1], y[-1] = phi[0], y[0] + rng.standard_normal()
    elif shape == "sign_row":
        # like a cosine design at x = 0 or 1, where every feature is +-1
        phi[0] = rng.choice([-1.0, 1.0], size=p)
    return single_task_design(phi, y)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rows=st.integers(min_value=1, max_value=8),
    p=st.integers(min_value=1, max_value=6),
    shape=st.sampled_from(["plain", "duplicate_row", "sign_row"]),
    lam_frac=st.sampled_from([0.0, 0.01, 0.3, 0.7, 0.999, 1.2]),
)
def test_lasso_path_matches_tight_apg(seed, rows, p, shape, lam_frac):
    # rows < p and rows > p; lam from 0 through lam_max and beyond, with
    # lam_frac=0.01 and rows < p driving the active set to the row count
    design = path_design(seed, rows, p, shape)
    phi, y = design.features[0], design.rewards[0]
    lam = lam_frac * 2.0 / rows * float(np.abs(phi.T @ y).max())
    ref, ref_report = _apg(design, lam, 1e-12, 100_000, None)
    _, report = fit_group_lasso(design, lam)
    y_scale = max(1.0, float(y @ y) / rows)
    assert abs(report.objective - ref_report.objective) <= 1e-9 * y_scale
    path = _lasso_path(design, lam, 1e-8, 10_000)
    if path is None:
        return
    coeffs, path_report = path
    assert kkt_residuals(design, coeffs, lam).max() <= 1e-8
    assert path_report.map_norm == kkt_residuals(design, coeffs, lam).max()
    # APG's point is a reference only where it certified itself at 1e-12;
    # on near-singular designs it can stop 3e-4 away at the same objective
    if ref_report.converged:
        np.testing.assert_allclose(coeffs.matrix, ref.matrix, atol=1e-6)


class TestLassoPath:
    def test_path_fit_report(self):
        design = path_design(1, 12, 5, "plain")
        coeffs, report = fit_group_lasso(design, lam=0.1)
        assert report.converged and report.method == "path"
        assert report.map_norm == kkt_residuals(design, coeffs, 0.1).max() <= 1e-8
        assert report.objective == pooled_loss(design, coeffs, 0.1)
        assert list(report.objective_history) == [report.objective]
        # every nonzero coefficient joined in a step of its own
        assert np.count_nonzero(coeffs.matrix) <= report.iterations < 50

    def test_active_set_reaches_row_count(self):
        design = path_design(2, 3, 6, "plain")
        coeffs, report = fit_group_lasso(design, lam=1e-3)
        assert report.iterations < 50
        assert np.count_nonzero(coeffs.matrix) == 3

    def test_penalty_above_lam_max_takes_no_step(self):
        design = path_design(3, 5, 4, "plain")
        phi, y = design.features[0], design.rewards[0]
        lam_max = 2.0 / 5 * float(np.abs(phi.T @ y).max())
        coeffs, report = fit_group_lasso(design, lam=lam_max * 1.01)
        assert report.iterations == 0 and report.converged
        assert np.all(coeffs.matrix == 0.0)

    def test_underdetermined_least_squares_declined(self):
        # lam = 0 with more columns than rows: a whole affine set is optimal
        design = path_design(4, 3, 5, "plain")
        assert _lasso_path(design, 0.0, 1e-8, 10_000) is None

    def test_duplicate_columns_declined(self):
        phi = np.random.default_rng(5).standard_normal((6, 3))
        phi[:, 2] = phi[:, 1]
        design = single_task_design(phi, phi @ [0.0, 1.0, 1.0])
        assert _lasso_path(design, 0.05, 1e-8, 10_000) is None


def pooled_random_design(seed, m, p, shape):
    """m task blocks of 1-8 rows, so rows < p and rows > p both occur;
    ``shape`` empties one task or duplicates a row of the largest."""
    rng = np.random.default_rng(seed)
    rows = [int(rng.integers(1, 9)) for _ in range(m)]
    if shape == "empty_task":
        rows[int(rng.integers(m))] = 0
    blocks = [rng.standard_normal((n, p)) for n in rows]
    ys = [rng.standard_normal(n) for n in rows]
    if shape == "duplicate_row":
        s = int(np.argmax(rows))
        blocks[s][-1], ys[s][-1] = blocks[s][0], ys[s][0] + rng.standard_normal()
    return PooledDesign(blocks, ys), rng


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=2, max_value=8),
    p=st.integers(min_value=1, max_value=8),
    shape=st.sampled_from(["plain", "empty_task", "duplicate_row"]),
    lam_frac=st.sampled_from([0.01, 0.1, 0.4, 0.8, 0.999]),
    warm=st.booleans(),
)
def test_newton_finish_matches_tight_apg(seed, m, p, shape, lam_frac, warm):
    # lam as a share of lam_max, the smallest penalty with B = 0 optimal
    design, rng = pooled_random_design(seed, m, p, shape)
    _, C, y_sq = design.grams()
    N = design.total_rows
    lam = lam_frac * 2.0 / N * float(np.sqrt((C * C).sum(axis=0)).max())
    x0 = GroupCoefficients(rng.standard_normal((m, p))) if warm else None
    coeffs, report = fit_group_lasso(design, lam, x0=x0)
    with mock.patch.object(group_lasso, "HANDOFF_MAP_NORM", 0.0):
        _, ref_report = _apg(design, lam, 1e-12, 100_000, x0)
    assert ref_report.method == "apg"
    assert report.converged
    assert abs(report.objective - ref_report.objective) <= 1e-9 * max(1.0, y_sq / N)
    # APG's stop rule bounds the mapping norm, and the KKT residual of its
    # iterate can sit just above it (1.02e-8 at map_norm 9.7e-9 when tiny
    # columns survive); a Newton point is certified directly
    if report.method == "newton":
        assert kkt_residuals(design, coeffs, lam).max() <= 1e-8
    assert np.all(np.diff(report.objective_history) <= 1e-10)


def test_newton_attempt_on_wrong_support_declined(monkeypatch):
    # at the first hand-off group 1 is still nonzero, but it is zero at the
    # optimum: the restricted problem has no stationary point, so Newton
    # pushes the column through zero, reversing its direction; the attempt
    # ends there, declined, and APG must finish the fit
    rng = np.random.default_rng(642)
    design = PooledDesign(list(rng.standard_normal((2, 2, 2))), list(rng.standard_normal((2, 2))))
    lam = 0.2
    attempts = []
    newton = group_lasso._newton_finish

    def spy(G, C, N, lam, x):
        point, steps = newton(G, C, N, lam, x)
        attempts.append((x.copy(), point, steps))
        return point, steps

    monkeypatch.setattr(group_lasso, "_newton_finish", spy)
    coeffs, report = fit_group_lasso(design, lam)
    assert len(attempts) == 1
    handed, point, steps = attempts[0]
    assert np.any(handed[:, 0] != 0.0)
    assert point is None and 0 < steps < group_lasso.NEWTON_MAX_STEPS
    assert report.method == "apg" and report.converged
    assert report.iterations > steps
    assert np.all(coeffs.matrix[:, 0] == 0.0)
    assert kkt_residuals(design, coeffs, lam).max() <= 1e-8


@pytest.mark.parametrize("bad", ["scaled_column", "unmoved"])
def test_newton_point_failing_acceptance_declined(monkeypatch, bad):
    # a Newton point goes through APG's acceptance check: one with a column
    # scaled off the hand-off iterate raises both the objective and the
    # mapping norm, and the hand-off iterate itself keeps the objective but
    # not the stop rule; either way APG must finish the fit
    rng = np.random.default_rng(1)
    design = PooledDesign(list(rng.standard_normal((3, 6, 4))), list(rng.standard_normal((3, 6))))
    _, C, _ = design.grams()
    lam = 0.3 * 2.0 / design.total_rows * float(np.sqrt((C * C).sum(axis=0)).max())
    assert fit_group_lasso(design, lam)[1].method == "newton"
    handed = []

    def bad_point(G, C, N, lam, x):
        handed.append(x.copy())
        point = x.copy()
        if bad == "scaled_column":
            point[:, np.flatnonzero((x * x).sum(axis=0) > 0.0)[0]] *= 1.5
        return point, 1

    monkeypatch.setattr(group_lasso, "_newton_finish", bad_point)
    coeffs, report = fit_group_lasso(design, lam)
    assert handed
    assert report.method == "apg" and report.converged
    assert kkt_residuals(design, coeffs, lam).max() <= 1e-8
    assert np.all(np.diff(report.objective_history) <= 0.0)


def test_declined_single_task_fit_reports_apg():
    # lam = 0 with more columns than rows: the path declines and APG answers
    design = path_design(4, 3, 5, "plain")
    _, report = fit_group_lasso(design, 0.0)
    assert report.method == "apg"
    assert report.converged
