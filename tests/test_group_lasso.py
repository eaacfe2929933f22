"""Pooled group lasso: objective, solver, and the KKT certificate.

The solver is checked two independent ways: a dense grid search over the
coefficient box for 1- and 2-dimensional instances, and the blockwise KKT
optimality certificate for everything else. Neither oracle shares code with
the iteration. The exact single-task path and the Newton finish of pooled
fits are also checked against the proximal-gradient iteration run to a tight
tolerance.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lifelong_bandits import group_lasso
from lifelong_bandits.group_lasso import (
    PooledDesign,
    _apg,
    _lasso_paths,
    fit_group_lasso,
    fit_lassos,
    group_norms,
    kkt_residuals,
    padded_warm_start,
    pooled_loss,
)


def single_task_design(phi, y):
    phi = np.asarray(phi, dtype=float)
    return PooledDesign([phi], [y])


def lasso_path(design, lam, tol=1e-8, max_steps=10_000):
    """The lasso path of a single-task design alone, as a batch of one task:
    (coeffs, report), or None where the path declines."""
    coeffs, (report,) = _lasso_paths(design.F, design.Y, design.rows, lam, tol, max_steps)
    return None if report is None else (coeffs, report)


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
            resid = B[:, s, :] @ design.F[s].T - design.Y[s]
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
        beta = np.zeros((1, design.p))
        assert pooled_loss(design, beta, 0.7) == pytest.approx(float(y @ y) / 6)

    def test_least_squares_zeroes_residual(self):
        rng = np.random.default_rng(1)
        phi = rng.normal(size=(3, 3)) + np.eye(3) * 2
        beta_ls = rng.normal(size=3)
        design = single_task_design(phi, phi @ beta_ls)
        coeffs = beta_ls.reshape(1, -1)
        assert pooled_loss(design, coeffs, 0.0) == pytest.approx(0.0, abs=1e-20)

    def test_single_point_hand_value(self):
        # (1/1)(2 - 1)^2 + 0.5 * 1 = 1.5
        design = single_task_design(np.array([[1.0]]), np.array([2.0]))
        coeffs = np.array([[1.0]])
        assert pooled_loss(design, coeffs, 0.5) == pytest.approx(1.5)

    def test_dimension_mismatch_rejected(self):
        design = single_task_design(np.array([[1.0, 0.0]]), np.array([2.0]))
        for wrong in (np.array([[1.0]]), np.array([1.0, 0.0]), np.zeros((1, 1, 2))):
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
        # a first block without columns sets no width a fit could use
        with pytest.raises(ValueError, match="task 1"):
            PooledDesign([np.ones((2, 0)), np.ones((2, 0))], [np.ones(2), np.ones(2)])

    def test_empty_task_allowed(self):
        design = PooledDesign([np.ones((2, 1)), np.empty((0, 1))], [np.ones(2), np.empty(0)])
        assert design.total_rows == 2
        assert design.m == 2
        assert design.rows.tolist() == [2, 0] and design.F.shape == (2, 2, 1)
        assert np.all(design.F[1] == 0.0) and np.all(design.Y[1] == 0.0)


def random_blocks(seed, rows, p=4):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, p)) for n in rows], [rng.standard_normal(n) for n in rows]


def assert_designs_bit_equal(a, b):
    for name in ("F", "Y", "rows", "C"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert a.y_sq == b.y_sq
    assert a.lipschitz() == b.lipschitz()
    assert (a.m, a.p, a.total_rows) == (b.m, b.p, b.total_rows)
    lam = 0.1
    (ca, ra), (cb, rb) = fit_group_lasso(a, lam), fit_group_lasso(b, lam)
    assert ca.tobytes() == cb.tobytes()
    assert (ra.method, ra.iterations, ra.objective) == (rb.method, rb.iterations, rb.objective)


class TestDesignGrowth:
    # rows below and above p, and an empty task, so both eigenvalue routes run
    ROWS = [6, 2, 0, 9, 3]

    def test_prefix_matches_fresh_and_shares_arrays(self):
        blocks, ys = random_blocks(12, self.ROWS)
        full = PooledDesign(blocks, ys)
        for k in range(1, len(blocks) + 1):
            part = full.prefix(k)
            # the first k tasks' rows, cut to the longest of them
            assert part.F.shape == (k, max(self.ROWS[:k]), 4)
            assert np.shares_memory(part.F, full.F) and np.shares_memory(part.Y, full.Y)
            assert np.shares_memory(part.C, full.C)
            assert_designs_bit_equal(part, PooledDesign(blocks[:k], ys[:k]))

    def test_prefix_leaves_parent_alone(self):
        blocks, ys = random_blocks(13, self.ROWS)
        full = PooledDesign(blocks, ys)
        part = full.prefix(2)
        assert (part.m, full.m) == (2, len(blocks))
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
            (np.ones((2, 0)), np.ones(2)),
            (np.float64(1.0), np.ones(1)),
        ],
        ids=["nan_block", "inf_reward", "columns", "rows", "no_columns", "scalar"],
    )
    def test_bad_task_is_named_in_the_error(self, phi, y):
        blocks, ys = random_blocks(14, [3, 5])
        with pytest.raises(ValueError, match="task 3"):
            PooledDesign([*blocks, phi], [*ys, y])

    def test_top_eigenvalue_waits_for_a_fit_that_reads_it(self, monkeypatch):
        # building or cutting a design computes no eigenvalue, and neither
        # does a fit the path certifies; ``lipschitz`` computes each task's
        # once, into an array the design's prefixes share
        blocks, ys = random_blocks(16, self.ROWS)
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
        one = PooledDesign(blocks[:1], ys[:1])
        assert fit_group_lasso(one, 0.1)[1].method == "path"
        full = PooledDesign(blocks, ys)
        part = full.prefix(2)
        assert shapes == []
        # Phi^T Phi for task 1's 6 rows, Phi Phi^T for task 2's 2
        a, b = blocks[0].T @ blocks[0], blocks[1] @ blocks[1].T
        top = max(float(eigvalsh(a)[-1]), float(eigvalsh(b)[-1]))
        assert part.lipschitz() == 2.0 * top / 8
        assert shapes == [(4, 4), (2, 2)]
        # the parent reads what its prefix computed; an empty task's
        # eigenvalue is 0 without a call
        full.lipschitz()
        assert shapes[2:] == [(4, 4), (3, 3)]
        full.prefix(4).lipschitz()
        part.lipschitz()
        assert len(shapes) == 4
        # a prefix of a prefix reads them too
        part.prefix(1).lipschitz()
        assert len(shapes) == 4
        # a design built on its own computes its own once it is asked
        one.lipschitz()
        assert shapes[4:] == [(4, 4)]

    def test_stored_arrays_are_read_only_copies(self):
        blocks, ys = random_blocks(15, [3, 2])
        design = PooledDesign(blocks, ys)
        blocks[0][0, 0] += 1.0
        ys[1][0] += 1.0
        assert design.F[0, 0, 0] != blocks[0][0, 0]
        assert design.Y[1, 0] != ys[1][0]
        for array in (design.F, design.Y, design.rows, design.C, design.prefix(1).F):
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestGroupNorms:
    def test_group_norms(self):
        coeffs = np.array([[3.0, 1.0], [4.0, 1.0]])
        np.testing.assert_allclose(group_norms(coeffs), [5.0, np.sqrt(2.0)])


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
        assert np.all(coeffs == 0.0)

    def test_unpenalized_identity_design(self):
        design = single_task_design(np.eye(2), np.array([1.0, 2.0]))
        coeffs, report = fit_group_lasso(design, lam=0.0)
        assert report.converged
        np.testing.assert_allclose(coeffs, [[1.0, 2.0]], atol=1e-7)

    def test_scalar_instance_against_fine_grid(self):
        # minimize (1/4) sum (1 - b)^2 + |b|; scalar grid at step 1e-6
        design = single_task_design(np.ones((4, 1)), np.ones(4))
        coeffs, report = fit_group_lasso(design, lam=1.0)
        grid = np.arange(0.0, 2.0, 1e-6)
        vals = (1.0 - grid) ** 2 + np.abs(grid)
        best = grid[np.argmin(vals)]
        assert report.converged
        assert coeffs[0, 0] == pytest.approx(best, abs=1e-5)
        assert coeffs[0, 0] == pytest.approx(0.5, abs=1e-6)

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
        for bad in (np.zeros((2, 2)), np.zeros(2), np.zeros((1, 1, 2))):
            with pytest.raises(ValueError):
                fit_group_lasso(design, lam=0.1, x0=bad)

    def test_public_fits_read_the_budget_when_called(self, monkeypatch):
        # MAX_ITER is read at each call: under a 3-iteration budget a pooled
        # fit stops unconverged, and so does a single-task fit, whose path
        # the budget declines and whose APG fallback it cuts
        rng = np.random.default_rng(6)
        phi, y = rng.normal(size=(30, 8)), rng.normal(size=30)
        pooled = PooledDesign([phi[:15], phi[15:]], [y[:15], y[15:]])

        def fits():
            return fit_group_lasso(pooled, 0.01)[1], fit_lassos([phi], [y], 0.01)[1][0]

        assert all(report.converged for report in fits())
        monkeypatch.setattr(group_lasso, "MAX_ITER", 3)
        for report in fits():
            assert report.method == "apg" and not report.converged
            assert report.iterations == 3

    def test_max_iter_reports_non_convergence(self, monkeypatch):
        rng = np.random.default_rng(6)
        phi = rng.normal(size=(30, 8))
        y = rng.normal(size=30)
        design = single_task_design(phi, y)
        monkeypatch.setattr(group_lasso, "MAX_ITER", 3)
        _, report = fit_group_lasso(design, lam=0.01)
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
        zero = np.zeros((1, design.p))
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
    zero = np.zeros((1, design.p))
    assert fitted <= pooled_loss(design, zero, lam) + 1e-12
    beta_ls, *_ = np.linalg.lstsq(phi, y, rcond=None)
    ls = beta_ls.reshape(1, -1)
    assert fitted <= pooled_loss(design, ls, lam) + lam * group_norms(ls).sum() + 1e-12


def test_scale_consistency(monkeypatch):
    rng = np.random.default_rng(10)
    phi = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    base = single_task_design(phi, y)
    scaled = single_task_design(phi, 2.0 * y)
    lam = 0.15
    monkeypatch.setattr(group_lasso, "TOL", 1e-10)
    c1, _ = fit_group_lasso(base, lam)
    c2, _ = fit_group_lasso(scaled, 2.0 * lam)
    np.testing.assert_allclose(2.0 * group_norms(c1), group_norms(c2), atol=1e-7)


def test_task_permutation_invariance(monkeypatch):
    rng = np.random.default_rng(11)
    blocks = [rng.normal(size=(6, 3)) for _ in range(3)]
    ys = [rng.normal(size=6) for _ in range(3)]
    lam = 0.1
    fwd = PooledDesign(blocks, ys)
    rev = PooledDesign(blocks[::-1], ys[::-1])
    monkeypatch.setattr(group_lasso, "TOL", 1e-10)
    cf, _ = fit_group_lasso(fwd, lam)
    cr, _ = fit_group_lasso(rev, lam)
    np.testing.assert_allclose(group_norms(cf), group_norms(cr), atol=1e-8)


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
# at lam = 0 a task with fewer rows than columns leaves the solution set
# unbounded: a Newton finish went off to coefficients near 1e40
@example(seed=2384, lam=0.0, m=3, p=5, warm=False)
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
    x0 = rng.normal(size=(m, p)) if warm else None
    with mock.patch.object(group_lasso, "MAX_ITER", 2_000):
        coeffs, report = fit_group_lasso(design, lam, x0=x0)
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
    phi, y = design.F[0], design.Y[0]
    lam = lam_frac * 2.0 / rows * float(np.abs(phi.T @ y).max())
    ref, ref_report = _apg(design, lam, 1e-12, 100_000, None)
    _, report = fit_group_lasso(design, lam)
    y_scale = max(1.0, float(y @ y) / rows)
    assert abs(report.objective - ref_report.objective) <= 1e-9 * y_scale
    path = lasso_path(design, lam)
    if path is None:
        return
    coeffs, path_report = path
    assert kkt_residuals(design, coeffs, lam).max() <= 1e-8
    assert path_report.map_norm == kkt_residuals(design, coeffs, lam).max()
    # APG's point is a reference only where it certified itself at 1e-12;
    # on near-singular designs it can stop 3e-4 away at the same objective
    if ref_report.converged:
        np.testing.assert_allclose(coeffs, ref, atol=1e-6)


class TestLassoPath:
    def test_path_fit_report(self):
        design = path_design(1, 12, 5, "plain")
        coeffs, report = fit_group_lasso(design, lam=0.1)
        assert report.converged and report.method == "path"
        assert report.map_norm == kkt_residuals(design, coeffs, 0.1).max() <= 1e-8
        assert report.objective == pooled_loss(design, coeffs, 0.1)
        assert list(report.objective_history) == [report.objective]
        # every nonzero coefficient joined in a step of its own
        assert np.count_nonzero(coeffs) <= report.iterations < 50

    def test_active_set_reaches_row_count(self):
        design = path_design(2, 3, 6, "plain")
        coeffs, report = fit_group_lasso(design, lam=1e-3)
        assert report.iterations < 50
        assert np.count_nonzero(coeffs) == 3

    def test_penalty_above_lam_max_takes_no_step(self):
        design = path_design(3, 5, 4, "plain")
        phi, y = design.F[0], design.Y[0]
        lam_max = 2.0 / 5 * float(np.abs(phi.T @ y).max())
        coeffs, report = fit_group_lasso(design, lam=lam_max * 1.01)
        assert report.iterations == 0 and report.converged
        assert np.all(coeffs == 0.0)

    def test_underdetermined_least_squares_declined(self):
        # lam = 0 with more columns than rows: a whole affine set is optimal
        design = path_design(4, 3, 5, "plain")
        assert lasso_path(design, 0.0) is None

    def test_duplicate_columns_declined(self):
        phi = np.random.default_rng(5).standard_normal((6, 3))
        phi[:, 2] = phi[:, 1]
        design = single_task_design(phi, phi @ [0.0, 1.0, 1.0])
        assert lasso_path(design, 0.05) is None


def lasso_batch(seed, K, p):
    """K single-task blocks of 1-8 rows, so rows < p and rows > p both occur,
    and the index of one whose rows all repeat one +-1 row: every column
    is equicorrelated with every other there, so below its lam_max its
    solutions are not unique and its path is declined (p >= 2)."""
    rng = np.random.default_rng(seed)
    rows = [int(rng.integers(1, 9)) for _ in range(K)]
    features = [rng.standard_normal((n, p)) for n in rows]
    rewards = [rng.standard_normal(n) for n in rows]
    declined = int(rng.integers(K))
    n = max(2, rows[declined])
    features[declined] = np.tile(rng.choice([-1.0, 1.0], size=p), (n, 1))
    rewards[declined] = rng.standard_normal(n)
    return features, rewards, declined


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    K=st.integers(min_value=2, max_value=5),
    p=st.integers(min_value=2, max_value=6),
    lam_frac=st.sampled_from([0.05, 0.3, 0.7]),
)
def test_batched_path_fits_each_task_alone(seed, K, p, lam_frac):
    features, rewards, declined = lasso_batch(seed, K, p)
    phi, y = features[declined], rewards[declined]
    lam = lam_frac * 2.0 / len(y) * float(np.abs(phi.T @ y).max())
    coeffs, reports = fit_lassos(features, rewards, lam)
    assert coeffs.shape == (K, p)
    for s, (phi, y) in enumerate(zip(features, rewards)):
        alone, report = fit_group_lasso(single_task_design(phi, y), lam)
        assert reports[s].method == report.method
        assert reports[s].converged == report.converged
        np.testing.assert_allclose(coeffs[s], alone[0], rtol=0, atol=1e-12)
    # the declined task's answer is the iterative solver's on its data alone
    assert reports[declined].method == "apg"
    design = single_task_design(features[declined], rewards[declined])
    ref, ref_report = _apg(design, lam, 1e-8, 50_000, None)
    assert np.array_equal(coeffs[declined], ref[0])
    assert reports[declined].iterations == ref_report.iterations


def test_singular_solve_declines_only_its_task(monkeypatch):
    # no natural design is known to hit an exact zero pivot, so the solve
    # fails for task 1 alone, recognised by its scaled-up rows
    features, rewards, declined = lasso_batch(7, 3, 4)
    assert declined == 2  # the task of repeated +-1 rows
    features[1], rewards[1] = 1e4 * features[0], 1e4 * rewards[0]
    solve = np.linalg.solve

    def failing(a, b):
        if (a[..., 0, 0] > 1e5).any():
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing)
    coeffs, reports = fit_lassos(features, rewards, 0.01)
    assert [report.method for report in reports] == ["path", "apg", "apg"]
    ref, _ = _apg(single_task_design(features[1], rewards[1]), 0.01, 1e-8, 50_000, None)
    assert np.array_equal(coeffs[1], ref[0])
    monkeypatch.setattr(np.linalg, "solve", solve)
    alone, report = fit_group_lasso(single_task_design(features[0], rewards[0]), 0.01)
    assert report.method == "path"
    np.testing.assert_allclose(coeffs[0], alone[0], rtol=0, atol=1e-12)


def test_batched_path_rejects_bad_tasks():
    phi, y = np.ones((3, 2)), np.ones(3)
    with pytest.raises(ValueError, match="task 2"):
        fit_lassos([phi, np.ones((0, 2))], [y, np.ones(0)], 0.1)
    with pytest.raises(ValueError, match="task 2"):
        fit_lassos([phi, np.ones((3, 3))], [y, y], 0.1)
    with pytest.raises(ValueError, match="non-finite"):
        fit_lassos([phi, np.full((3, 2), np.nan)], [y, y], 0.1)
    with pytest.raises(ValueError, match="task 1"):
        fit_lassos([np.ones((3, 0)), np.ones((3, 0))], [y, y], 0.1)
    with pytest.raises(ValueError, match="task 2"):
        fit_lassos([phi, np.float64(1.0)], [y, np.ones(1)], 0.1)


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
    C, y_sq = design.C, design.y_sq
    N = design.total_rows
    lam = lam_frac * 2.0 / N * float(np.sqrt((C * C).sum(axis=0)).max())
    x0 = rng.standard_normal((m, p)) if warm else None
    coeffs, report = fit_group_lasso(design, lam, x0=x0)
    with mock.patch.object(group_lasso, "HANDOFF_MAP_NORM", 0.0):
        _, ref_report = _apg(design, lam, 1e-12, 100_000, x0)
    assert ref_report.method == "apg"
    assert report.converged
    assert abs(report.objective - ref_report.objective) <= 1e-9 * max(1.0, y_sq / N)
    # APG's stop rule bounds the mapping norm, and the KKT residual of its
    # iterate can sit just above it (1.02e-8 at map_norm 9.7e-9 when tiny
    # columns survive); a Newton point is certified directly. Every pooled
    # fit of the offline and lifelong runs at the 64 pool seeds ends on
    # Newton; here APG answers fits that meet tol before any hand-off
    if report.method == "newton":
        assert kkt_residuals(design, coeffs, lam).max() <= 1e-8
    assert np.all(np.diff(report.objective_history) <= 1e-10)


def newton_attempts(monkeypatch):
    """Patch ``_newton_finish`` to record (handed iterate, point, steps) of
    every attempt into the returned list."""
    attempts = []
    newton = group_lasso._newton_finish

    def spy(F, C, N, lam, x, tol):
        point, steps = newton(F, C, N, lam, x, tol)
        attempts.append((x.copy(), point, steps))
        return point, steps

    monkeypatch.setattr(group_lasso, "_newton_finish", spy)
    return attempts


def flip_design():
    """2 tasks of 2 rows over 2 columns, at a penalty where group 1 is still
    nonzero at the first hand-off but zero at the optimum."""
    rng = np.random.default_rng(642)
    design = PooledDesign(list(rng.standard_normal((2, 2, 2))), list(rng.standard_normal((2, 2))))
    return design, 0.2


def test_newton_drops_a_column_it_pushes_through_zero(monkeypatch):
    # at the first hand-off group 1 is still nonzero, but it is zero at the
    # optimum: the restricted problem has no stationary point, and a Newton
    # step pushes the column through zero, reversing its direction. Newton
    # drops it, goes back to the point before that step without it, and
    # answers the fit in the same attempt
    design, lam = flip_design()
    attempts = newton_attempts(monkeypatch)
    coeffs, report = fit_group_lasso(design, lam)
    ((handed, point, steps),) = attempts
    assert support(handed) == (0, 1)
    assert 0 < steps < group_lasso.NEWTON_MAX_STEPS
    assert report.method == "newton" and report.converged
    assert (report.newton_attempts, report.newton_steps) == (1, steps)
    assert coeffs.tobytes() == point.tobytes()
    assert np.all(coeffs[:, 0] == 0.0) and np.all(coeffs[:, 1] != 0.0)
    assert kkt_residuals(design, coeffs, lam).max() <= 1e-8


def test_newton_drop_needs_a_column_and_a_step_left(monkeypatch):
    # the second step from the first hand-off iterate of ``flip_design``
    # pushes group 1 through zero. With a budget of 2 steps no step
    # is left to take from the point the drop goes back to, and the attempt
    # aborts; with 3 it answers on group 2 alone. Above the smallest penalty
    # with B = 0 optimal every column is dropped, and the attempt aborts
    design, lam = flip_design()
    finish = group_lasso._newton_finish
    attempts = newton_attempts(monkeypatch)
    fit_group_lasso(design, lam)
    x = attempts[0][0]
    F, C = design.F, design.C
    N = design.total_rows
    lam_max = 2.0 / N * float(np.sqrt((C * C).sum(axis=0)).max())
    point, steps = finish(F, C, N, 1.05 * lam_max, x, 1e-8)
    assert point is None and 0 < steps < group_lasso.NEWTON_MAX_STEPS
    monkeypatch.setattr(group_lasso, "NEWTON_MAX_STEPS", 2)
    assert finish(F, C, N, lam, x, 1e-8) == (None, 2)
    monkeypatch.setattr(group_lasso, "NEWTON_MAX_STEPS", 3)
    point, steps = finish(F, C, N, lam, x, 1e-8)
    assert steps == 3 and np.all(point[:, 0] == 0.0) and np.all(point[:, 1] != 0.0)


@pytest.mark.parametrize("bad", ["scaled_column", "unmoved"])
def test_newton_point_failing_acceptance_declined(monkeypatch, bad):
    # a Newton point goes through APG's acceptance check: one with a column
    # scaled off the hand-off iterate raises both the objective and the
    # mapping norm, and the hand-off iterate itself keeps the objective but
    # not the stop rule; either way APG must finish the fit
    rng = np.random.default_rng(1)
    design = PooledDesign(list(rng.standard_normal((3, 6, 4))), list(rng.standard_normal((3, 6))))
    C = design.C
    lam = 0.3 * 2.0 / design.total_rows * float(np.sqrt((C * C).sum(axis=0)).max())
    assert fit_group_lasso(design, lam)[1].method == "newton"
    handed = []

    def bad_point(F, C, N, lam, x, tol):
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


def handoff_design(seed, p):
    """3 tasks of 5 rows over p columns, at 0.3 times the smallest penalty
    with B = 0 optimal."""
    rng = np.random.default_rng(seed)
    design = PooledDesign(list(rng.standard_normal((3, 5, p))), list(rng.standard_normal((3, 5))))
    C = design.C
    return design, 0.3 * 2.0 / design.total_rows * float(np.sqrt((C * C).sum(axis=0)).max())


def iteration_states(design, lam):
    """The iterate after every iteration of a cold fit without the hand-off,
    up to the stop test that ends it, with the mapping norm at the point each
    prox step started from. A fit cut at max_iter = k ends on iteration k,
    every earlier iteration as in an uncut fit, and its last prox step before
    the closing stop test is iteration k's."""
    states, moves = [], []
    prox_step = group_lasso._prox_step

    def spy(B, g, thresh):
        z, norms = prox_step(B, g, thresh)
        moves.append(z - B)
        return z, norms

    step = 1.0 / design.lipschitz()
    with mock.patch.object(group_lasso, "HANDOFF_MAP_NORM", 0.0):
        with mock.patch.object(group_lasso, "_prox_step", spy):
            for k in itertools.count(1):
                coeffs, report = _apg(design, lam, 1e-8, k, None)
                states.append((coeffs, float(np.linalg.norm(moves[-2])) / step))
                if report.converged and k % group_lasso.CHECK_EVERY == 0:
                    return states


def support(x):
    return tuple(np.flatnonzero((x * x).sum(axis=0) > 0.0))


def handoff_schedule(states):
    """The iterations at which the hand-off tries Newton if every attempt is
    declined: the support has held for HANDOFF_HOLD iterations, the mapping
    norm is at most HANDOFF_MAP_NORM, and it has fallen HANDOFF_RETRY-fold
    since the last attempt if that was on the same support."""
    tries, last, held, tried, tried_at = [], None, 0, None, 0.0
    for k, (x, moved) in enumerate(states, start=1):
        held = held + 1 if support(x) == last else 1
        last = support(x)
        if (
            held >= group_lasso.HANDOFF_HOLD
            and moved <= group_lasso.HANDOFF_MAP_NORM
            and (last != tried or moved <= group_lasso.HANDOFF_RETRY * tried_at)
        ):
            tries.append(k)
            tried, tried_at = last, moved
    return tries


def test_handoff_waits_for_the_support_to_settle(monkeypatch):
    # the mapping norm is below the hand-off norm while the support still
    # changes, so Newton is first tried at the exact iteration where the
    # last support has held for HANDOFF_HOLD iterations
    design, lam = handoff_design(19, p=6)
    states = iteration_states(design, lam)
    supports = [support(x) for x, _ in states]
    first, hold = handoff_schedule(states)[0], group_lasso.HANDOFF_HOLD
    # iteration k is states[k - 1]: the support changes at iteration
    # first - hold + 1 and holds through iteration first
    assert supports[first - hold - 1] != supports[first - hold] == supports[first - 1]
    late_changes = [
        k
        for k in range(2, first)
        if supports[k - 1] != supports[k - 2] and states[k - 1][1] <= group_lasso.HANDOFF_MAP_NORM
    ]
    assert len(late_changes) >= 2
    handed = []
    newton = group_lasso._newton_finish

    def spy(G, C, N, lam, x, tol):
        handed.append(x.copy())
        return newton(G, C, N, lam, x, tol)

    monkeypatch.setattr(group_lasso, "_newton_finish", spy)
    _, report = fit_group_lasso(design, lam)
    assert handed[0].tobytes() == states[first - 1][0].tobytes()
    assert report.method == "newton"


def test_declined_support_retried_after_the_norm_falls(monkeypatch):
    # every attempt is declined: a declined support is tried again only once
    # the mapping norm has fallen HANDOFF_RETRY-fold since, although it holds
    # and meets the hand-off norm at the iterations in between; a new
    # support is tried as soon as it has held for HANDOFF_HOLD iterations
    design, lam = handoff_design(77, p=8)
    states = iteration_states(design, lam)
    tries = handoff_schedule(states)
    pairs = list(zip(tries, tries[1:]))
    retries = [(a, b) for a, b in pairs if support(states[a - 1][0]) == support(states[b - 1][0])]
    assert retries and len(retries) < len(pairs)
    for a, b in retries:
        assert states[b - 1][1] <= group_lasso.HANDOFF_RETRY * states[a - 1][1]
        assert any(
            support(states[k - 1][0]) == support(states[a - 1][0])
            and states[k - 1][1] <= group_lasso.HANDOFF_MAP_NORM
            for k in range(a + 1, b)
        )
    handed = []

    def decline(G, C, N, lam, x, tol):
        handed.append(x.copy())
        return None, 1

    monkeypatch.setattr(group_lasso, "_newton_finish", decline)
    coeffs, report = fit_group_lasso(design, lam)
    assert [x.tobytes() for x in handed] == [states[k - 1][0].tobytes() for k in tries]
    assert report.method == "apg" and report.converged
    assert report.iterations == len(states) + len(tries)
    assert kkt_residuals(design, coeffs, lam).max() <= 1e-8


def test_wrongly_dropped_column_restored_by_apg(monkeypatch):
    # the first attempt drops group 1, which is small but nonzero at the
    # optimum: Newton converges without it, and the stop rule declines its
    # point, which still lowers the objective, so the point becomes the
    # iterate. APG brings group 1 back, and the next attempt, on the support
    # that holds to the optimum, answers the fit
    design, lam = handoff_design(68, p=6)
    attempts = newton_attempts(monkeypatch)
    coeffs, report = fit_group_lasso(design, lam)
    (handed, point, _), (retried, _, _) = attempts
    assert support(handed) == support(retried) == support(coeffs)
    assert 0 in support(handed) and 0 not in support(point)
    assert group_norms(coeffs)[0] > 0.0
    assert pooled_loss(design, point, lam) < pooled_loss(design, handed, lam)
    assert report.method == "newton" and report.converged
    assert report.newton_attempts == 2
    assert kkt_residuals(design, coeffs, lam).max() <= 1e-8
    assert np.all(np.diff(report.objective_history) <= 1e-10)
    # a fit cut at the first attempt's iteration returns that point
    first = handoff_schedule(iteration_states(design, lam))[0]
    monkeypatch.setattr(group_lasso, "MAX_ITER", first)
    cut, cut_report = fit_group_lasso(design, lam)
    assert cut.tobytes() == attempts[2][1].tobytes() == point.tobytes()
    assert cut_report.method == "apg" and not cut_report.converged
    assert cut_report.objective_history[-1] == cut_report.objective < cut_report.objective_history[-2]


def test_declined_newton_point_above_the_iterate_discarded(monkeypatch):
    # a Newton point that would raise the objective leaves the fit exactly
    # as an attempt that returns no point does
    design, lam = handoff_design(68, p=6)

    def fits(point_of):
        def finish(G, C, N, lam, x, tol):
            return point_of(x), 2

        monkeypatch.setattr(group_lasso, "_newton_finish", finish)
        return fit_group_lasso(design, lam)

    def scaled(x):
        point = x.copy()
        point[:, 1] *= 1.5
        return point

    coeffs, report = fits(scaled)
    none_coeffs, none_report = fits(lambda x: None)
    assert report.newton_attempts > 0
    assert report.method == "apg" and report.converged
    assert coeffs.tobytes() == none_coeffs.tobytes()
    assert report.iterations == none_report.iterations
    assert report.newton_attempts == none_report.newton_attempts
    assert report.objective_history.tobytes() == none_report.objective_history.tobytes()
    assert kkt_residuals(design, coeffs, lam).max() <= 1e-8


def test_iterate_meeting_the_stop_rule_at_the_handoff_reports_apg(monkeypatch):
    # at tol 1e-2 the iterate meets the stop rule by the first hand-off,
    # before the first stop test at CHECK_EVERY: the fit ends there, on APG
    design, lam = handoff_design(2, p=4)
    monkeypatch.setattr(group_lasso, "_newton_finish", mock.Mock(side_effect=AssertionError))
    monkeypatch.setattr(group_lasso, "TOL", 1e-2)
    _, report = fit_group_lasso(design, lam)
    assert report.method == "apg" and report.converged
    assert report.map_norm <= 1e-2
    assert report.iterations < group_lasso.CHECK_EVERY
    assert report.iterations == handoff_schedule(iteration_states(design, lam))[0]


def test_zero_handoff_norm_never_tries_newton(monkeypatch):
    design, lam = handoff_design(77, p=8)
    monkeypatch.setattr(group_lasso, "HANDOFF_MAP_NORM", 0.0)
    monkeypatch.setattr(group_lasso, "_newton_finish", mock.Mock(side_effect=AssertionError))
    _, report = fit_group_lasso(design, lam)
    assert report.method == "apg" and report.converged


def shared_support_design(seed, m=4, p=8, rows=10):
    """m tasks over p columns whose coefficients share 3 nonzero columns, and
    a penalty at which the fit keeps them."""
    rng = np.random.default_rng(seed)
    truth = np.zeros((m, p))
    truth[:, [1, 4, 6]] = rng.standard_normal((m, 3)) + 2.0
    blocks = [rng.standard_normal((rows, p)) for _ in range(m)]
    ys = [phi @ beta + 0.1 * rng.standard_normal(rows) for phi, beta in zip(blocks, truth)]
    return PooledDesign(blocks, ys), 0.2


def zero_padded(coeffs, m):
    return np.vstack([coeffs, np.zeros((m - len(coeffs), coeffs.shape[1]))])


@pytest.mark.parametrize("new_tasks", [1, 2])
def test_predicted_row_lowers_the_objective(new_tasks):
    design, lam = shared_support_design(3, m=5)
    old = fit_group_lasso(design.prefix(design.m - new_tasks), lam)[0]
    start = padded_warm_start(old, design, lam)
    S = np.flatnonzero(group_norms(old) > 0.0)
    assert start[: len(old)].tobytes() == old.tobytes()
    assert np.all(start[len(old) :, S] != 0.0)
    assert np.all(np.delete(start[len(old) :], S, axis=1) == 0.0)
    assert pooled_loss(design, start, lam) < pooled_loss(design, zero_padded(old, design.m), lam)
    assert padded_warm_start(None, design, lam) is None
    assert padded_warm_start(start, design, lam) is None


def test_predicted_row_falls_back_to_zero():
    design, lam = shared_support_design(4)
    old = fit_group_lasso(design.prefix(3), lam)[0]
    zero = zero_padded(old, 4).tobytes()
    # no nonzero column to predict on, and no penalty to keep the step small
    empty = np.zeros((3, design.p))
    assert np.all(padded_warm_start(empty, design, lam) == 0.0)
    assert padded_warm_start(old, design, 0.0).tobytes() == zero
    # a singular solve: two equal columns, and lam / c below the smallest float
    rng = np.random.default_rng(5)
    phi = rng.standard_normal((6, 2))
    phi[:, 1] = phi[:, 0]
    dup = PooledDesign([phi, phi], [rng.standard_normal(6), rng.standard_normal(6)])
    huge = np.array([[1e150, 1e150]])
    assert np.all(1e-200 / group_norms(huge) == 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve((2.0 / 12) * (phi.T @ phi), np.ones(2))
    start = padded_warm_start(huge, dup, 1e-200)
    assert start.tobytes() == zero_padded(huge, 2).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=2, max_value=8),
    p=st.integers(min_value=1, max_value=8),
    shape=st.sampled_from(["plain", "empty_task", "duplicate_row"]),
    lam_frac=st.sampled_from([0.01, 0.1, 0.4, 0.8]),
)
def test_fit_from_predicted_start_matches_cold_fit(seed, m, p, shape, lam_frac):
    design, _ = pooled_random_design(seed, m, p, shape)
    assume(design.rows[:-1].sum() > 0)
    C, y_sq = design.C, design.y_sq
    N = design.total_rows
    lam = lam_frac * 2.0 / N * float(np.sqrt((C * C).sum(axis=0)).max())
    old, old_report = fit_group_lasso(design.prefix(m - 1), lam)
    assert old_report.converged
    start = padded_warm_start(old, design, lam)
    # never above the zero-padded start, up to the rounding of the objective
    rounding = 1e-12 * max(1.0, y_sq / N)
    assert pooled_loss(design, start, lam) <= pooled_loss(design, zero_padded(old, m), lam) + rounding
    coeffs, report = fit_group_lasso(design, lam, x0=start)
    cold, cold_report = fit_group_lasso(design, lam)
    assert report.converged and cold_report.converged
    assert abs(report.objective - cold_report.objective) <= 1e-9 * max(1.0, y_sq / N)
    if report.method == "newton":
        assert kkt_residuals(design, coeffs, lam).max() <= 1e-8


def mapping_norm(design, B, lam):
    """The prox-gradient mapping norm at the coefficients ``B``, from raw residuals."""
    step = 1.0 / design.lipschitz()
    grad = np.array(
        [(2.0 / design.total_rows) * (phi.T @ (phi @ b - y))
         for phi, y, b in zip(design.F, design.Y, B)]
    )
    U = B - step * grad
    norms = np.sqrt((U * U).sum(axis=0))
    shrunk = U * np.maximum(0.0, 1.0 - lam * step / np.maximum(norms, 1e-300))
    return float(np.linalg.norm(B - shrunk)) / step


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
def test_newton_stops_at_the_precision_acceptance_needs(monkeypatch, tol):
    # Newton stops once its largest reduced-gradient entry is within
    # tol / (2 sqrt(m |S|)), and the point it returns still meets APG's stop
    # rule; a tighter tolerance takes at least as many steps
    design, lam = shared_support_design(6)
    steps = {}
    newton = group_lasso._newton_finish

    def spy(F, C, N, lam, x, tol):
        point, taken = newton(F, C, N, lam, x, tol)
        steps[tol] = steps.get(tol, 0) + taken
        return point, taken

    monkeypatch.setattr(group_lasso, "_newton_finish", spy)
    monkeypatch.setattr(group_lasso, "TOL", tol)
    coeffs, report = fit_group_lasso(design, lam)
    monkeypatch.setattr(group_lasso, "TOL", 1e-13)
    tight, tight_report = fit_group_lasso(design, lam)
    assert report.method == tight_report.method == "newton"
    assert report.map_norm <= tol
    assert mapping_norm(design, coeffs, lam) <= tol
    assert steps[tol] <= steps[1e-13]
    assert np.array_equal(group_norms(coeffs) > 0.0, group_norms(tight) > 0.0)
