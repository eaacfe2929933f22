"""Basis dictionaries and averaged kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong_bandits.errors import DomainError
from lifelong_bandits.features import BasisFamily, FeatureAtlas
from lifelong_bandits.gp_ucb import LockstepUcb, UcbConfig

ALL_FAMILIES = [BasisFamily.COSINE_1D, BasisFamily.LEGENDRE_1D, BasisFamily.COSINE_2D]


def mid_domain(atlas):
    return atlas.domain.mean(axis=1)


def group_value(family, p, j, x):
    """Group j of a p-group atlas at one point, from the family's closed form."""
    if family is BasisFamily.COSINE_1D:
        return math.cos(j * math.pi * x[0])
    if family is BasisFamily.LEGENDRE_1D:
        return np.polynomial.legendre.Legendre.basis(j)(x[0])
    side = math.isqrt(p - 1) + 1  # pairs (a, b) run row-major over 1..side
    a, b = divmod(j - 1, side)
    return math.cos((a + 1) * math.pi * x[0]) * math.cos((b + 1) * math.pi * x[1])


def prior_kernel(atlas, kernel, X):
    """Gram matrix of the averaged kernel between the points X as the bandit
    consumes it: the prior covariance lam^2 f(x)^T A^{-1} f(y), at lam = 1, of
    a one-agent ``LockstepUcb`` over their atlas rows."""
    group = LockstepUcb(atlas.concat_many(X), [kernel], UcbConfig(lam=1.0))
    return group.features @ group.inv[0] @ group.features.T


class TestEvalFeature:
    def test_cosine_first_group_at_zero(self):
        atlas = FeatureAtlas(BasisFamily.COSINE_1D, p=8)
        assert atlas.concat_many(0.0)[0, 0] == pytest.approx(1.0)

    def test_cosine_second_group_at_half(self):
        atlas = FeatureAtlas(BasisFamily.COSINE_1D, p=8)
        assert atlas.concat_many(0.5)[0, 1] == pytest.approx(-1.0)

    def test_legendre_degree_two_at_half(self):
        # hand recurrence: P2(x) = (3x^2 - 1)/2, so P2(0.5) = -0.125
        atlas = FeatureAtlas(BasisFamily.LEGENDRE_1D, p=4)
        assert atlas.concat_many(0.5)[0, 1] == pytest.approx(-0.125, abs=1e-14)

    def test_tensor_pair_enumeration(self):
        # p=4 maps groups 1..4 to pairs (1,1), (1,2), (2,1), (2,2)
        atlas = FeatureAtlas(BasisFamily.COSINE_2D, p=4)
        val = atlas.concat_many((0.5, 1.0))[0, 2]
        assert val == pytest.approx(np.cos(2 * np.pi * 0.5) * np.cos(np.pi * 1.0))
        assert val == pytest.approx(1.0)

    def test_tensor_truncation_count(self):
        atlas = FeatureAtlas(BasisFamily.COSINE_2D, p=50)
        assert atlas.concat_many([[0.3, 0.7]]).shape == (1, 50)

    def test_out_of_domain_rejected(self):
        atlas = FeatureAtlas(BasisFamily.COSINE_1D, p=3)
        with pytest.raises(DomainError):
            atlas.concat_many(1.5)
        with pytest.raises(DomainError):
            FeatureAtlas(BasisFamily.LEGENDRE_1D, p=3).concat_many(-1.01)


class TestEvalConcat:
    def test_all_ones_at_zero(self):
        atlas = FeatureAtlas(BasisFamily.COSINE_1D, p=3)
        np.testing.assert_allclose(atlas.concat_many(0.0)[0], [1.0, 1.0, 1.0])

    def test_half_point_values(self):
        atlas = FeatureAtlas(BasisFamily.COSINE_1D, p=2)
        vec = atlas.concat_many(0.5)[0]
        assert abs(vec[0]) < 1e-15
        assert vec[1] == pytest.approx(-1.0)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_concat_matches_per_group_calls(self, family):
        atlas = FeatureAtlas(family, p=7)
        rng = np.random.default_rng(3)
        lo, hi = atlas.domain[:, 0], atlas.domain[:, 1]
        for _ in range(5):
            x = rng.uniform(lo, hi)
            per_group = [group_value(family, 7, j, x) for j in range(1, 8)]
            np.testing.assert_allclose(atlas.concat_many(x)[0], per_group, rtol=0, atol=1e-13)

    def test_concat_many_flat_batch(self):
        atlas = FeatureAtlas(BasisFamily.COSINE_1D, p=4)
        xs = np.array([0.0, 0.25, 1.0])
        table = atlas.concat_many(xs)
        assert table.shape == (3, 4)
        np.testing.assert_allclose(table[0], atlas.concat_many(0.0)[0])


class TestKernelEval:
    def test_single_group_at_origin(self):
        atlas = FeatureAtlas(BasisFamily.COSINE_1D, p=3)
        kernel = (1,)
        assert prior_kernel(atlas, kernel, 0.0)[0, 0] == pytest.approx(1.0)

    def test_two_group_average_at_origin(self):
        atlas = FeatureAtlas(BasisFamily.COSINE_1D, p=3)
        kernel = (1, 2)
        assert prior_kernel(atlas, kernel, 0.0)[0, 0] == pytest.approx(1.0)

    def test_two_group_average_mixed_points(self):
        # (cos(pi/2)*1 + cos(pi)*1) / 2 = -0.5
        atlas = FeatureAtlas(BasisFamily.COSINE_1D, p=3)
        kernel = (1, 2)
        assert prior_kernel(atlas, kernel, [0.0, 0.5])[0, 1] == pytest.approx(-0.5, abs=1e-12)

    def test_symmetry(self):
        atlas = FeatureAtlas(BasisFamily.LEGENDRE_1D, p=6)
        kernel = (2, 3, 5)
        gram = prior_kernel(atlas, kernel, [0.3, -0.7])
        assert gram[0, 1] == pytest.approx(gram[1, 0], abs=1e-14)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_gram_psd_on_samples(family):
    atlas = FeatureAtlas(family, p=9)
    rng = np.random.default_rng(11)
    lo, hi = atlas.domain[:, 0], atlas.domain[:, 1]
    X = rng.uniform(lo, hi, size=(40, atlas.dim_in))
    kernel = (1, 4, 9)
    gram = prior_kernel(atlas, kernel, X)
    assert np.linalg.eigvalsh(gram)[0] >= -1e-9


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_kernel_diagonal_bounded(family):
    atlas = FeatureAtlas(family, p=12)
    rng = np.random.default_rng(7)
    lo, hi = atlas.domain[:, 0], atlas.domain[:, 1]
    # k(x, x) under every group is the mean square of the atlas row at x
    for _ in range(200):
        x = rng.uniform(lo, hi)
        assert np.mean(atlas.concat_many(x)[0] ** 2) <= 1.0 + 1e-12


def test_gram_equals_scaled_feature_product():
    atlas = FeatureAtlas(BasisFamily.COSINE_1D, p=6)
    kernel = (2, 5)
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 1, size=(15, 1))
    raw = atlas.concat_many(X)[:, [1, 4]]
    gram = prior_kernel(atlas, kernel, X)
    np.testing.assert_allclose(gram, raw @ raw.T / len(kernel), atol=1e-12)


def test_cosine_near_orthogonality_on_uniform_samples():
    # empirical cross-moments vanish as the sample grows
    atlas = FeatureAtlas(BasisFamily.COSINE_1D, p=6)
    rng = np.random.default_rng(123)
    x = rng.uniform(0, 1, size=100_000)
    table = atlas.concat_many(x)
    cross = table.T @ table / x.shape[0]
    off = cross - np.diag(np.diag(cross))
    assert np.abs(off).max() < 0.02


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=1.0),
    y=st.floats(min_value=0.0, max_value=1.0),
)
def test_kernel_value_symmetric_property(x, y):
    atlas = FeatureAtlas(BasisFamily.COSINE_1D, p=5)
    kernel = (1, 3)
    gram = prior_kernel(atlas, kernel, [x, y])
    assert gram[0, 1] == pytest.approx(gram[1, 0], abs=1e-13)
