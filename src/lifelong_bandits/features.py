"""Finite basis dictionaries and averaged kernels built from them.

A feature atlas is an ordered dictionary of p basis groups over a box domain.
Every group is scalar: group j is one basis function phi_j. The atlas
evaluates the full feature vector phi = (phi_1, ..., phi_p) at a batch of
points (``concat_many``), so group j is column j - 1 of the feature table,
and a single point is a batch of one. The families:

``cosine1d``
    phi_j(x) = cos(j * pi * x) on [0, 1]. No sqrt(2) normalization.
``legendre1d``
    phi_j(x) = P_j(x), the degree-j Legendre polynomial on [-1, 1] with the
    standard normalization P_j(1) = 1. Degree 0 is not included.
``cosine2d``
    phi_(a,b)(x) = cos(a * pi * x1) * cos(b * pi * x2) on [0, 1]^2, index
    pairs (a, b) enumerated row-major over {1..ceil(sqrt(p))}^2 and truncated
    to the first p.

A subset J of group indices induces the averaged kernel

    k_J(x, y) = (1/|J|) * sum_{j in J} phi_j(x)^T phi_j(y),

which is the object the bandit solver consumes. Group indices are 1-based
throughout the public API: the index is the basis frequency or degree, so it
is meaningful, not positional.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EmptyKernelError

_DOMAIN_SLACK = 1e-12


class BasisFamily(str, enum.Enum):
    """Built-in basis families."""

    COSINE_1D = "cosine1d"
    LEGENDRE_1D = "legendre1d"
    COSINE_2D = "cosine2d"


def _pairs_row_major(p: int) -> np.ndarray:
    """Index pairs (a, b) for the 2-d cosine family, row-major, truncated."""
    side = math.isqrt(p - 1) + 1  # ceil(sqrt(p))
    pairs = [(a, b) for a in range(1, side + 1) for b in range(1, side + 1)]
    return np.asarray(pairs[:p], dtype=np.int64)


@dataclass(frozen=True)
class FeatureAtlas:
    """Immutable dictionary of p basis groups over a box domain.

    Parameters
    ----------
    family : BasisFamily
        Which built-in family the groups come from.
    p : int
        Number of groups, >= 1.

    Attributes
    ----------
    domain : ndarray of shape (dim_in, 2)
        Per-axis [low, high] bounds of the box the atlas is defined on.
    """

    family: BasisFamily
    p: int
    domain: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("need at least one basis group")
        family = BasisFamily(self.family)
        object.__setattr__(self, "family", family)
        if family is BasisFamily.LEGENDRE_1D:
            dom = np.array([[-1.0, 1.0]])
        elif family is BasisFamily.COSINE_2D:
            dom = np.array([[0.0, 1.0], [0.0, 1.0]])
        else:
            dom = np.array([[0.0, 1.0]])
        dom.setflags(write=False)
        object.__setattr__(self, "domain", dom)

    @property
    def dim_in(self) -> int:
        """Dimension of the input space."""
        return self.domain.shape[0]

    def _check_points(self, points: np.ndarray) -> None:
        lo = self.domain[:, 0] - _DOMAIN_SLACK
        hi = self.domain[:, 1] + _DOMAIN_SLACK
        if np.any(points < lo) or np.any(points > hi):
            raise DomainError("point outside the atlas domain")

    def _as_points(self, x) -> np.ndarray:
        """Coerce x to an (n, dim_in) array."""
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            if self.dim_in == 1 and arr.shape[0] != 1:
                # a flat vector of scalar inputs
                arr = arr.reshape(-1, 1)
            else:
                arr = arr.reshape(1, -1)
        if arr.shape[-1] != self.dim_in:
            raise ValueError(
                f"expected points with {self.dim_in} coordinate(s), "
                f"got shape {arr.shape}"
            )
        self._check_points(arr)
        return arr

    def concat_many(self, X) -> np.ndarray:
        """Concatenated features for a batch of points, shape (n, p).

        A flat array is read as a batch of scalar inputs when dim_in == 1 and
        as a single point otherwise.
        """
        points = self._as_points(X)
        if self.family is BasisFamily.COSINE_1D:
            freqs = np.arange(1, self.p + 1)
            return np.cos(np.pi * points[:, :1] * freqs)
        if self.family is BasisFamily.LEGENDRE_1D:
            vander = np.polynomial.legendre.legvander(points[:, 0], self.p)
            return vander[:, 1:]
        pairs = _pairs_row_major(self.p)
        return np.cos(np.pi * points[:, :1] * pairs[:, 0]) * np.cos(
            np.pi * points[:, 1:2] * pairs[:, 1]
        )


@dataclass(frozen=True)
class KernelEstimate:
    """A subset of atlas groups treated as an averaged kernel.

    ``selected`` holds sorted, unique, 1-based group indices. The induced
    kernel weights each selected group by 1/|selected|; an empty selection
    carries no kernel and evaluation raises :class:`EmptyKernelError`.
    """

    p: int
    selected: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("need at least one group")
        sel = tuple(sorted(int(j) for j in self.selected))
        if len(set(sel)) != len(sel):
            raise ValueError("selected indices must be unique")
        if sel and not (1 <= sel[0] and sel[-1] <= self.p):
            raise IndexError(f"selected indices outside 1..{self.p}")
        object.__setattr__(self, "selected", sel)

    @classmethod
    def full(cls, p: int) -> "KernelEstimate":
        """The estimate selecting every group."""
        return cls(p=p, selected=tuple(range(1, p + 1)))

    @property
    def size(self) -> int:
        return len(self.selected)

    @property
    def is_empty(self) -> bool:
        return not self.selected

    @property
    def weight(self) -> float | None:
        """Per-group weight 1/|selected|, or None when nothing is selected."""
        return None if self.is_empty else 1.0 / len(self.selected)


def selected_features(
    atlas: FeatureAtlas,
    estimate: KernelEstimate,
    X,
    scaled: bool = True,
) -> np.ndarray:
    """Features of the selected groups for a batch of points.

    With ``scaled=True`` (the default) each column is multiplied by
    sqrt(1/|selected|), so that the plain inner product of two rows equals the
    averaged kernel value. This is the representation the bandit solver's
    primal posterior consumes.
    """
    if estimate.is_empty:
        raise EmptyKernelError("kernel estimate selects no groups")
    if estimate.p != atlas.p:
        raise ValueError("estimate and atlas disagree on the number of groups")
    table = atlas.concat_many(X)[:, np.asarray(estimate.selected, dtype=np.intp) - 1]
    if scaled:
        table = table * math.sqrt(estimate.weight)
    return table


def kernel_value(atlas: FeatureAtlas, estimate: KernelEstimate, x, y) -> float:
    """Averaged kernel value k(x, y) under the estimate's selection."""
    fx = selected_features(atlas, estimate, np.atleast_2d(np.asarray(x, float)))
    fy = selected_features(atlas, estimate, np.atleast_2d(np.asarray(y, float)))
    return float(fx[0] @ fy[0])


def kernel_gram(atlas: FeatureAtlas, estimate: KernelEstimate, X, Y=None) -> np.ndarray:
    """Gram matrix of kernel values between two point batches."""
    fx = selected_features(atlas, estimate, X)
    fy = fx if Y is None else selected_features(atlas, estimate, Y)
    return fx @ fy.T
