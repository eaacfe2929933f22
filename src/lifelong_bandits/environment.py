"""Reward environments: synthetic sparse-basis tasks and lookup tables.

Synthetic tasks share one hidden subset J* of basis groups. Task s's reward
function is f_s(x) = sum_{j in J*} beta_s^(j) . phi_j(x); observations add
Gaussian noise. Per task, each true-support coefficient is a random sign (of
a standard Gaussian draw) times a magnitude drawn uniformly from
[beta_min, norm_bound / sqrt(|J*|)], which guarantees both the beta-min floor
and sqrt(sum_j (beta_s^(j))^2) <= norm_bound.

Two norms show up and they differ; both are deliberate. The sampler caps the
plain coefficient norm sqrt(sum_j (beta^(j))^2) at ``norm_bound``. The
reproducing-kernel norm of f under the averaged kernel over J* is larger:
``rkhs_norm_sq(beta, support)`` returns |J*| * sum_j (beta^(j))^2 from the
coefficients and the support alone, and that value is what the kernel Gram
quadratic form recovers.

Lookup tables hold pre-evaluated objectives on a finite point set (one column
per task) and stand in for environments whose truth is unknown. For feature
evaluation each coordinate axis is mapped affinely onto the atlas domain
(the table's smallest value to the domain's lower end, its largest to the
upper end), so ``legendre1d`` sees all of [-1, 1] and the cosine families
all of [0, 1]; raw coordinates are kept for user-facing lookups.

All randomness flows through :mod:`.seeding` substreams, so any single task
can be replayed in isolation.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .features import BasisFamily, FeatureAtlas
from .seeding import STREAM_COEFF, STREAM_NOISE, STREAM_SUPPORT, substream

GRID_POINTS_1D = 500
GRID_POINTS_PER_AXIS_2D = 71


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic task distribution.

    Defaults are the standard synthetic benchmark: 50 cosine groups, 5 of
    them active, norm cap 10, per-block floor 0.5, noise 0.1.
    """

    family: BasisFamily = BasisFamily.COSINE_1D
    p: int = 50
    support_size: int = 5
    norm_bound: float = 10.0
    beta_min: float = 0.5
    noise: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", BasisFamily(self.family))
        if not 1 <= self.support_size <= self.p:
            raise ValueError("support size must lie in 1..p")
        if self.beta_min <= 0:
            raise ValueError("beta_min must be positive")
        if self.beta_min * np.sqrt(self.support_size) > self.norm_bound:
            raise ValueError(
                "infeasible: beta_min * sqrt(support_size) exceeds norm_bound"
            )
        if self.noise < 0:
            raise ValueError("noise level must be nonnegative")


def sample_support(spec: SyntheticSpec, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform random support: a sorted |J*|-subset of {1..p}, 1-based."""
    picks = rng.choice(spec.p, size=spec.support_size, replace=False)
    return tuple(sorted(int(j) + 1 for j in picks))


def sample_coefficients(
    spec: SyntheticSpec,
    support: tuple[int, ...],
    atlas: FeatureAtlas,
    rng: np.random.Generator,
) -> np.ndarray:
    """One task's coefficient vector, shape (p,).

    Active groups get the sign of a standard Gaussian draw (the unit
    direction in one dimension) times a magnitude drawn uniformly from
    [beta_min, norm_bound / sqrt(|J*|)]; inactive groups are exactly zero.
    """
    beta = np.zeros(atlas.p)
    hi = spec.norm_bound / np.sqrt(len(support))
    for j in support:
        direction = rng.standard_normal()
        beta[j - 1] = math.copysign(rng.uniform(spec.beta_min, hi), direction)
    return beta


def rkhs_norm_sq(beta: np.ndarray, support: tuple[int, ...]) -> float:
    """Squared norm of f = sum_j beta^(j) phi_j under the averaged kernel
    over ``support``: |J*| times the summed squared coefficients."""
    return len(support) * sum(float(beta[j - 1] * beta[j - 1]) for j in support)


def uniform_grid(domain: np.ndarray, points_per_axis: int) -> np.ndarray:
    """Evenly spaced candidate grid on a box, shape (G, dim_in).

    Rows are ordered row-major with the first axis slowest; tie-breaking
    rules elsewhere refer to this ordering.
    """
    if points_per_axis < 2:
        raise ValueError("need at least two points per axis")
    axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in domain]
    if len(axes) == 1:
        return axes[0].reshape(-1, 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def optimum_on_grid(values: np.ndarray) -> tuple[int, float]:
    """Index and value of the maximum; ties go to the lowest index."""
    idx = int(np.argmax(values))
    return idx, float(values[idx])


class TaskView:
    """One task's noiseless values on the grid plus its noise stream.

    ``observe`` draws noise in call order from the task's own substream, so a
    fresh view replays identical observations.
    """

    def __init__(self, values: np.ndarray, noise: float, rng: np.random.Generator) -> None:
        self.values = values
        self.noise = noise
        self._rng = rng
        self.opt_index, self.opt_value = optimum_on_grid(values)

    def observe(self, grid_index: int) -> float:
        y = float(self.values[grid_index])
        if self.noise > 0:
            y += self.noise * float(self._rng.standard_normal())
        return y

    def regret(self, grid_index: int) -> float:
        return self.opt_value - float(self.values[grid_index])


class SyntheticEnvironment:
    """A sequence of synthetic tasks over one hidden support.

    Parameters
    ----------
    spec : SyntheticSpec
    n_tasks : int
        Number of tasks m.
    master_seed : int
        Root of all substreams (support, per-task coefficients, noise).
    grid_points : int, optional
        Candidate-grid resolution per axis; defaults to 500 in one dimension
        and 71 per axis in two.
    """

    def __init__(
        self,
        spec: SyntheticSpec,
        n_tasks: int,
        master_seed: int,
        grid_points: int | None = None,
    ) -> None:
        if n_tasks < 1:
            raise ValueError("need at least one task")
        self.spec = spec
        self.m = n_tasks
        self.master_seed = int(master_seed)
        self.atlas = FeatureAtlas(spec.family, spec.p)
        if grid_points is None:
            grid_points = GRID_POINTS_1D if self.atlas.dim_in == 1 else GRID_POINTS_PER_AXIS_2D
        self.grid = uniform_grid(self.atlas.domain, grid_points)
        self.grid_features = self.atlas.concat_many(self.grid)
        self.support = sample_support(spec, substream(self.master_seed, STREAM_SUPPORT))
        self.coeffs = np.stack(
            [
                sample_coefficients(
                    spec, self.support, self.atlas, substream(self.master_seed, STREAM_COEFF, s)
                )
                for s in range(1, self.m + 1)
            ]
        )
        # grid values per task, shape (G, m)
        self.values = self.grid_features @ self.coeffs.T

    @property
    def p(self) -> int:
        return self.spec.p

    @property
    def beta_min(self) -> float:
        """The environment's true per-block floor c1 (used for thresholds)."""
        return self.spec.beta_min

    @property
    def grid_size(self) -> int:
        return self.grid.shape[0]

    def task_view(self, s: int) -> TaskView:
        """Fresh view of task s (1-based) with a fresh noise substream."""
        if not 1 <= s <= self.m:
            raise IndexError(f"task index {s} outside 1..{self.m}")
        return TaskView(
            self.values[:, s - 1],
            self.spec.noise,
            substream(self.master_seed, STREAM_NOISE, s),
        )

    def reward_continuous(
        self, s: int, X: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Noisy rewards of task s at arbitrary in-domain points."""
        return self.rewards_at(s, self.atlas.concat_many(X), rng)

    def rewards_at(self, s: int, features: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Noisy rewards of task s at the points whose feature rows
        (``atlas.concat_many`` of them) are ``features``."""
        if not 1 <= s <= self.m:
            raise IndexError(f"task index {s} outside 1..{self.m}")
        f = features @ self.coeffs[s - 1]
        if self.spec.noise > 0:
            f = f + self.spec.noise * rng.standard_normal(f.shape)
        return f


class LookupTable:
    """Tabulated objectives: points plus one value column per task.

    File format: delimited text (comma separated), one header row, one row
    per grid point. Header columns ``x1..xd`` (a nonempty prefix) name the
    axes; every remaining column is a task in order.
    """

    def __init__(self, axis_names, task_names, points, values) -> None:
        self.axis_names = list(axis_names)
        self.task_names = list(task_names)
        self.points = np.asarray(points, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.points.ndim != 2 or self.values.ndim != 2:
            raise DataError("points and values must be 2-d")
        if self.points.shape[0] != self.values.shape[0]:
            raise DataError("points and values must have matching rows")
        if self.points.shape[1] != len(self.axis_names):
            raise DataError("axis names do not match point columns")
        if self.values.shape[1] != len(self.task_names):
            raise DataError("task names do not match value columns")
        if self.points.shape[0] == 0:
            raise DataError("lookup table has no rows")
        if not (np.all(np.isfinite(self.points)) and np.all(np.isfinite(self.values))):
            raise DataError("lookup table contains non-finite entries")

    @property
    def n_tasks(self) -> int:
        return self.values.shape[1]

    @property
    def dim_in(self) -> int:
        return self.points.shape[1]

    def eval(self, task: int, x) -> float:
        """Value of ``task`` (1-based) at the nearest grid point to x.

        Nearest is Euclidean in the table's own coordinates; ties go to the
        lowest row index.
        """
        if not 1 <= task <= self.n_tasks:
            raise IndexError(f"task index {task} outside 1..{self.n_tasks}")
        q = np.asarray(x, dtype=float).reshape(-1)
        if q.shape[0] != self.dim_in:
            raise ValueError(f"expected {self.dim_in} coordinates")
        dist_sq = ((self.points - q) ** 2).sum(axis=1)
        return float(self.values[int(np.argmin(dist_sq)), task - 1])

    def normalized_points(self) -> np.ndarray:
        """Points affinely rescaled to the unit box, degenerate axes to 0."""
        lo = self.points.min(axis=0)
        span = self.points.max(axis=0) - lo
        span = np.where(span > 0, span, 1.0)
        return (self.points - lo) / span

    def to_text(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.axis_names + self.task_names) + "\n")
        for row_pt, row_val in zip(self.points, self.values):
            cells = [repr(float(v)) for v in row_pt] + [repr(float(v)) for v in row_val]
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "LookupTable":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if len(lines) < 2:
            raise DataError("lookup table needs a header and at least one row")
        header = [c.strip() for c in lines[0].split(",")]
        n_axes = 0
        while n_axes < len(header) and header[n_axes] == f"x{n_axes + 1}":
            n_axes += 1
        if n_axes == 0:
            raise DataError("header must start with axis columns x1, x2, ...")
        if n_axes == len(header):
            raise DataError("lookup table has no task columns")
        rows = []
        for k, ln in enumerate(lines[1:], start=2):
            cells = ln.split(",")
            if len(cells) != len(header):
                raise DataError(f"line {k}: expected {len(header)} cells")
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise DataError(f"line {k}: {exc}") from None
        data = np.asarray(rows)
        return cls(header[:n_axes], header[n_axes:], data[:, :n_axes], data[:, n_axes:])

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "LookupTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


class LookupEnvironment:
    """Adapter that runs bandit loops on a lookup table.

    The candidate grid is the table's point set mapped affinely onto the
    atlas domain for feature evaluation; observations return exact table
    values unless a noise level is configured. The true support is unknown,
    so ``support`` is None and recovery flags are not defined.
    """

    def __init__(
        self,
        table: LookupTable,
        master_seed: int,
        family: BasisFamily | str = BasisFamily.COSINE_2D,
        p: int = 100,
        noise: float = 0.0,
    ) -> None:
        self.table = table
        self.master_seed = int(master_seed)
        self.noise = float(noise)
        if self.noise < 0:
            raise ValueError("noise level must be nonnegative")
        self.atlas = FeatureAtlas(BasisFamily(family), p)
        if self.atlas.dim_in != table.dim_in:
            raise ConfigError(
                f"atlas expects {self.atlas.dim_in}-d inputs, table has {table.dim_in}"
            )
        self.m = table.n_tasks
        lo, hi = self.atlas.domain[:, 0], self.atlas.domain[:, 1]
        self.grid = lo + (hi - lo) * table.normalized_points()
        self.grid_features = self.atlas.concat_many(self.grid)
        self.support = None
        self.values = table.values

    @property
    def p(self) -> int:
        return self.atlas.p

    @property
    def grid_size(self) -> int:
        return self.grid.shape[0]

    def task_view(self, s: int) -> TaskView:
        if not 1 <= s <= self.m:
            raise IndexError(f"task index {s} outside 1..{self.m}")
        return TaskView(
            self.values[:, s - 1],
            self.noise,
            substream(self.master_seed, STREAM_NOISE, s),
        )
