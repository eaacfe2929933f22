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
its square is |J*| * sum_j (beta^(j))^2, which is what the kernel Gram
quadratic form recovers.

Lookup tables hold pre-evaluated objectives on a finite point set (one column
per task) and stand in for environments whose truth is unknown. For feature
evaluation each coordinate axis is mapped affinely onto the atlas domain
(the table's smallest value to the domain's lower end, its largest to the
upper end), so ``legendre1d`` sees all of [-1, 1] and the cosine families
all of [0, 1]; the table itself keeps its raw coordinates.

Both kinds give the runners ``p``, ``grid_size`` and ``task_view(s)`` from
one base. All randomness flows through :mod:`.seeding` substreams, so any
single task can be replayed in isolation. A task's observation noise has one
source, its view's substream: ``observe`` draws it one term at a time and
``noise_terms`` many in one call, and the offline recovery sweep adds those
terms to the task's values at its own off-grid points.

The candidate grid and its feature table depend only on the family, p and
the grid resolution, not on the seed, so every ``SyntheticEnvironment`` of
a process with the same three shares one read-only pair of arrays, built
once (``_grid_table``).
"""

from __future__ import annotations

import functools
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
        for name in ("norm_bound", "beta_min", "noise"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
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
    rng: np.random.Generator,
) -> np.ndarray:
    """One task's coefficient vector, shape (p,).

    Active groups get the sign of a standard Gaussian draw (the unit
    direction in one dimension) times a magnitude drawn uniformly from
    [beta_min, norm_bound / sqrt(|J*|)]; inactive groups are exactly zero.
    """
    beta = np.zeros(spec.p)
    hi = spec.norm_bound / np.sqrt(len(support))
    for j in support:
        direction = rng.standard_normal()
        beta[j - 1] = math.copysign(rng.uniform(spec.beta_min, hi), direction)
    return beta


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


def read_csv_rows(lines, dtype, **options) -> np.ndarray:
    """The comma-separated cells of ``lines`` (strings without line ends) at
    ``dtype``, by numpy's text reader: the one reader of the package's CSV
    files (``LookupTable`` and ``harness.RegretTrace``), so both accept the
    same cells. No row is a comment, so a ``#`` raises ``ValueError``, as do
    a ``_`` digit separator, a non-ASCII digit, a cell ``dtype`` cannot hold
    and a row whose cell count differs from the others' (or from a
    structured ``dtype``'s). Lines holding no row make numpy warn, so callers
    pass at least one nonempty line. ``options`` go to ``np.loadtxt``.
    """
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, **options)


@functools.lru_cache(maxsize=4)
def _grid_table(family: BasisFamily, p: int, grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """The candidate grid of an atlas and its feature table, both read-only."""
    atlas = FeatureAtlas(family, p)
    grid = uniform_grid(atlas.domain, grid_points)
    features = atlas.concat_many(grid)
    grid.setflags(write=False)
    features.setflags(write=False)
    return grid, features


class TaskView:
    """One task's noiseless values on the grid, their maximum ``opt_value``,
    and its noise stream.

    ``observe`` draws noise in call order from the task's own substream, so a
    fresh view replays identical observations.
    """

    def __init__(self, values: np.ndarray, noise: float, rng: np.random.Generator) -> None:
        self.values = values
        self.noise = noise
        self._rng = rng
        self.opt_value = float(values.max())

    def observe(self, grid_index: int) -> float:
        y = float(self.values[grid_index])
        if self.noise > 0:
            y += self.noise * float(self._rng.standard_normal())
        return y

    def noise_terms(self, count: int) -> np.ndarray:
        """What the next ``count`` ``observe`` calls would add to the values.

        One ``standard_normal(count)`` call draws the same numbers as
        ``count`` scalar draws, so ``values[i] + terms[k]`` is bit for bit the
        k-th observation. Without noise nothing is drawn and every term is
        -0.0, which leaves every value, a signed zero included, unchanged.
        """
        if self.noise > 0:
            return self.noise * self._rng.standard_normal(count)
        return np.full(count, -0.0)

    def regret(self, grid_index):
        """Regret of a grid index, or of each of an array of them."""
        return self.opt_value - self.values[grid_index]


class _TaskGrid:
    """What the runners read of an environment. A subclass sets ``atlas``,
    ``grid``, the (G, m) task ``values`` on it, ``noise``, ``m`` and
    ``master_seed``."""

    @property
    def p(self) -> int:
        return self.atlas.p

    @property
    def grid_size(self) -> int:
        return self.grid.shape[0]

    def task_view(self, s: int) -> TaskView:
        """Fresh view of task s (1-based) with a fresh noise substream."""
        if not 1 <= s <= self.m:
            raise IndexError(f"task index {s} outside 1..{self.m}")
        return TaskView(
            self.values[:, s - 1],
            self.noise,
            substream(self.master_seed, STREAM_NOISE, s),
        )


class SyntheticEnvironment(_TaskGrid):
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

    ``grid`` and ``grid_features`` are read-only arrays shared by every
    environment of the process with the same family, p and resolution.
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
        self.noise = spec.noise
        self.m = n_tasks
        self.master_seed = int(master_seed)
        self.atlas = FeatureAtlas(spec.family, spec.p)
        if grid_points is None:
            grid_points = GRID_POINTS_1D if self.atlas.dim_in == 1 else GRID_POINTS_PER_AXIS_2D
        self.grid, self.grid_features = _grid_table(spec.family, spec.p, grid_points)
        self.support = sample_support(spec, substream(self.master_seed, STREAM_SUPPORT))
        self.coeffs = np.stack(
            [
                sample_coefficients(
                    spec, self.support, substream(self.master_seed, STREAM_COEFF, s)
                )
                for s in range(1, self.m + 1)
            ]
        )
        # grid values per task, shape (G, m)
        self.values = self.grid_features @ self.coeffs.T


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
        rows = lines[1:]
        for k, ln in enumerate(rows, start=2):
            if ln.count(",") != len(header) - 1:
                raise DataError(f"line {k}: expected {len(header)} cells")
        try:
            data = read_csv_rows(rows, np.float64, ndmin=2)
        except ValueError as exc:
            # name the first line the reader rejects on its own
            for k, ln in enumerate(rows, start=2):
                try:
                    read_csv_rows([ln], np.float64)
                except ValueError as line_exc:
                    raise DataError(f"line {k}: {line_exc}") from None
            raise DataError(f"lookup table: {exc}") from None
        return cls(header[:n_axes], header[n_axes:], data[:, :n_axes], data[:, n_axes:])

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "LookupTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


class LookupEnvironment(_TaskGrid):
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
        self.master_seed = int(master_seed)
        self.noise = float(noise)
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValueError("noise level must be finite and nonnegative")
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
