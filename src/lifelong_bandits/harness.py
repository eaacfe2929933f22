"""Experiment configuration, the seed loop, and the result files.

Configs are flat ``key = value`` text. Each key is declared once, as a field
of ``ExperimentConfig`` that carries the parser of its text value and its
default for the lifelong kind; ``_KIND_DEFAULTS`` overrides some defaults per
kind, so an empty config runs the reference setup for its kind. Float keys
must be finite. The canonical serialization sorts keys, and the config
digest is the sha256 of that canonical text, which makes it stable under
reordering of the input.

``run_experiment`` runs every kind through one seed loop: a seed that raises
becomes a row of ``failures.csv`` and the loop goes on; the run raises only
when every seed failed. Every result file is CSV written by one helper.
Floats are written as the repr of a Python float and parsed with float, so
a written file reproduces the in-memory arrays bit for bit and identical
runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from .environment import LookupEnvironment, LookupTable, SyntheticEnvironment, SyntheticSpec
from .errors import ConfigError, DataError
from .features import BasisFamily, FeatureAtlas
from .federated import run_federated
from .gp_ucb import UcbConfig
from .lifelong import (
    BASELINE_KERNELS,
    LAM_POLICIES,
    META_DATA,
    LifelongRunRecord,
    ScheduleMode,
    run_baseline,
    run_lifelong,
)
# recovery_trial stays bound here: perfbench's tracer wraps this binding
from .selection import recovery_sweep, recovery_trial  # noqa: F401

# the experiment kinds, and the defaults each one overrides
_KIND_DEFAULTS = {
    "offline": {"m": "30", "n": "10", "lam": "0.25"},
    "lifelong": {},
    "lookup": {
        "family": "cosine2d",
        "p": "100",
        "noise": "0.0",
        "m": "0",
        "n": "144",
        "lam": "0.015",
    },
    "federated": {"lam": "0.2", "schedule": "constant"},
    "baseline_oracle": {"baseline_kernel": "oracle"},
    "baseline_full": {"baseline_kernel": "full"},
}
KINDS = tuple(_KIND_DEFAULTS)


def _parse_seeds(text: str) -> tuple[int, ...]:
    """A bare integer is a count (seeds 0..k-1); a comma list is literal."""
    text = text.strip()
    if not text:
        raise ConfigError("seeds must not be empty")
    if "," in text:
        parts = [p for p in text.split(",") if p.strip()]
        if not parts:
            raise ConfigError("seeds must not be empty")
        return tuple(int(p) for p in parts)
    count = int(text)
    if count < 1:
        raise ConfigError("seed count must be positive")
    return tuple(range(count))


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


def _parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _key(parse, default: str):
    """A config key: the parser of its text value and its lifelong-kind default."""
    return field(metadata={"parse": parse, "default": default})


@dataclass(frozen=True)
class ExperimentConfig:
    """A resolved experiment config: one field per key, declared by ``_key``."""

    kind: str = _key(str, "lifelong")
    seeds: tuple[int, ...] = _key(_parse_seeds, "20")
    out: str = _key(str, "")
    family: str = _key(str, "cosine1d")
    p: int = _key(int, "50")
    support_size: int = _key(int, "5")
    norm_bound: float = _key(_parse_finite, "10.0")
    beta_min: float = _key(_parse_finite, "0.5")
    noise: float = _key(_parse_finite, "0.1")
    grid: int = _key(int, "0")
    m: int = _key(int, "20")
    n: int = _key(int, "100")
    omega: float = _key(_parse_finite, "0.25")
    lam: float = _key(_parse_finite, "0.5")
    alpha: float = _key(_parse_finite, "0.25")
    lam_policy: str = _key(str, "inv_sqrt")
    meta_data: str = _key(str, "exploration")
    schedule: str = _key(str, "decreasing")
    nu: float = _key(_parse_finite, "10.0")
    lam_ucb: float = _key(_parse_finite, "0.1")
    table: str = _key(str, "")
    baseline_kernel: str = _key(str, "oracle")
    m_values: tuple[int, ...] = _key(_parse_int_list, ",".join(str(v) for v in range(1, 31)))
    solver_tol: float = _key(_parse_finite, "1e-08")
    solver_max_iter: int = _key(int, "50000")

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind: {self.kind!r}")
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must not repeat")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must be nonnegative")
        if self.kind == "lookup" and not self.table:
            raise ConfigError("lookup experiments need a table path")
        if self.kind == "offline" and self.table:
            raise ConfigError("offline experiments draw synthetic tasks; table does not apply")
        if self.n < 1:
            raise ConfigError("horizon must be positive")
        if self.m < 0:
            raise ConfigError("task count must be nonnegative")
        if self.m == 0 and not self.table:
            raise ConfigError("m=0 (all tasks) only applies with a table")
        BasisFamily(self.family)
        ScheduleMode(self.schedule)
        if self.lam_policy not in LAM_POLICIES:
            raise ConfigError(f"unknown lam policy: {self.lam_policy!r}")
        if self.meta_data not in META_DATA:
            raise ConfigError(f"unknown meta data policy: {self.meta_data!r}")
        if self.baseline_kernel not in BASELINE_KERNELS:
            raise ConfigError(f"unknown baseline kernel: {self.baseline_kernel!r}")
        if self.kind.startswith("baseline_") and self.kind != "baseline_" + self.baseline_kernel:
            raise ConfigError(
                f"kind {self.kind} contradicts baseline_kernel={self.baseline_kernel}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        if self.kind == "offline" and not self.m_values:
            raise ConfigError("offline experiments need at least one m value")
        if self.kind == "offline" and min(self.m_values) < 1:
            raise ConfigError("every m value must be at least 1")
        if self.omega < 0:
            raise ConfigError("omega must be nonnegative")
        if self.lam < 0:
            raise ConfigError("lam must be nonnegative")
        if self.solver_tol <= 0:
            raise ConfigError("solver_tol must be positive")
        if self.solver_max_iter < 1:
            raise ConfigError("solver_max_iter must be positive")
        if self.grid < 0 or self.grid == 1:
            raise ConfigError("grid must be 0 (the family default) or at least 2")
        # the validators of the objects each seed builds, run once up front
        UcbConfig(nu=self.nu, lam=self.lam_ucb)
        if not self.table:
            _synthetic_spec(self)
        else:
            # the table's own dimension is checked once the table is read
            FeatureAtlas(self.family, self.p)
            if self.noise < 0:
                raise ConfigError("noise level must be nonnegative")

    def serialize(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()


def parse_pairs(text: str) -> dict[str, str]:
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def build_config(kind: str | None = None, pairs: dict[str, str] | None = None) -> ExperimentConfig:
    """Resolve key-value pairs against the defaults for the kind.

    The kind comes from ``pairs["kind"]`` when present; the ``kind``
    argument fills in when the pairs leave it out.
    """
    pairs = dict(pairs or {})
    keys = fields(ExperimentConfig)
    values = {f.name: f.metadata["default"] for f in keys}
    resolved_kind = pairs.get("kind", kind or values["kind"])
    if resolved_kind not in KINDS:
        raise ConfigError(f"unknown kind: {resolved_kind!r}")
    values.update(_KIND_DEFAULTS[resolved_kind])
    values["kind"] = resolved_kind
    for key, value in pairs.items():
        if key not in values:
            raise ConfigError(f"unknown config key: {key!r}")
        values[key] = value
    if values["lam_ucb"].strip().lower() == "theory":
        # theoretical regularizer 1 + 2/n, resolved here so the stored
        # config and its digest reflect the number actually used
        try:
            values["lam_ucb"] = repr(1.0 + 2.0 / int(values["n"]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot resolve lam_ucb=theory: {exc}") from exc
    try:
        return ExperimentConfig(**{f.name: f.metadata["parse"](values[f.name]) for f in keys})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(text: str, kind: str | None = None) -> ExperimentConfig:
    return build_config(kind, parse_pairs(text))


def load_config(path, kind: str | None = None) -> ExperimentConfig:
    return parse_config(Path(path).read_text(), kind)


def _csv(header: str, rows) -> str:
    """CSV text: the header, then one line per row of Python scalars.

    ``str`` of a Python float is its shortest round-tripping repr. Numpy
    scalars format by numpy's rules (their repr is not a plain number), so
    array columns go through ``tolist`` first.
    """
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def _columns_text(table) -> str:
    """CSV text of a dataclass of equal-length array columns, one row per index.

    One ``%s`` format per row gives the bytes of ``_csv``: ``%s`` is ``str``.
    """
    names = [f.name for f in fields(table)]
    line = ",".join(["%s"] * len(names))
    rows = zip(*(getattr(table, name).tolist() for name in names))
    return "\n".join([",".join(names), *(line % row for row in rows)]) + "\n"


def _standard_error(samples: np.ndarray) -> np.ndarray:
    """Per-column sample standard deviation over the rows, over sqrt(#rows).

    A single row gets a zero column.
    """
    k = samples.shape[0]
    if k < 2:
        return np.zeros(samples.shape[1])
    return samples.std(axis=0, ddof=1) / math.sqrt(k)


@dataclass
class RegretTrace:
    """Per-step regret record of one run; one row per bandit step."""

    step: np.ndarray
    task: np.ndarray
    instantaneous: np.ndarray
    cumulative: np.ndarray
    kernel_size: np.ndarray
    recovered: np.ndarray
    explored: np.ndarray

    def __post_init__(self):
        lengths = {len(getattr(self, f.name)) for f in fields(self)}
        if len(lengths) != 1:
            raise DataError("trace columns must have equal length")
        if not np.array_equal(self.cumulative, np.cumsum(self.instantaneous)):
            raise DataError("cumulative column must be the prefix sum")

    @classmethod
    def from_record(cls, record: LifelongRunRecord) -> "RegretTrace":
        tasks = record.tasks
        lengths = [len(t.regrets) for t in tasks]
        inst = np.concatenate([t.regrets for t in tasks])
        recovered = [-1 if t.recovered is None else int(t.recovered) for t in tasks]
        return cls(
            step=np.arange(1, len(inst) + 1),
            task=np.repeat([t.task for t in tasks], lengths),
            instantaneous=inst,
            cumulative=np.cumsum(inst),
            kernel_size=np.repeat([len(t.kernel) for t in tasks], lengths),
            recovered=np.repeat(recovered, lengths),
            explored=np.concatenate([t.explored.astype(int) for t in tasks]),
        )

    def to_text(self) -> str:
        return _columns_text(self)

    @classmethod
    def from_text(cls, text: str) -> "RegretTrace":
        lines = [l for l in text.splitlines() if l]
        if not lines or lines[0] != ",".join(f.name for f in fields(cls)):
            raise DataError("bad trace header")
        cells = [line.split(",") for line in lines[1:]]
        if not cells:
            raise DataError("empty trace")
        if any(len(row) != 7 for row in cells):
            raise DataError("malformed trace row")
        cols = list(zip(*cells))
        return cls(
            step=np.array([int(v) for v in cols[0]]),
            task=np.array([int(v) for v in cols[1]]),
            instantaneous=np.array([float(v) for v in cols[2]]),
            cumulative=np.array([float(v) for v in cols[3]]),
            kernel_size=np.array([int(v) for v in cols[4]]),
            recovered=np.array([int(v) for v in cols[5]]),
            explored=np.array([int(v) for v in cols[6]]),
        )

    def save(self, path) -> None:
        Path(path).write_text(self.to_text())

    @classmethod
    def load(cls, path) -> "RegretTrace":
        return cls.from_text(Path(path).read_text())


@dataclass
class SummaryTable:
    step: np.ndarray
    task: np.ndarray
    mean_instantaneous: np.ndarray
    se_instantaneous: np.ndarray
    mean_cumulative: np.ndarray
    se_cumulative: np.ndarray

    def to_text(self) -> str:
        return _columns_text(self)


def summarize(traces) -> SummaryTable:
    """Per-step mean and standard error across runs.

    The standard error is the sample standard deviation over runs divided
    by sqrt(#runs); a single run gets a zero error column.
    """
    traces = list(traces)
    if not traces:
        raise DataError("need at least one trace")
    length = len(traces[0].step)
    for t in traces:
        if len(t.step) != length:
            raise DataError("traces must have equal length")
        if not np.array_equal(t.task, traces[0].task):
            raise DataError("traces must share the task layout")
    # sort each step's column before reducing so the result is bitwise
    # invariant under permutation of the input traces
    inst = np.sort(np.stack([t.instantaneous for t in traces]), axis=0)
    cum = np.sort(np.stack([t.cumulative for t in traces]), axis=0)
    return SummaryTable(
        step=traces[0].step.copy(),
        task=traces[0].task.copy(),
        mean_instantaneous=inst.mean(axis=0),
        se_instantaneous=_standard_error(inst),
        mean_cumulative=cum.mean(axis=0),
        se_cumulative=_standard_error(cum),
    )


@dataclass
class RecoveryCurve:
    """Exact-recovery rate as a function of the number of pooled tasks."""

    m_values: tuple[int, ...]
    rates: np.ndarray
    ses: np.ndarray
    successes: np.ndarray
    trials: int

    def to_text(self) -> str:
        rows = zip(
            self.m_values,
            self.rates.tolist(),
            self.ses.tolist(),
            self.successes.tolist(),
            repeat(self.trials),
        )
        return _csv("m,rate,se,successes,trials", rows)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    digest: str
    traces: dict[int, RegretTrace]
    summary: SummaryTable | None
    recovery: dict[int, list[tuple[int, bool, bool, int]]] | None
    curve: RecoveryCurve | None
    votes: dict[int, list] | None
    failures: list[tuple[int, str]]


def _synthetic_spec(config: ExperimentConfig) -> SyntheticSpec:
    return SyntheticSpec(
        family=BasisFamily(config.family),
        p=config.p,
        support_size=config.support_size,
        norm_bound=config.norm_bound,
        beta_min=config.beta_min,
        noise=config.noise,
    )


def _build_environment(config: ExperimentConfig, seed: int, m: int, table: LookupTable | None):
    if table is not None:
        return LookupEnvironment(
            table,
            master_seed=seed,
            family=BasisFamily(config.family),
            p=config.p,
            noise=config.noise,
        )
    grid_points = config.grid if config.grid > 0 else None
    return SyntheticEnvironment(
        _synthetic_spec(config), n_tasks=m, master_seed=seed, grid_points=grid_points
    )


def _run_one_seed(config: ExperimentConfig, seed: int, digest: str, table: LookupTable | None):
    """One seed's outcome: the offline sweep's rows, or the runner's record."""
    if config.kind == "offline":
        trials = recovery_sweep(
            _synthetic_spec(config),
            config.m_values,
            config.n,
            config.omega,
            config.lam,
            seed,
            tol=config.solver_tol,
            max_iter=config.solver_max_iter,
        )
        return [
            (m, trial.exact, trial.fallback, len(trial.selected))
            for m, trial in zip(config.m_values, trials)
        ]
    ucb = UcbConfig(nu=config.nu, lam=config.lam_ucb)
    env = _build_environment(config, seed, max(config.m, 1), table)
    m = config.m if config.m > 0 else env.m
    if config.kind in ("baseline_oracle", "baseline_full"):
        return run_baseline(
            env,
            config.baseline_kernel,
            m,
            config.n,
            ucb=ucb,
            seed=seed,
            config_digest=digest,
        )
    if config.kind == "federated":
        return run_federated(
            env,
            m,
            config.n,
            config.omega,
            config.lam,
            config.alpha,
            ucb=ucb,
            seed=seed,
            solver_tol=config.solver_tol,
            solver_max_iter=config.solver_max_iter,
            config_digest=digest,
        )
    return run_lifelong(
        env,
        m,
        config.n,
        config.omega,
        config.lam,
        lam_policy=config.lam_policy,
        schedule_mode=ScheduleMode(config.schedule),
        meta_data=config.meta_data,
        ucb=ucb,
        seed=seed,
        solver_tol=config.solver_tol,
        solver_max_iter=config.solver_max_iter,
        config_digest=digest,
    )


def _write_outputs(out: Path, result: ExperimentResult) -> None:
    """Write every result file of a run into ``out``."""
    for seed, trace in result.traces.items():
        trace.save(out / f"trace_seed{seed}.csv")
    if result.summary is not None:
        (out / "summary.csv").write_text(result.summary.to_text())
    for seed, rows in (result.votes or {}).items():
        votes = [
            (v.client, ";".join(map(str, v.indices)), ";".join(map(str, server)), int(v.failed))
            for v, server in rows
        ]
        (out / f"votes_seed{seed}.csv").write_text(_csv("task,indices,server,failed", votes))
    for seed, rows in (result.recovery or {}).items():
        flags = [(m, int(exact), int(fallback), size) for m, exact, fallback, size in rows]
        text = _csv("m,exact,fallback,selected_size", flags)
        (out / f"recovery_seed{seed}.csv").write_text(text)
    if result.curve is not None:
        (out / "recovery_curve.csv").write_text(result.curve.to_text())
    if result.failures:
        (out / "failures.csv").write_text(_csv("seed,error", result.failures))


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the configured experiment over all seeds and persist results."""
    table = None
    if config.table:
        try:
            table = LookupTable.load(config.table)
        except OSError as exc:
            raise ConfigError(f"cannot read table {config.table!r}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DataError(f"table {config.table!r} is not UTF-8 text: {exc}") from exc
        # a table that does not fit the config would fail every seed alike
        _build_environment(config, config.seeds[0], 1, table)
    out = None
    if config.out:
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.resolved.txt").write_text(config.serialize())
    digest = config.digest()
    done = {}
    failures: list[tuple[int, str]] = []
    for seed in config.seeds:
        try:
            done[seed] = _run_one_seed(config, seed, digest, table)
        except Exception as exc:
            failures.append((seed, f"{type(exc).__name__}: {exc}"))
    if not done:
        raise RuntimeError("every seed failed; first error: " + failures[0][1])
    traces, summary, recovery, curve, votes = {}, None, None, None, None
    if config.kind == "offline":
        recovery = done
        exact = np.array([[int(row[1]) for row in done[s]] for s in sorted(done)])
        curve = RecoveryCurve(
            config.m_values,
            exact.mean(axis=0),
            _standard_error(exact),
            exact.sum(axis=0),
            exact.shape[0],
        )
    else:
        traces = {seed: RegretTrace.from_record(record) for seed, record in done.items()}
        summary = summarize([traces[s] for s in sorted(traces)])
        if config.kind == "federated":
            votes = {seed: list(zip(r.votes, r.server_sets)) for seed, r in done.items()}
    result = ExperimentResult(config, digest, traces, summary, recovery, curve, votes, failures)
    if out is not None:
        _write_outputs(out, result)
    return result
