"""Experiment configuration, the seed loop, and the result files.

Configs are flat ``key = value`` text, each key on one line at most. Each
key is declared once, as a field of ``ExperimentConfig`` that carries the
parser of its text value, its lifelong-kind default and the kinds that read
it (``KIND_KEYS``); ``_KIND_DEFAULTS`` overrides some defaults per kind. A
key the kind does not read is an error, and float keys must be finite. The
canonical text holds the kind's keys, sorted, and the config digest is its
sha256, which makes it stable under reordering of the input.

``run_experiment`` runs every kind through one seed loop: a seed that raises
becomes a row of ``failures.csv`` and the loop goes on; the run raises only
when every seed failed, after writing that file. Before its seeds run, a
run removes every result file an earlier run left in its directory
(``_RESULT_FILES``), so the directory holds this run's files alone. Every
result file is UTF-8 CSV written by the column writer of ``csvio``, and a
trace reads back through its reader, bit for bit.

The files of one run also share whole columns: every trace and the summary
have the same ``step`` and ``task`` (in memory, one read-only pair per run
shape (m, n), built once per process by ``_layout`` and held by every trace
of that shape and by the summary), and a one-seed summary repeats its
trace's regret columns (in memory, the trace's own arrays) and has two
all-zero error columns (zero-stride views that hold no storage).
``_write_outputs`` formats the summary first, into one memo keyed by each
int or float column's dtype and raw bytes (``csvio.cells``), and gives each
trace a copy: each summary column is formatted once per run, and the memo
holds no more than the summary's columns and one trace's.
"""

from __future__ import annotations

import fnmatch
import functools
import hashlib
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import csvio
from .environment import LookupEnvironment, LookupTable, SyntheticEnvironment, SyntheticSpec
from .errors import ConfigError, DataError
from .features import BasisFamily, FeatureAtlas
from .federated import run_federated
from .gp_ucb import UcbConfig
from .lifelong import LifelongRunRecord, run_baseline, run_lifelong
# recovery_trial stays bound here: perfbench's tracer wraps this binding
from .selection import recovery_sweep, recovery_trial  # noqa: F401

# the experiment kinds, and the defaults each one overrides
_KIND_DEFAULTS = {
    "offline": {"n": "10", "lam": "0.25"},
    "lifelong": {},
    "lookup": {
        "family": "cosine2d",
        "p": "100",
        "noise": "0.0",
        "m": "0",
        "n": "144",
        "lam": "0.015",
    },
    "federated": {"lam": "0.2"},
    "baseline_oracle": {},
    "baseline_full": {},
}
KINDS = tuple(_KIND_DEFAULTS)
# the groups of kinds that read a key
_SYNTHETIC = frozenset(KINDS) - {"lookup"}  # draw their tasks from a SyntheticSpec
_BANDIT = frozenset(KINDS) - {"offline"}  # run GP-UCB agents over m tasks
_FIT = frozenset(KINDS) - {"baseline_oracle", "baseline_full"}  # learn the kernel by group lasso


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


def _key(parse, default: str, kinds=KINDS):
    """A config key: its text parser, its lifelong-kind default, the kinds that read it."""
    return field(metadata={"parse": parse, "default": default, "kinds": kinds})


@dataclass(frozen=True)
class ExperimentConfig:
    """A resolved experiment config: one field per key, declared by ``_key``."""

    kind: str = _key(str, "lifelong")
    seeds: tuple[int, ...] = _key(_parse_seeds, "20")
    out: str = _key(str, "")
    family: str = _key(str, "cosine1d")
    p: int = _key(int, "50")
    support_size: int = _key(int, "5", _SYNTHETIC)
    norm_bound: float = _key(_parse_finite, "10.0", _SYNTHETIC)
    beta_min: float = _key(_parse_finite, "0.5", _SYNTHETIC)
    noise: float = _key(_parse_finite, "0.1")
    grid: int = _key(int, "0", _SYNTHETIC & _BANDIT)
    m: int = _key(int, "20", _BANDIT)
    n: int = _key(int, "100")
    omega: float = _key(_parse_finite, "0.25", _FIT)
    lam: float = _key(_parse_finite, "0.5", _FIT)
    alpha: float = _key(_parse_finite, "0.25", {"federated"})
    nu: float = _key(_parse_finite, "10.0", _BANDIT)
    lam_ucb: float = _key(_parse_finite, "0.1", _BANDIT)
    table: str = _key(str, "", {"lookup"})
    m_values: tuple[int, ...] = _key(_parse_int_list, ",".join(map(str, range(1, 31))), {"offline"})

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
        if self.n < 1:
            raise ConfigError("horizon must be positive")
        if self.m < 0 or self.m == 0 and self.kind != "lookup":
            raise ConfigError("task count must be positive (lookup's m=0 runs every task)")
        BasisFamily(self.family)
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        if not self.m_values or min(self.m_values) < 1:
            raise ConfigError("m_values must hold at least one m, each at least 1")
        if self.omega < 0:
            raise ConfigError("omega must be nonnegative")
        if self.lam < 0:
            raise ConfigError("lam must be nonnegative")
        if self.grid < 0 or self.grid == 1:
            raise ConfigError("grid must be 0 (the family default) or at least 2")
        # the validators of the objects each seed builds, run once up front
        UcbConfig(nu=self.nu, lam=self.lam_ucb)
        if self.kind != "lookup":
            _synthetic_spec(self)
        else:
            # the table's own dimension is checked once the table is read
            FeatureAtlas(self.family, self.p)
            if self.noise < 0:
                raise ConfigError("noise level must be nonnegative")

    def serialize(self) -> str:
        lines = []
        for name in sorted(KIND_KEYS[self.kind]):
            value = getattr(self, name)
            if isinstance(value, tuple):
                # a one-element list keeps its comma: a bare integer is a count
                value = ",".join(str(v) for v in value) + ("," if len(value) == 1 else "")
            lines.append(f"{name} = {value}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()


# the keys each kind reads, from their declarations
KIND_KEYS = {
    kind: frozenset(f.name for f in fields(ExperimentConfig) if kind in f.metadata["kinds"])
    for kind in KINDS
}


def parse_pairs(text: str) -> dict[str, str]:
    """The ``key = value`` pairs of config text; a key may appear once."""
    pairs, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        pairs[key] = value.strip()
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
        if key not in KIND_KEYS[resolved_kind]:
            raise ConfigError(f"kind {resolved_kind!r} does not read key {key!r}")
        values[key] = value
    parsed = {}
    for f in keys:
        try:
            parsed[f.name] = f.metadata["parse"](values[f.name])
        except ValueError as exc:
            raise ConfigError(f"{f.name}: {exc}") from exc
    try:
        return ExperimentConfig(**parsed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _columns_text(table, memo: dict | None = None) -> str:
    """CSV text of a dataclass of equal-length array columns, one row per index."""
    names = [f.name for f in fields(table)]
    return csvio.to_text(",".join(names), [getattr(table, name) for name in names], memo)


def _standard_error(samples: np.ndarray) -> np.ndarray:
    """Per-column sample standard deviation over the rows, over sqrt(#rows).

    A single row gets a read-only zero column that holds no storage (a
    zero-stride view of one 0.0).
    """
    k = samples.shape[0]
    if k < 2:
        return np.broadcast_to(0.0, samples.shape[1])
    return samples.std(axis=0, ddof=1) / math.sqrt(k)


@dataclass
class RegretTrace:
    """Per-step regret record of one run; one row per bandit step.

    ``from_record`` and ``from_text`` build each column at the dtype its
    field declares: the per-task int columns at fixed narrow widths, ``step``
    and the regrets at 64 bits. ``from_record`` takes ``step`` and ``task``
    from the shared read-only pair of its shape (``_layout``). ``from_text``
    reads the rows with ``csvio.from_text``, at the fields' dtypes, so a
    rejected row raises ``DataError`` naming its line and, for a cell that
    is not a number of its column's kind or that its column's dtype cannot
    hold, the column. The written text does not depend on the dtypes.
    """

    step: np.ndarray = field(metadata={"dtype": np.int64})
    task: np.ndarray = field(metadata={"dtype": np.int32})
    instantaneous: np.ndarray = field(metadata={"dtype": np.float64})
    cumulative: np.ndarray = field(metadata={"dtype": np.float64})
    kernel_size: np.ndarray = field(metadata={"dtype": np.int32})
    recovered: np.ndarray = field(metadata={"dtype": np.int8})
    explored: np.ndarray = field(metadata={"dtype": np.int8})

    def __post_init__(self):
        lengths = {len(getattr(self, f.name)) for f in fields(self)}
        if len(lengths) != 1:
            raise DataError("trace columns must have equal length")
        if not np.array_equal(self.cumulative, np.cumsum(self.instantaneous)):
            raise DataError("cumulative column must be the prefix sum")

    @classmethod
    def _column(cls, name: str, values) -> np.ndarray:
        """``values`` at the dtype that field ``name`` declares."""
        return np.asarray(values, dtype=cls.__dataclass_fields__[name].metadata["dtype"])

    @classmethod
    def from_record(cls, record: LifelongRunRecord) -> "RegretTrace":
        m, n = record.regrets.shape
        inst = record.regrets.ravel()
        support = record.support
        recovered = [-1 if support is None else int(k == support) for k in record.kernels]

        def per_task(name, values):
            return np.repeat(cls._column(name, values), n)

        step, task = _layout(m, n)
        return cls(
            step=step,
            task=task,
            instantaneous=inst,
            cumulative=np.cumsum(inst),
            kernel_size=per_task("kernel_size", [len(k) for k in record.kernels]),
            recovered=per_task("recovered", recovered),
            explored=cls._column("explored", record.explored.ravel()),
        )

    def to_text(self, memo: dict | None = None) -> str:
        return _columns_text(self, memo)

    @classmethod
    def from_text(cls, text: str) -> "RegretTrace":
        def columns(header):
            if header != [f.name for f in fields(cls)]:
                raise DataError("bad trace header")
            return [(f.name, f.metadata["dtype"]) for f in fields(cls)]

        return cls(*csvio.from_text(text, columns, "empty trace"))

    def save(self, path, memo: dict | None = None) -> None:
        Path(path).write_text(self.to_text(memo), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "RegretTrace":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))


@functools.lru_cache(maxsize=4)
def _layout(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``step`` and ``task`` columns of an (m, n) run's trace, read-only:
    every trace of that shape in a process holds these two arrays."""
    step = RegretTrace._column("step", np.arange(1, m * n + 1))
    task = np.repeat(RegretTrace._column("task", np.arange(1, m + 1)), n)
    step.setflags(write=False)
    task.setflags(write=False)
    return step, task


@dataclass
class SummaryTable:
    step: np.ndarray
    task: np.ndarray
    mean_instantaneous: np.ndarray
    se_instantaneous: np.ndarray
    mean_cumulative: np.ndarray
    se_cumulative: np.ndarray

    def to_text(self, memo: dict | None = None) -> str:
        return _columns_text(self, memo)


def summarize(traces) -> SummaryTable:
    """Per-step mean and standard error across runs.

    The standard error is the sample standard deviation over runs divided
    by sqrt(#runs); a single run gets a zero error column that holds no
    storage (see ``_standard_error``). The table's ``step`` and ``task`` are
    the first trace's arrays, shared, not copied, and so are a single run's
    means: its regret columns themselves. Those are the bits the sort and
    mean of one run give, but for a -0.0 cell, whose mean is 0.0; no runner
    writes one (a regret is the task's maximum less the value taken, +0.0
    at a tie, and a cumulative regret sums such terms).
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
    if len(traces) == 1:
        only = traces[0]
        inst, cum = only.instantaneous[None], only.cumulative[None]
        mean_inst, mean_cum = only.instantaneous, only.cumulative
    else:
        # sort each step's column before reducing so the result is bitwise
        # invariant under permutation of the input traces
        inst = np.sort(np.stack([t.instantaneous for t in traces]), axis=0)
        cum = np.sort(np.stack([t.cumulative for t in traces]), axis=0)
        mean_inst, mean_cum = inst.mean(axis=0), cum.mean(axis=0)
    return SummaryTable(
        step=traces[0].step,
        task=traces[0].task,
        mean_instantaneous=mean_inst,
        se_instantaneous=_standard_error(inst),
        mean_cumulative=mean_cum,
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
        trials = [self.trials] * len(self.m_values)
        columns = (self.m_values, self.rates, self.ses, self.successes, trials)
        return csvio.to_text("m,rate,se,successes,trials", columns)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    digest: str
    traces: dict[int, RegretTrace]
    summary: SummaryTable | None
    recovery: dict[int, list[tuple[int, int, int, int]]] | None
    curve: RecoveryCurve | None
    votes: dict[int, list] | None
    failures: list[tuple[int, str]]
    unconverged: int = 0  # the finished seeds' fits whose reports say they did not converge


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


def _run_one_seed(config: ExperimentConfig, seed: int, table: LookupTable | None):
    """One seed's outcome: the offline sweep's trials, or the runner's record."""
    if config.kind == "offline":
        return recovery_sweep(
            _synthetic_spec(config),
            config.m_values,
            config.n,
            config.omega,
            config.lam,
            seed,
        )
    ucb = UcbConfig(nu=config.nu, lam=config.lam_ucb)
    env = _build_environment(config, seed, max(config.m, 1), table)
    m = config.m if config.m > 0 else env.m
    if config.kind.startswith("baseline_"):  # the kind names the kernel
        return run_baseline(env, config.kind.split("_")[1], m, config.n, ucb=ucb, seed=seed)
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
        )
    return run_lifelong(env, m, config.n, config.omega, config.lam, ucb=ucb, seed=seed)


def _write_outputs(out: Path, result: ExperimentResult) -> None:
    """Write the result files of a run's finished seeds into ``out``.

    The summary is formatted first, into the run's memo (see ``csvio.cells``):
    its columns are the only ones that another file reads again. Each trace
    gets a copy of that memo, so the trace's own columns go with it.
    """
    memo: dict = {}
    summary = None if result.summary is None else result.summary.to_text(memo)
    for seed, trace in result.traces.items():
        trace.save(out / f"trace_seed{seed}.csv", dict(memo))
    files = {} if summary is None else {"summary.csv": summary}
    for seed, rows in (result.votes or {}).items():
        votes = [
            (v.client, ";".join(map(str, v.indices)), ";".join(map(str, server)), int(v.failed))
            for v, server in rows
        ]
        files[f"votes_seed{seed}.csv"] = csvio.to_text("task,indices,server,failed", zip(*votes))
    for seed, rows in (result.recovery or {}).items():
        text = csvio.to_text("m,exact,fallback,selected_size", zip(*rows))
        files[f"recovery_seed{seed}.csv"] = text
    if result.curve is not None:
        files["recovery_curve.csv"] = result.curve.to_text()
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")


# the result files a run writes, beside config.resolved.txt
_RESULT_FILES = (
    "failures.csv",
    "trace_seed*.csv",
    "votes_seed*.csv",
    "recovery_seed*.csv",
    "summary.csv",
    "recovery_curve.csv",
)


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
        if config.m > _build_environment(config, config.seeds[0], 1, table).m:
            raise ConfigError(f"m={config.m} exceeds the table's {table.n_tasks} tasks")
    out = None
    if config.out:
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        # a rerun into the same directory leaves none of an earlier run's results
        for stale in out.iterdir():
            if any(fnmatch.fnmatchcase(stale.name, pattern) for pattern in _RESULT_FILES):
                stale.unlink()
        (out / "config.resolved.txt").write_text(config.serialize(), encoding="utf-8")
    done = {}
    failures: list[tuple[int, str]] = []
    for seed in config.seeds:
        try:
            done[seed] = _run_one_seed(config, seed, table)
        except Exception as exc:
            failures.append((seed, f"{type(exc).__name__}: {exc}"))
    if out is not None and failures:
        text = csvio.to_text("seed,error", zip(*failures))
        (out / "failures.csv").write_text(text, encoding="utf-8")
    if not done:
        raise RuntimeError("every seed failed; first error: " + failures[0][1])
    traces, summary, recovery, curve, votes = {}, None, None, None, None
    if config.kind == "offline":
        recovery = {
            seed: [
                (m, int(t.exact), int(t.fallback), len(t.selected))
                for m, t in zip(config.m_values, trials)
            ]
            for seed, trials in done.items()
        }
        exact = np.array([[row[1] for row in recovery[s]] for s in sorted(recovery)])
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
    unconverged = sum(
        not report.converged
        for outcome in done.values()
        for report in ([t.report for t in outcome] if config.kind == "offline" else outcome.reports)
    )
    result = ExperimentResult(
        config, config.digest(), traces, summary, recovery, curve, votes, failures, unconverged
    )
    if out is not None:
        _write_outputs(out, result)
    return result
