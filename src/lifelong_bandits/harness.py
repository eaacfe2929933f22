"""Experiment configuration, runners, and trace persistence.

Configs are flat ``key = value`` text. Every key has a kind-dependent
default, so an empty config runs the reference setup for its kind; the
canonical serialization sorts keys, and the config digest is the sha256 of
that canonical text, which makes it stable under reordering of the input.

Traces are one CSV row per step. Floats are written with repr and parsed
with float, so a written file reproduces the in-memory arrays bit for bit
and identical runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .environment import LookupEnvironment, LookupTable, SyntheticEnvironment, SyntheticSpec
from .errors import ConfigError, DataError
from .features import BasisFamily, FeatureAtlas
from .federated import FederatedRunRecord, run_federated
from .gp_ucb import UcbConfig
from .lifelong import (
    BASELINE_KERNELS,
    LAM_POLICIES,
    META_DATA,
    LifelongRunRecord,
    ScheduleMode,
    default_solver_factory,
    run_baseline,
    run_lifelong,
)
from .selection import recovery_trial

KINDS = (
    "offline",
    "lifelong",
    "lookup",
    "federated",
    "baseline_oracle",
    "baseline_full",
)

_BASE_DEFAULTS = {
    "kind": "lifelong",
    "seeds": "20",
    "out": "",
    "family": "cosine1d",
    "p": "50",
    "support_size": "5",
    "norm_bound": "10.0",
    "beta_min": "0.5",
    "noise": "0.1",
    "grid": "0",
    "m": "20",
    "n": "100",
    "omega": "0.25",
    "lam": "0.5",
    "alpha": "0.25",
    "lam_policy": "inv_sqrt",
    "meta_data": "exploration",
    "schedule": "decreasing",
    "nu": "10.0",
    "lam_ucb": "0.1",
    "table": "",
    "baseline_kernel": "oracle",
    "m_values": ",".join(str(v) for v in range(1, 31)),
    "solver_tol": "1e-08",
    "solver_max_iter": "50000",
}

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


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seeds: tuple[int, ...]
    out: str
    family: str
    p: int
    support_size: int
    norm_bound: float
    beta_min: float
    noise: float
    grid: int
    m: int
    n: int
    omega: float
    lam: float
    alpha: float
    lam_policy: str
    meta_data: str
    schedule: str
    nu: float
    lam_ucb: float
    table: str
    baseline_kernel: str
    m_values: tuple[int, ...]
    solver_tol: float
    solver_max_iter: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind: {self.kind!r}")
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        if self.kind == "lookup" and not self.table:
            raise ConfigError("lookup experiments need a table path")
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
        if self.omega < 0:
            raise ConfigError("omega must be nonnegative")
        if self.solver_tol <= 0:
            raise ConfigError("solver_tol must be positive")
        if self.grid < 0 or self.grid == 1:
            raise ConfigError("grid must be 0 (the family default) or at least 2")
        # the validators of the objects each seed builds, run once up front
        UcbConfig(nu=self.nu, lam=self.lam_ucb)
        if self.kind == "offline" or not self.table:
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
    resolved_kind = pairs.get("kind", kind or _BASE_DEFAULTS["kind"])
    if resolved_kind not in KINDS:
        raise ConfigError(f"unknown kind: {resolved_kind!r}")
    values = dict(_BASE_DEFAULTS)
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
        return ExperimentConfig(
            kind=values["kind"],
            seeds=_parse_seeds(values["seeds"]),
            out=values["out"],
            family=values["family"],
            p=int(values["p"]),
            support_size=int(values["support_size"]),
            norm_bound=float(values["norm_bound"]),
            beta_min=float(values["beta_min"]),
            noise=float(values["noise"]),
            grid=int(values["grid"]),
            m=int(values["m"]),
            n=int(values["n"]),
            omega=float(values["omega"]),
            lam=float(values["lam"]),
            alpha=float(values["alpha"]),
            lam_policy=values["lam_policy"],
            meta_data=values["meta_data"],
            schedule=values["schedule"],
            nu=float(values["nu"]),
            lam_ucb=float(values["lam_ucb"]),
            table=values["table"],
            baseline_kernel=values["baseline_kernel"],
            m_values=_parse_int_list(values["m_values"]),
            solver_tol=float(values["solver_tol"]),
            solver_max_iter=int(values["solver_max_iter"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(text: str, kind: str | None = None) -> ExperimentConfig:
    return build_config(kind, parse_pairs(text))


def load_config(path, kind: str | None = None) -> ExperimentConfig:
    return parse_config(Path(path).read_text(), kind)


_TRACE_HEADER = "step,task,instantaneous,cumulative,kernel_size,recovered,explored"


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
        inst = np.concatenate([t.regrets for t in record.tasks])
        task = np.concatenate(
            [np.full(len(t.regrets), t.task, dtype=int) for t in record.tasks]
        )
        size = np.concatenate(
            [np.full(len(t.regrets), len(t.kernel), dtype=int) for t in record.tasks]
        )
        rec = np.concatenate(
            [
                np.full(
                    len(t.regrets),
                    -1 if t.recovered is None else int(t.recovered),
                    dtype=int,
                )
                for t in record.tasks
            ]
        )
        explored = np.concatenate([t.explored.astype(int) for t in record.tasks])
        return cls(
            step=np.arange(1, len(inst) + 1),
            task=task,
            instantaneous=inst,
            cumulative=np.cumsum(inst),
            kernel_size=size,
            recovered=rec,
            explored=explored,
        )

    def to_text(self) -> str:
        rows = [_TRACE_HEADER]
        for i in range(len(self.step)):
            rows.append(
                f"{self.step[i]},{self.task[i]},{float(self.instantaneous[i])!r},"
                f"{float(self.cumulative[i])!r},{self.kernel_size[i]},"
                f"{self.recovered[i]},{self.explored[i]}"
            )
        return "\n".join(rows) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RegretTrace":
        lines = [l for l in text.splitlines() if l]
        if not lines or lines[0] != _TRACE_HEADER:
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


_SUMMARY_HEADER = (
    "step,task,mean_instantaneous,se_instantaneous,mean_cumulative,se_cumulative"
)


@dataclass
class SummaryTable:
    step: np.ndarray
    task: np.ndarray
    mean_instantaneous: np.ndarray
    se_instantaneous: np.ndarray
    mean_cumulative: np.ndarray
    se_cumulative: np.ndarray

    def to_text(self) -> str:
        rows = [_SUMMARY_HEADER]
        for i in range(len(self.step)):
            rows.append(
                f"{self.step[i]},{self.task[i]},{float(self.mean_instantaneous[i])!r},"
                f"{float(self.se_instantaneous[i])!r},{float(self.mean_cumulative[i])!r},"
                f"{float(self.se_cumulative[i])!r}"
            )
        return "\n".join(rows) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_text())


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
    k = len(traces)
    if k > 1:
        se_inst = inst.std(axis=0, ddof=1) / math.sqrt(k)
        se_cum = cum.std(axis=0, ddof=1) / math.sqrt(k)
    else:
        se_inst = np.zeros(length)
        se_cum = np.zeros(length)
    return SummaryTable(
        step=traces[0].step.copy(),
        task=traces[0].task.copy(),
        mean_instantaneous=inst.mean(axis=0),
        se_instantaneous=se_inst,
        mean_cumulative=cum.mean(axis=0),
        se_cumulative=se_cum,
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
        rows = ["m,rate,se,successes,trials"]
        for i, m in enumerate(self.m_values):
            rows.append(
                f"{m},{float(self.rates[i])!r},{float(self.ses[i])!r},"
                f"{self.successes[i]},{self.trials}"
            )
        return "\n".join(rows) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_text())


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
    factory = default_solver_factory(UcbConfig(nu=config.nu, lam=config.lam_ucb))
    env = _build_environment(config, seed, max(config.m, 1), table)
    m = config.m if config.m > 0 else env.m
    if config.kind in ("baseline_oracle", "baseline_full"):
        return run_baseline(
            env,
            config.baseline_kernel,
            m,
            config.n,
            solver_factory=factory,
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
            solver_factory=factory,
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
        solver_factory=factory,
        seed=seed,
        solver_tol=config.solver_tol,
        solver_max_iter=config.solver_max_iter,
        config_digest=digest,
    )


def _run_offline(config: ExperimentConfig, out: Path | None) -> ExperimentResult:
    digest = config.digest()
    spec = _synthetic_spec(config)
    per_seed: dict[int, list[tuple[int, bool, bool, int]]] = {}
    failures: list[tuple[int, str]] = []
    for seed in config.seeds:
        try:
            rows = []
            for m in config.m_values:
                trial = recovery_trial(
                    spec,
                    m,
                    config.n,
                    config.omega,
                    config.lam,
                    seed,
                    tol=config.solver_tol,
                    max_iter=config.solver_max_iter,
                )
                rows.append((m, trial.exact, trial.fallback, len(trial.selected)))
            per_seed[seed] = rows
        except Exception as exc:
            failures.append((seed, f"{type(exc).__name__}: {exc}"))
    if not per_seed:
        raise RuntimeError("every seed failed; first error: " + failures[0][1])
    exact = np.array(
        [[1 if row[1] else 0 for row in per_seed[s]] for s in sorted(per_seed)]
    )
    k = exact.shape[0]
    rates = exact.mean(axis=0)
    ses = exact.std(axis=0, ddof=1) / math.sqrt(k) if k > 1 else np.zeros(len(config.m_values))
    curve = RecoveryCurve(
        m_values=config.m_values,
        rates=rates,
        ses=ses,
        successes=exact.sum(axis=0),
        trials=k,
    )
    if out is not None:
        for seed, rows in per_seed.items():
            lines = ["m,exact,fallback,selected_size"]
            lines += [f"{m},{int(e)},{int(f)},{size}" for m, e, f, size in rows]
            (out / f"recovery_seed{seed}.csv").write_text("\n".join(lines) + "\n")
        curve.save(out / "recovery_curve.csv")
        _write_failures(out, failures)
    return ExperimentResult(
        config=config,
        digest=digest,
        traces={},
        summary=None,
        recovery=per_seed,
        curve=curve,
        votes=None,
        failures=failures,
    )


def _write_failures(out: Path, failures) -> None:
    if failures:
        lines = ["seed,error"] + [f"{s},{msg}" for s, msg in failures]
        (out / "failures.csv").write_text("\n".join(lines) + "\n")


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the configured experiment over all seeds and persist results."""
    out = None
    if config.out:
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.resolved.txt").write_text(config.serialize())
    if config.kind == "offline":
        return _run_offline(config, out)
    table = LookupTable.load(config.table) if config.table else None
    if table is not None:
        # a table that does not fit the config would fail every seed alike
        _build_environment(config, config.seeds[0], 1, table)
    digest = config.digest()
    traces: dict[int, RegretTrace] = {}
    votes: dict[int, list] = {}
    failures: list[tuple[int, str]] = []
    for seed in config.seeds:
        try:
            record = _run_one_seed(config, seed, digest, table)
        except Exception as exc:
            failures.append((seed, f"{type(exc).__name__}: {exc}"))
            continue
        traces[seed] = RegretTrace.from_record(record)
        if isinstance(record, FederatedRunRecord):
            votes[seed] = list(zip(record.votes, record.server_sets))
    if not traces:
        raise RuntimeError("every seed failed; first error: " + failures[0][1])
    summary = summarize([traces[s] for s in sorted(traces)])
    if out is not None:
        for seed, trace in traces.items():
            trace.save(out / f"trace_seed{seed}.csv")
        summary.save(out / "summary.csv")
        for seed, rows in votes.items():
            lines = ["task,indices,server,failed"]
            for vote, server in rows:
                idx = ";".join(str(j) for j in vote.indices)
                srv = ";".join(str(j) for j in server)
                lines.append(f"{vote.client},{idx},{srv},{int(vote.failed)}")
            (out / f"votes_seed{seed}.csv").write_text("\n".join(lines) + "\n")
        _write_failures(out, failures)
    return ExperimentResult(
        config=config,
        digest=digest,
        traces=traces,
        summary=summary,
        recovery=None,
        curve=None,
        votes=votes if config.kind == "federated" else None,
        failures=failures,
    )
