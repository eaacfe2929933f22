"""Bandit optimization with kernels learned across tasks.

The package splits into a numeric core (feature atlases, the pooled group
lasso, kernelized UCB), task runners (sequential and federated), synthetic
and lookup-table environments, and an experiment harness with a CLI.
"""

from .environment import (
    LookupEnvironment,
    LookupTable,
    SyntheticEnvironment,
    SyntheticSpec,
    uniform_grid,
)
from .errors import ConfigError, DataError, DomainError, EmptyKernelError
from .features import BasisFamily, FeatureAtlas
from .federated import ClientVote, VoteLedger, client_fit, client_fits, run_federated
from .gp_ucb import GpUcb, LockstepUcb, UcbConfig
from .group_lasso import (
    PooledDesign,
    SolverReport,
    fit_group_lasso,
    fit_lassos,
    group_norms,
    kkt_residuals,
    pooled_loss,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    RegretTrace,
    SummaryTable,
    build_config,
    run_experiment,
    summarize,
)
from .lifelong import (
    LifelongRunRecord,
    ScheduleMode,
    TaskRecord,
    exploration_counts,
    integerize,
    run_baseline,
    run_lifelong,
    schedule_rates,
)
from .seeding import substream
from .selection import (
    KernelSelection,
    design_from_tasks,
    learn_kernel,
    recovery_sweep,
    recovery_trial,
    threshold_groups,
)

__all__ = [
    "BasisFamily",
    "ClientVote",
    "ConfigError",
    "DataError",
    "DomainError",
    "EmptyKernelError",
    "ExperimentConfig",
    "ExperimentResult",
    "FeatureAtlas",
    "GpUcb",
    "KernelSelection",
    "LifelongRunRecord",
    "LockstepUcb",
    "LookupEnvironment",
    "LookupTable",
    "PooledDesign",
    "RegretTrace",
    "ScheduleMode",
    "SolverReport",
    "SummaryTable",
    "SyntheticEnvironment",
    "SyntheticSpec",
    "TaskRecord",
    "UcbConfig",
    "VoteLedger",
    "build_config",
    "client_fit",
    "client_fits",
    "design_from_tasks",
    "exploration_counts",
    "fit_group_lasso",
    "fit_lassos",
    "group_norms",
    "integerize",
    "kkt_residuals",
    "learn_kernel",
    "pooled_loss",
    "recovery_sweep",
    "recovery_trial",
    "run_baseline",
    "run_experiment",
    "run_federated",
    "run_lifelong",
    "schedule_rates",
    "substream",
    "summarize",
    "threshold_groups",
    "uniform_grid",
]
