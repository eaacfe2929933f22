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
    rkhs_norm_sq,
    uniform_grid,
)
from .errors import ConfigError, DataError, DomainError, EmptyKernelError
from .features import (
    BasisFamily,
    FeatureAtlas,
    KernelEstimate,
    kernel_gram,
    kernel_value,
    selected_features,
)
from .federated import ClientVote, VoteLedger, client_fit, run_federated
from .gp_ucb import (
    GpUcb,
    LockstepUcb,
    UcbConfig,
    info_gain_bound,
    realized_info_gain,
)
from .group_lasso import (
    GroupCoefficients,
    PooledDesign,
    SolverReport,
    fit_group_lasso,
    kkt_residuals,
    pooled_loss,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    RegretTrace,
    SummaryTable,
    build_config,
    load_config,
    parse_config,
    run_experiment,
    summarize,
)
from .lifelong import (
    ExplorationSchedule,
    LifelongRunRecord,
    ScheduleMode,
    TaskRecord,
    integerize,
    run_baseline,
    run_lifelong,
    schedule_rates,
    theory_lambda,
)
from .seeding import substream
from .selection import (
    KernelSelection,
    design_diagnostics,
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
    "ExplorationSchedule",
    "FeatureAtlas",
    "GpUcb",
    "GroupCoefficients",
    "KernelEstimate",
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
    "design_diagnostics",
    "design_from_tasks",
    "fit_group_lasso",
    "info_gain_bound",
    "integerize",
    "kernel_gram",
    "kernel_value",
    "kkt_residuals",
    "learn_kernel",
    "load_config",
    "parse_config",
    "pooled_loss",
    "realized_info_gain",
    "recovery_sweep",
    "recovery_trial",
    "rkhs_norm_sq",
    "run_baseline",
    "run_experiment",
    "run_federated",
    "run_lifelong",
    "schedule_rates",
    "selected_features",
    "substream",
    "summarize",
    "theory_lambda",
    "threshold_groups",
    "uniform_grid",
]
