"""Exception types shared across the package."""


class DomainError(ValueError):
    """A query point lies outside the feature atlas domain."""


class EmptyKernelError(ValueError):
    """A kernel with no groups, the empty tuple J = (), was given to an agent,
    which needs at least one."""


class DataError(ValueError):
    """A data file (lookup table, trace) is malformed or inconsistent."""


class ConfigError(ValueError):
    """An experiment configuration is missing, malformed, or inconsistent."""
