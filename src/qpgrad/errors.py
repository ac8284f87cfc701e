"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A config file, flag, checkpoint, or parameter shape is invalid."""


class DegeneratePolicyError(RuntimeError):
    """log-policy gradient requested for an action with probability ~0."""


class UsageError(RuntimeError):
    """An operation was called in a state it does not support."""
