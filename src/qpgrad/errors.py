"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A config file, flag, checkpoint, or parameter shape is invalid."""


class UsageError(RuntimeError):
    """An operation was called in a state it does not support."""
