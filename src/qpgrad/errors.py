"""Exception types shared across the package, and the integer check of every config section."""

import numbers


class ConfigurationError(ValueError):
    """A config file, flag, checkpoint, or parameter shape is invalid."""


class UsageError(RuntimeError):
    """An operation was called in a state it does not support."""


def check_int(key: str, value, low: int) -> None:
    """Raises ``ConfigurationError`` naming ``key`` unless ``value`` is an integer of at least ``low``. A bool or
    a float is no integer here, even one equal to an integer: its manifest line would not parse back."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{key}: expected an integer, got {value!r}")
    if value < low:
        raise ConfigurationError(f"{key} must be >= {low}")
