"""The exception of bad input, and the integer check of every config section. A value from outside is checked
once, where it enters (a config section, ``load_checkpoint``, the CLI, the C wrapper); the code behind that
boundary does not check it again."""

import numbers


class ConfigurationError(ValueError):
    """A config file, flag, checkpoint, or parameter shape is invalid."""


def check_int(key: str, value, low: int) -> None:
    """Raises ``ConfigurationError`` naming ``key`` unless ``value`` is an integer of at least ``low``. A bool or
    a float is no integer here, even one equal to an integer: its manifest line would not parse back."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{key}: expected an integer, got {value!r}")
    if value < low:
        raise ConfigurationError(f"{key} must be >= {low}")
