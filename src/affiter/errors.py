"""Exception types shared across the package, and the integer check behind
several configuration errors."""

import operator


class ConfigurationError(ValueError):
    """A parameter, operator spec, or schedule violates its admissible band."""


def is_integer(value) -> bool:
    """Whether ``operator.index`` accepts ``value`` (an int or a numpy
    integer, not 2.0 or "2") and it is not a bool."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def check_integer(value, what: str) -> None:
    """Raise a ConfigurationError naming ``what`` unless ``is_integer(value)``."""
    if not is_integer(value):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")


class InvalidScheduleError(ConfigurationError):
    """A weight array fails one of its defining conditions (e.g. row sums)."""


class NumericalDivergence(RuntimeError):
    """An iterate or combination became non-finite; carries the iteration index."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class CertificateUnavailableError(RuntimeError):
    """No usable summability certificate exists for the requested schedule."""


class InvalidReferenceError(ConfigurationError):
    """A supplied reference point is not a common fixed point of the stacks."""


class DegenerateSelectionWarning(UserWarning):
    """A subgradient selection returned 0 at a point above the target level."""
