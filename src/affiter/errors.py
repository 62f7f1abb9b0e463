"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A parameter, operator spec, or schedule violates its admissible band."""


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
