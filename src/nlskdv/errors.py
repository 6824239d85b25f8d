"""Exception types shared across the package, and its count check."""

import numbers


class NlskdvError(Exception):
    """Base class for all package errors."""


class ValidationError(NlskdvError, ValueError):
    """Invalid argument or configuration value."""


def require_count(name: str, value) -> int:
    """value as an int if it is an integer >= 1, else ValidationError.

    bool is refused although it is an int subclass.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


class GridMismatchError(ValidationError):
    """Fields that must share a grid do not."""


class UnattainedInfimumError(NlskdvError):
    """The requested infimum is zero and is not attained by any profile.

    Raised when the short-wave mass constraint is active but both the
    short-wave self-interaction and the long-wave component vanish, so
    minimizing sequences spread to infinity instead of converging.
    """


class ConvergenceError(NlskdvError):
    """A solver spent its budget or failed a line search short of tol."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DomainTooSmallError(NlskdvError):
    """A converged profile does not decay enough before the box boundary.

    half_length_needed is the half length L at which the profile's decay
    rate predicts a leak within the limit, or None when no rate is known.
    """

    def __init__(self, message, half_length_needed=None):
        super().__init__(message)
        self.half_length_needed = half_length_needed


class BoundaryMinimumError(NlskdvError):
    """A one-dimensional scan kept hitting its upper endpoint."""


class SupportOverlapError(ValidationError):
    """Two-bump construction requires disjoint supports."""


class BlowUpError(NlskdvError):
    """Time integration produced non-finite samples.

    Carries the last finite state and whatever trace was collected.
    """

    def __init__(self, message, last_state=None, trace=None):
        super().__init__(message)
        self.last_state = last_state
        self.trace = trace
