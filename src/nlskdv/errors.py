"""Exception types shared across the package."""


class NlskdvError(Exception):
    """Base class for all package errors."""


class ValidationError(NlskdvError, ValueError):
    """Invalid argument or configuration value."""


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
    """A converged profile does not decay enough before the box boundary."""


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
