"""Exception types shared across the package."""

from __future__ import annotations


class MultitangentError(Exception):
    """Base class for package errors."""


class PrecisionUnreachableError(MultitangentError):
    """A numeric routine could not certify the requested absolute error.

    Carries the error bound that was actually achieved.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


class PoleProximityError(MultitangentError):
    """Evaluation point too close to an integer (a pole of the family)."""


class CoverageError(MultitangentError):
    """The derived zeta-value table does not cover a required weight."""

    def __init__(self, message: str, weight: int | None = None):
        super().__init__(message)
        self.weight = weight


class NumericRecheckError(MultitangentError):
    """An exact result failed its mandatory numeric re-verification."""


class ProjectionUnavailableError(MultitangentError):
    """The linear system for a projection or cleansing has no solution at
    this weight; reported instead of fabricating one."""
