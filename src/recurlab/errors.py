"""Error types shared across the package.

All of these signal a *mathematical* limitation or failure, as opposed to
malformed input (plain ValueError) or programming errors (AssertionError).
The CLI maps them to dedicated exit codes.
"""

from __future__ import annotations


class RecurlabError(Exception):
    """Base class for the package's domain errors."""


class NoConstantRowError(RecurlabError):
    """A difference table has no certified constant row.

    Raised when an operation (predicting the next term, inferring a
    recurrence) needs a constant row but the table bottomed out or hit
    its depth limit without one.
    """


class UnsupportedRootsError(RecurlabError):
    """The characteristic polynomial cannot be fully factored over the rationals.

    ``residual`` holds the unfactored polynomial part (degree >= 1), or the
    degenerate factor when a zero characteristic root makes the standard
    exponential-polynomial basis inapplicable.
    """

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class SingularMatrixError(RecurlabError):
    """An exact linear system has no unique solution.

    ``rank`` is the rank reached by Gaussian elimination before failure.
    """

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank
