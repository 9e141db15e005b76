"""Exception hierarchy shared across the package."""

from __future__ import annotations


class UnmixError(Exception):
    """Base class for all errors raised by this package."""


class SequenceFormatError(UnmixError):
    """An on-disk sequence directory is missing, malformed, or inconsistent."""


class FactorizationError(UnmixError):
    """A symmetric positive-definite factorization failed (after the jitter
    retry, where one is made).

    ``iteration`` is the EM iteration it happened in, when known.
    """

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class RankDeficiencyError(UnmixError):
    """Input data has too low a numerical rank for endmember extraction."""

    def __init__(self, message: str, achieved_rank: int, required_rank: int):
        super().__init__(message)
        self.achieved_rank = achieved_rank
        self.required_rank = required_rank


class NumericalAbortError(UnmixError):
    """A NaN/Inf state in iterative estimation, in EM iteration ``iteration`` when known."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration
