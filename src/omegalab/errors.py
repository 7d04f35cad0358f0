"""Exception taxonomy shared by all modules."""

import math


class OmegalabError(Exception):
    """Base class for all library errors."""


class InvalidRangeError(OmegalabError, ValueError):
    """lo >= hi, lo < 1, or otherwise malformed range."""


class RangeTooLargeError(OmegalabError):
    """Requested range exceeds the configured global limit."""


class CacheWriteError(OmegalabError):
    """The profile cache (OMEGALAB_CACHE) could not be created or written."""


class OutputWriteError(OmegalabError):
    """The --out file could not be written."""


class InvalidResidueError(OmegalabError, ValueError):
    """Residue r outside [0, m) or m < 1."""


class EmptySetError(OmegalabError, ValueError):
    """An averaging set B was empty."""


class DegenerateGridError(OmegalabError, ValueError):
    """A grid specification with fewer than two points."""


class WindowRangeError(OmegalabError, ValueError):
    """A Gaussian k-window inconsistent with its parameters."""


class InvalidPError(OmegalabError, ValueError):
    """p < 2 or N < p in the log-trick."""


class InvalidIntervalError(OmegalabError, ValueError):
    """Interval with lo >= hi."""


class BlockOverflowError(OmegalabError, OverflowError):
    """Block construction would exceed the integer range."""


class UnknownSystemError(OmegalabError, ValueError):
    """A system spec string naming no supported dynamical system."""


class SearchExhaustedError(OmegalabError):
    """construct_pair hit its search limit before reaching the coupling target.

    Carries the best pair found so far and its achieved couplings so callers
    can inspect or accept the partial result.
    """

    def __init__(self, message, best_pair=None, couplings=None):
        super().__init__(message)
        self.best_pair = best_pair
        self.couplings = couplings


def require_finite(**values: float) -> None:
    """InvalidRangeError naming the first of values that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidRangeError(f"{name} must be finite, got {value}")
