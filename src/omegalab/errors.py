"""The four exception classes; the class an error is raised with is its CLI exit code.

- OmegalabError: the base class, exit 2.  Raised directly where the input
  is fine but a file cannot be written: --out, or the profile cache.
- InvalidRangeError: bad input of any kind (a range, spec, block, window,
  set or parameter), exit 2.
- RangeTooLargeError: a resource limit (range, span count, window size,
  search cap), exit 3.
- SearchExhaustedError: construct_pair's search hit its limit, exit 3.

cli.main catches RangeTooLargeError for exit 3, then OmegalabError for exit
2, and prints the message as one stderr line.
"""

import math


class OmegalabError(Exception):
    """Base class for all library errors: exit 2."""


class InvalidRangeError(OmegalabError, ValueError):
    """Bad input: a malformed range, spec, block, window or parameter."""


class RangeTooLargeError(OmegalabError):
    """A request over one of the configured resource limits: exit 3."""


class SearchExhaustedError(RangeTooLargeError):
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
