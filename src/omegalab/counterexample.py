"""Block sequence whose averages along Omega(n) oscillate instead of converging.

The sequence is 1 on the intervals [3^k - 2^k, 3^k + 2^k] and 0 elsewhere.
It is generic (its plain Cesaro averages tend to 0), yet the averages of
a(Omega(n)) swing between ~1 (log log N at a block center) and ~0
(log log N between blocks).  Divergence is not observable by exact sieving
(the first all-zero stretch needs log log N >= 14), so exact small-N
computation is paired with Gaussian-weight checkpoints at virtual N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .averages import AverageScheme, _scheme_average, _values
from .errors import InvalidRangeError, RangeTooLargeError
from .sieve import OmegaProfile
from .weights import GaussianWindowSpec, extrapolated_average

MAX_BLOCK_BOUND = 2**62
_MAX_BLOCK_K = max(k for k in range(64) if 3**k <= MAX_BLOCK_BOUND)  # 39
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class BlockSequence:
    """0/1 sequence that is 1 exactly on a sorted list of disjoint intervals."""

    blocks: tuple  # ((lo, hi) inclusive, ...)

    def __post_init__(self):
        prev_hi = None
        for lo, hi in self.blocks:
            if hi < lo:
                raise InvalidRangeError(f"block [{lo}, {hi}] is empty")
            if prev_hi is not None and lo <= prev_hi:
                raise InvalidRangeError("blocks must be disjoint and sorted")
            prev_hi = hi

    @cached_property
    def _edges(self) -> np.ndarray:
        """Block starts and ends + 1, sorted, clipped into int64.

        n lies in a block iff an odd number of edges is <= n.  Blocks that
        hold no int64 are dropped, and an end past the int64 range is left
        out, so the parity stays exact for every int64 n.
        """
        edges = []
        for lo, hi in self.blocks:
            if hi < _INT64.min or lo > _INT64.max:
                continue
            edges.append(max(lo, _INT64.min))
            if hi < _INT64.max:
                edges.append(hi + 1)
        return np.array(edges, dtype=np.int64)

    def __call__(self, n):
        """a(n): 0 or 1 for an int, an int64 array of them for an int64 array.

        n must fit in int64 (OverflowError otherwise).
        """
        inside = np.searchsorted(self._edges, np.asarray(n, dtype=np.int64), side="right") & 1
        return int(inside) if np.ndim(inside) == 0 else inside

    def count_upto(self, N: int) -> int:
        """Number of n in [1, N] with a(n) = 1, by interval overlap."""
        total = 0
        for lo, hi in self.blocks:
            total += max(0, min(hi, N) - max(lo, 1) + 1)
        return total


def merge_intervals(intervals) -> tuple:
    """Merge touching or overlapping inclusive intervals; lo > hi is rejected."""
    merged = []
    for lo, hi in sorted(intervals):
        if hi < lo:
            raise InvalidRangeError(f"block [{lo}, {hi}] is empty")
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def erdos_blocks(k_max: int) -> BlockSequence:
    """Blocks [3^k - 2^k, 3^k + 2^k] for k = 1..k_max, merged where touching."""
    if k_max < 1:
        raise InvalidRangeError("k_max must be >= 1")
    if k_max > _MAX_BLOCK_K:  # before 3^k_max is computed
        raise InvalidRangeError(f"3^{k_max} exceeds the supported integer range")
    intervals = [(3**k - 2**k, 3**k + 2**k) for k in range(1, k_max + 1)]
    return BlockSequence(merge_intervals(intervals))


@dataclass(frozen=True)
class Checkpoints:
    """Virtual log log N values probing block k: its center and the middle of
    the zero gap after it."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidRangeError("checkpoint level must be >= 1")

    @property
    def loglogn_peak(self) -> float:
        return float(3**self.k)

    @property
    def loglogn_trough(self) -> float:
        return float(2 * (3**self.k - 2 ** (self.k - 1)))


def genericity_defect(seq: BlockSequence, N: int) -> float:
    """(1/N) sum_{n<=N} a(n): the Cesaro average of the cylinder observable."""
    if N < 1:
        raise InvalidRangeError("N must be >= 1")
    return seq.count_upto(N) / N


def loglog_interval_count(N: int, lo: float, hi: float) -> int:
    """Exact count of n in [3, N] with log log n in [lo, hi], for N <= 10**60.

    The boundaries are inverted (n ranges over an integer interval) rather
    than scanned: e^{e^x} is evaluated in extended precision and the cliff
    integer resolved by direct comparison at the two neighbors.
    """
    if N < 3:
        raise InvalidRangeError("N must be >= 3")
    if N > _FAR:
        raise RangeTooLargeError(f"N = {N} is over the cap of {_FAR}")
    if math.isnan(lo) or math.isnan(hi):
        raise InvalidRangeError(f"interval [{lo}, {hi}] has a NaN bound")
    if lo >= hi:
        raise InvalidRangeError("need lo < hi")
    n_min = max(3, _first_n_crossing(lo, strict=False))
    n_max = min(N, _first_n_crossing(hi, strict=True) - 1)
    return max(0, n_max - n_min + 1)


_FAR = 10**60  # the largest N counted
# Neighbouring n <= _FAR differ in log log n by more than 1e-63, and 140
# digits compute it to within 1e-138; Decimal's ln and exp are correctly rounded.
_DIGITS = 140


def _loglog_cmp(n: int, x: float, strict: bool) -> bool:
    # only the exact interval count needs decimal; keeps CLI start-up light
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = _DIGITS
        value = Decimal(n).ln().ln()
        return value > Decimal(x) if strict else value >= Decimal(x)


def _first_n_crossing(x: float, strict: bool) -> int:
    """Smallest n >= 3 with log log n >= x (or > x when strict), or _FAR + 1."""
    from decimal import Decimal, localcontext

    if not _loglog_cmp(_FAR, x, strict):  # also keeps e^{e^x} inside Decimal's range
        return _FAR + 1
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        cand = int(Decimal(x).exp().exp())
    n = max(3, cand - 2)
    while not _loglog_cmp(n, x, strict):
        n += 1
    while n > 3 and _loglog_cmp(n - 1, x, strict):
        n -= 1
    return n


def average_along_omega_blocks(seq: BlockSequence, profile: OmegaProfile) -> float:
    """Cesaro average of a(Omega(n)) over [1, N], exactly sum_k pi_k(N) a(k) / N."""
    return _scheme_average(profile, _values(seq, profile.k_max), AverageScheme.CESARO).real


def oscillation_profile(
    seq: BlockSequence, checkpoints, C: float = 3.0
) -> list[tuple[float, float]]:
    """Gaussian-extrapolated block averages at each checkpoint's virtual N.

    Emits (log log N, value) rows for both the peak and the trough of every
    checkpoint, sorted by log log N; peaks approach the window mass and
    troughs approach 0, exhibiting the divergence.
    """
    windows = []
    for cp in checkpoints:
        for loglogn in (cp.loglogn_peak, cp.loglogn_trough):
            if loglogn <= 1:
                raise InvalidRangeError("checkpoint log log N must exceed 1")
            windows.append(GaussianWindowSpec(loglogn=loglogn, C=C))
    # Every window is checked above, before any is evaluated, so a window too
    # large for the limits fails at once rather than after the smaller ones.
    return sorted((w.loglogn, extrapolated_average(seq, w).real) for w in windows)
