"""Segmented sieve for Omega(n), the Liouville function, and pi_k counts.

Segments are independent units of work; every reduction merges per-segment
partial results in ascending segment order, so output is bit-identical for
any worker count.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import kernels
from .errors import InvalidRangeError, InvalidResidueError, RangeTooLargeError

# Omega(n) <= log2(n) < 64 for every feasible n, so one byte per integer.
MAX_OMEGA = 64
DEFAULT_SEGMENT_LENGTH = 1 << 22
REDUCE_BLOCK = 1 << 16  # integers per pi_k/harmonic reduction step
HARD_LIMIT = 10**10

CACHE_MAGIC = b"OMG1"
CACHE_ENV_VAR = "OMEGALAB_CACHE"


@lru_cache(maxsize=8)
def base_primes(limit: int) -> np.ndarray:
    """Primes <= limit by a plain sieve of Eratosthenes (int64 array)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


@dataclass(frozen=True)
class FactorCountSegment:
    """Contiguous block of Omega values: counts[i] = Omega(lo + i)."""

    lo: int
    hi: int  # exclusive
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.hi <= self.lo or self.lo < 1:
            raise InvalidRangeError(f"bad segment range [{self.lo}, {self.hi})")
        if len(self.counts) != self.hi - self.lo:
            raise InvalidRangeError("counts length does not match range")

    def omega(self, n: int) -> int:
        if not self.lo <= n < self.hi:
            raise InvalidRangeError(f"{n} outside [{self.lo}, {self.hi})")
        return int(self.counts[n - self.lo])


def _check_limit(hi: int) -> None:
    if hi - 1 > HARD_LIMIT:
        raise RangeTooLargeError(
            f"range up to {hi - 1} exceeds the configured limit {HARD_LIMIT}"
        )


def sieve_segment(lo: int, hi: int) -> FactorCountSegment:
    """Exact Omega(n) for lo <= n < hi via the segmented sieve."""
    if lo >= hi or lo < 1:
        raise InvalidRangeError(f"invalid range [{lo}, {hi})")
    _check_limit(hi)
    cached = _cache_read(lo, hi)
    if cached is not None:
        return FactorCountSegment(lo, hi, cached)
    primes = base_primes(math.isqrt(max(hi - 1, 1)))
    counts = kernels.omega_segment(lo, hi, primes)
    _cache_write(lo, hi, counts)
    return FactorCountSegment(lo, hi, counts)


def omega_oracle(n: int) -> int:
    """Omega(n) by naive trial division.  Test oracle / single queries only."""
    if n < 1:
        raise InvalidRangeError("n must be >= 1")
    count = 0
    for d in (2, 3):
        while n % d == 0:
            n //= d
            count += 1
    d = 5
    step = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += step
        step = 6 - step  # 5, 7, 11, 13, ... (6k +- 1)
    if n > 1:
        count += 1
    return count


def liouville(omega_value: int) -> int:
    """(-1)**Omega."""
    return -1 if omega_value & 1 else 1


# ---------------------------------------------------------------------------
# Segment cache (optional, via OMEGALAB_CACHE)
# ---------------------------------------------------------------------------
# File format: magic "OMG1", lo and hi as little-endian 8-byte unsigned,
# then one byte per integer (counts[i] = Omega(lo + i)).


def write_segment_file(path: str, lo: int, hi: int, counts: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<QQ", lo, hi))
        fh.write(counts.astype(np.uint8, copy=False).tobytes())


def read_segment_file(path: str) -> tuple[int, int, np.ndarray]:
    """(lo, hi, counts) from a segment file; InvalidRangeError if malformed."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CACHE_MAGIC:
            raise InvalidRangeError(f"{path}: bad magic {magic!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise InvalidRangeError(f"{path}: truncated header")
        lo, hi = struct.unpack("<QQ", header)
        counts = np.frombuffer(fh.read(), dtype=np.uint8)
    if len(counts) != hi - lo:
        raise InvalidRangeError(f"{path}: truncated segment")
    return lo, hi, counts


def _cache_dir() -> str | None:
    return os.environ.get(CACHE_ENV_VAR) or None


def _cache_path(lo: int, hi: int) -> str:
    return os.path.join(_cache_dir(), f"seg_{lo}_{hi}.omg")


def _cache_read(lo: int, hi: int) -> np.ndarray | None:
    """Cached counts for [lo, hi), or None on a miss.

    A missing, unreadable, truncated or foreign file (bad magic, or a
    header naming another range) is a miss: the caller sieves again and
    rewrites the file.
    """
    if _cache_dir() is None:
        return None
    try:
        file_lo, file_hi, counts = read_segment_file(_cache_path(lo, hi))
    except (OSError, InvalidRangeError):
        return None
    if (file_lo, file_hi) != (lo, hi):
        return None
    return counts


def _cache_write(lo: int, hi: int, counts: np.ndarray) -> None:
    """Write the segment file atomically: a temporary file, then os.replace.

    Readers, and other processes writing the same segment, see either no
    file or a whole one.
    """
    directory = _cache_dir()
    if directory is None:
        return
    os.makedirs(directory, exist_ok=True)
    path = _cache_path(lo, hi)
    tmp = f"{path}.{os.getpid()}.tmp"  # one writer per process and path
    try:
        write_segment_file(tmp, lo, hi, counts)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Deterministic parallel folds over segments
# ---------------------------------------------------------------------------


def segment_spans(n_max: int, segment_length: int | None = None):
    """Spans (lo, hi) covering 1..n_max, each of the configured length.

    segment_length None means DEFAULT_SEGMENT_LENGTH; any other value must
    be a positive integer.
    """
    length = DEFAULT_SEGMENT_LENGTH if segment_length is None else segment_length
    if length < 1:
        raise InvalidRangeError(f"segment length must be >= 1, got {length}")
    return [(lo, min(lo + length, n_max + 1)) for lo in range(1, n_max + 1, length)]


def map_segments(n_max, chunk_fn, workers=1, segment_length=None):
    """Apply chunk_fn to every span; results come back in segment order."""
    _check_limit(n_max + 1)
    spans = segment_spans(n_max, segment_length)
    if workers <= 1 or len(spans) <= 1:
        return [chunk_fn(span) for span in spans]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(chunk_fn, spans))


def _profile_chunk(span):
    """(pik, inv) of one span: counts and sums of 1/n by Omega(n).

    Reduced in blocks of REDUCE_BLOCK integers so that no segment-sized
    temporary is built.  np.add.at adds the weights in index order, as a
    weighted bincount over the whole span does, so inv is bit-identical
    to that reference.
    """
    lo, hi = span
    counts = sieve_segment(lo, hi).counts
    pik = np.zeros(MAX_OMEGA + 1, dtype=np.int64)
    inv = np.zeros(MAX_OMEGA + 1, dtype=np.float64)
    for b in range(lo, hi, REDUCE_BLOCK):
        e = min(b + REDUCE_BLOCK, hi)
        block = counts[b - lo : e - lo]
        pik += np.bincount(block, minlength=MAX_OMEGA + 1)
        np.add.at(inv, block, 1.0 / np.arange(b, e, dtype=np.float64))
    return pik, inv


@dataclass(frozen=True)
class OmegaProfile:
    """Per-k totals over [1, N]: counts pi_k(N) and harmonic mass by k.

    pik[k] is the number of n <= N with Omega(n) = k; inv_weights[k] is
    the sum of 1/n over those n (the logarithmic-average mass at k).
    """

    N: int
    pik: np.ndarray = field(repr=False)
    inv_weights: np.ndarray = field(repr=False)

    @property
    def k_max(self) -> int:
        return len(self.pik) - 1

    def harmonic_sum(self) -> float:
        return float(math.fsum(self.inv_weights))


def omega_profile(N: int, workers: int = 1, segment_length: int | None = None) -> OmegaProfile:
    if N < 1:
        raise InvalidRangeError("N must be >= 1")
    chunks = map_segments(N, _profile_chunk, workers, segment_length)
    pik = np.zeros(MAX_OMEGA + 1, dtype=np.int64)
    inv = np.zeros(MAX_OMEGA + 1, dtype=np.float64)
    for chunk_pik, chunk_inv in chunks:  # merged in segment order
        pik += chunk_pik
        inv += chunk_inv
    k_max = max(int(math.log2(N)), 0)
    if int(pik[: k_max + 1].sum()) != N:
        raise InvalidRangeError(f"pi_k counts do not partition [1, {N}]")
    return OmegaProfile(N, pik[: k_max + 1].copy(), inv[: k_max + 1].copy())


@dataclass(frozen=True)
class PiKHistogram:
    """pi_k(N) for all 0 <= k <= k_max, with sum_k pi_k(N) = N."""

    N: int
    counts: dict[int, int]

    def __post_init__(self):
        if sum(self.counts.values()) != self.N:
            raise InvalidRangeError("pi_k histogram does not partition [N]")

    def as_array(self) -> np.ndarray:
        k_max = max(self.counts)
        out = np.zeros(k_max + 1, dtype=np.int64)
        for k, v in self.counts.items():
            out[k] = v
        return out


def pi_k_histogram(
    N: int,
    workers: int = 1,
    segment_length: int | None = None,
    profile: OmegaProfile | None = None,
) -> PiKHistogram:
    """Exact pi_k(N) for all k, independent of segmentation and worker count."""
    if profile is None:
        profile = omega_profile(N, workers, segment_length)
    counts = {k: int(v) for k, v in enumerate(profile.pik)}
    return PiKHistogram(N, counts)


def _tail_chunk(span, C, sd_n):
    lo, hi = span
    seg = sieve_segment(lo, hi)
    ns = np.arange(lo, hi, dtype=np.float64)
    mask = ns >= 3  # log log n undefined/negative below 3
    loglog = np.zeros_like(ns)
    loglog[mask] = np.log(np.log(ns[mask]))
    dev = np.abs(seg.counts.astype(np.float64) - loglog)
    return int(np.count_nonzero(mask & (dev > C * sd_n)))


def hardy_ramanujan_tail(
    N: int, C: float, workers: int = 1, segment_length: int | None = None
) -> float:
    """Fraction of n <= N with |Omega(n) - log log n| > C * sqrt(log log N).

    n in {1, 2} are excluded (log log n undefined or negative there); their
    O(1/N) contribution is below every stated tolerance.
    """
    if N < 3:
        raise InvalidRangeError("N must be >= 3")
    if C <= 0:
        raise InvalidRangeError("C must be > 0")
    sd_n = math.sqrt(math.log(math.log(N)))
    chunk = partial(_tail_chunk, C=C, sd_n=sd_n)
    return sum(map_segments(N, chunk, workers, segment_length)) / N


def residue_class_density(
    N: int,
    m: int,
    r: int,
    workers: int = 1,
    segment_length: int | None = None,
    profile: OmegaProfile | None = None,
) -> float:
    """|{n <= N : Omega(n) = r mod m}| / N."""
    if m < 1 or not 0 <= r < m:
        raise InvalidResidueError(f"residue {r} mod {m} is invalid")
    if profile is None:
        profile = omega_profile(N, workers, segment_length)
    ks = np.arange(len(profile.pik))
    return int(profile.pik[ks % m == r].sum()) / N
