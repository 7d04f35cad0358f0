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
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import kernels
from .errors import InvalidRangeError, OmegalabError, RangeTooLargeError, require_finite

# Omega(n) <= log2(n) < 64 for every feasible n, so one byte per integer.
MAX_OMEGA = 64
DEFAULT_SEGMENT_LENGTH = 1 << 22
# segment_spans' longest segment: the kernel peaks at 3.03 B per integer,
# 48.5 MB at this length (tracemalloc).  sieve_segment takes one default segment.
MAX_SEGMENT_LENGTH = 1 << 24
REDUCE_BLOCK = 1 << 16  # integers per pi_k/harmonic reduction step
HARD_LIMIT = 10**10
MAX_SEGMENTS = 10**5  # spans of one pass; the default length needs 2385 at HARD_LIMIT

CACHE_MAGIC = b"OMP1"
CACHE_ENV_VAR = "OMEGALAB_CACHE"


@lru_cache(maxsize=8)
def base_primes(limit: int) -> np.ndarray:
    """Primes <= limit (int64 array) by a sieve of Eratosthenes over the odd numbers.

    flags[i] stands for 2 i + 1, so the sieve holds (limit + 1) // 2 bytes
    and makes no pass for 2.  flags[0] (the number 1) stays set: its slot in
    the result becomes the prime 2.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones((limit + 1) // 2, dtype=bool)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p // 2]:
            flags[p * p // 2 :: p] = False
    primes = np.flatnonzero(flags).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def _check_limit(hi: int) -> None:
    if hi - 1 > HARD_LIMIT:
        raise RangeTooLargeError(
            f"range up to {hi - 1} exceeds the configured limit {HARD_LIMIT}"
        )


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise InvalidRangeError(f"workers must be >= 1, got {workers}")


def sieving_primes(hi: int) -> np.ndarray:
    """Every prime p with p*p < hi, and maybe more: the kernel stops at the first p*p >= hi.

    base_primes of the power of two at or above isqrt(hi - 1), so that the
    segments of a pass share a few cached sieves instead of one each.
    """
    return base_primes(1 << (math.isqrt(max(hi - 1, 1)) - 1).bit_length())


def sieve_segment(lo: int, hi: int) -> np.ndarray:
    """Exact Omega(n) for lo <= n < hi via the segmented sieve: uint8, [i] = Omega(lo + i).

    At most DEFAULT_SEGMENT_LENGTH integers, the span of one pass segment.
    """
    if lo >= hi or lo < 1:
        raise InvalidRangeError(f"invalid range [{lo}, {hi})")
    _check_limit(hi)
    if hi - lo > DEFAULT_SEGMENT_LENGTH:
        raise RangeTooLargeError(
            f"[{lo}, {hi}) has more than {DEFAULT_SEGMENT_LENGTH} integers in one range"
        )
    return kernels.omega_segment(lo, hi, sieving_primes(hi))


def liouville(omega_value: int) -> int:
    """(-1)**Omega."""
    return -1 if omega_value & 1 else 1


# ---------------------------------------------------------------------------
# Profile store (optional, via OMEGALAB_CACHE)
# ---------------------------------------------------------------------------
# One file per span [lo, hi): magic "OMP1" (the format version is its last
# byte), lo and hi as little-endian 8-byte unsigned, one RECORD_DTYPE record
# (the span's pi_k counts and harmonic masses by k), then the CRC32 of
# everything before it as a little-endian 4-byte unsigned.

RECORD_DTYPE = np.dtype([("pik", "<i8", MAX_OMEGA + 1), ("inv", "<f8", MAX_OMEGA + 1)])
_RANGE = struct.Struct("<QQ")
_CRC = struct.Struct("<I")
PROFILE_FILE_SIZE = len(CACHE_MAGIC) + _RANGE.size + RECORD_DTYPE.itemsize + _CRC.size


def write_profile_file(path: str, lo: int, hi: int, record: np.ndarray) -> None:
    body = CACHE_MAGIC + _RANGE.pack(lo, hi) + record.tobytes()
    with open(path, "wb") as fh:
        fh.write(body + _CRC.pack(zlib.crc32(body)))


def read_profile_file(path: str) -> tuple[int, int, np.ndarray]:
    """(lo, hi, record) from a profile file; InvalidRangeError if malformed."""
    with open(path, "rb") as fh:
        data = fh.read(PROFILE_FILE_SIZE + 1)
    if len(data) != PROFILE_FILE_SIZE:
        raise InvalidRangeError(f"{path}: {len(data)} bytes, not {PROFILE_FILE_SIZE}")
    if data[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise InvalidRangeError(f"{path}: bad magic {data[: len(CACHE_MAGIC)]!r}")
    body, (crc,) = data[: -_CRC.size], _CRC.unpack(data[-_CRC.size :])
    if zlib.crc32(body) != crc:
        raise InvalidRangeError(f"{path}: checksum mismatch")
    lo, hi = _RANGE.unpack_from(body, len(CACHE_MAGIC))
    record = np.frombuffer(bytearray(body[len(CACHE_MAGIC) + _RANGE.size :]), RECORD_DTYPE)
    return lo, hi, record


def _cache_dir() -> str | None:
    return os.environ.get(CACHE_ENV_VAR) or None


def _cache_path(lo: int, hi: int) -> str:
    return os.path.join(_cache_dir(), f"span_{lo}_{hi}.omp")


def _cache_read(lo: int, hi: int) -> np.ndarray | None:
    """The stored record of [lo, hi), or None on a miss.

    A missing, unreadable, short, foreign (bad magic, or a header naming
    another range) or checksum-failing file is a miss: the caller sieves
    the span again and rewrites the file.
    """
    if _cache_dir() is None:
        return None
    try:
        file_lo, file_hi, record = read_profile_file(_cache_path(lo, hi))
    except (OSError, InvalidRangeError):
        return None
    if (file_lo, file_hi) != (lo, hi):
        return None
    return record


def _cache_write(lo: int, hi: int, record: np.ndarray) -> None:
    """Write the profile file atomically: a temporary file, then os.replace.

    Readers, and other processes writing the same span, see either no
    file or a whole one.  A cache directory that cannot be created or
    written raises OmegalabError.
    """
    directory = _cache_dir()
    if directory is None:
        return
    path = _cache_path(lo, hi)
    tmp = f"{path}.{os.getpid()}.tmp"  # one writer per process and path
    try:
        os.makedirs(directory, exist_ok=True)
        try:
            write_profile_file(tmp, lo, hi, record)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OmegalabError(f"cannot write the profile cache {directory}: {exc}") from None


# ---------------------------------------------------------------------------
# Deterministic parallel folds over segments
# ---------------------------------------------------------------------------


def segment_spans(n_max: int, segment_length: int | None = None):
    """Spans (lo, hi) covering 1..n_max, each of the configured length.

    segment_length None means DEFAULT_SEGMENT_LENGTH; any other value must
    be a positive integer no larger than MAX_SEGMENT_LENGTH.  More than
    MAX_SEGMENTS spans raise RangeTooLargeError before the list is built.
    """
    length = DEFAULT_SEGMENT_LENGTH if segment_length is None else segment_length
    if length < 1:
        raise InvalidRangeError(f"segment length must be >= 1, got {length}")
    if length > MAX_SEGMENT_LENGTH:
        raise RangeTooLargeError(
            f"segment length {length} exceeds the cap {MAX_SEGMENT_LENGTH}"
        )
    count = -(-n_max // length)
    if count > MAX_SEGMENTS:
        raise RangeTooLargeError(
            f"[1, {n_max}] needs {count} segments of length {length}, "
            f"over the cap of {MAX_SEGMENTS}; use a longer segment length"
        )
    return [(lo, min(lo + length, n_max + 1)) for lo in range(1, n_max + 1, length)]


def _pool_size(workers: int, n_spans: int) -> int:
    """Processes map_segments runs on: min(workers, spans, CPUs)."""
    return max(1, min(workers, n_spans, os.cpu_count() or 1))


def map_segments(spans, chunk_fn, workers=1):
    """Apply chunk_fn to every span; results come back in segment order.

    The pool starts _pool_size processes at once, never more than the
    machine has CPUs or there are spans.
    """
    _check_workers(workers)
    size = _pool_size(workers, len(spans))
    if size == 1:
        return [chunk_fn(span) for span in spans]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(chunk_fn, spans))


_BINS = MAX_OMEGA + 1
_BLOCK_OFFSETS = np.arange(REDUCE_BLOCK, dtype=np.float64)


def _reduce(counts: np.ndarray, lo: int, ends) -> list:
    """(pik, inv) of [lo, end) for each end in ends, from one pass.

    counts[i] = Omega(lo + i), and ends ascend with lo < end <=
    lo + len(counts).  The pass runs in blocks of at most REDUCE_BLOCK
    integers through two preallocated buffers, so no segment-sized
    temporary is built.  The intp buffer holds the labels 0..MAX_OMEGA,
    then the block's counts; the float64 buffer holds the running inv,
    then 1/n for the block.  pik adds the block's bincount, and inv is
    the weighted bincount of both buffers.

    A weighted bincount adds each bin's weights in index order, starting
    from 0.0.  Its first addend for bin k is inv[k], and 0.0 + inv[k] is
    exact, so each block carries on the same sequential sum: inv at every
    end is bit-identical to one weighted bincount over [lo, end), however
    the blocks fall.
    """
    labels = np.empty(_BINS + REDUCE_BLOCK, dtype=np.intp)
    labels[:_BINS] = np.arange(_BINS)
    weights = np.empty(_BINS + REDUCE_BLOCK, dtype=np.float64)
    pik = np.zeros(_BINS, dtype=np.int64)
    inv = np.zeros(_BINS, dtype=np.float64)
    parts = []
    b = lo
    for end in ends:
        while b < end:
            e = min(b + REDUCE_BLOCK, end)
            used = _BINS + e - b
            block = labels[_BINS:used]
            block[:] = counts[b - lo : e - lo]
            pik += np.bincount(block, minlength=_BINS)
            ns = weights[_BINS:used]
            np.add(_BLOCK_OFFSETS[: e - b], b, out=ns)
            np.divide(1.0, ns, out=ns)
            weights[:_BINS] = inv
            inv = np.bincount(labels[:used], weights=weights[:used])
            b = e
        parts.append((pik.copy(), inv))
    return parts


def _profile_chunk(span, cuts=()):
    """(pik, inv) of one span: counts and sums of 1/n by Omega(n).

    Then, for each cut N inside the span (lo <= N < hi - 1), in ascending
    order, the (pik, inv) of [lo, N], from the same pass as the span's
    own.  A span with a stored record and no cut is not sieved; a span
    with a cut is sieved again and reduced up to its last cut.
    """
    lo, hi = span
    inside = sorted(n for n in cuts if lo <= n < hi - 1)
    record = _cache_read(lo, hi)
    parts = []
    if record is None or inside:
        counts = sieve_segment(lo, hi)
        parts = _reduce(counts, lo, [n + 1 for n in inside] + ([hi] if record is None else []))
        if record is None:
            record = np.array([parts.pop()], dtype=RECORD_DTYPE)
            _cache_write(lo, hi, record)
    return (record["pik"][0], record["inv"][0], *parts)


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


def omega_profiles(checkpoints, workers: int = 1) -> list[OmegaProfile]:
    """The profile at every N in checkpoints, from one pass over [1, max N].

    Each result is bit-identical to a pass that ends at its N: whole spans
    are added in segment order, then the part of the span that holds N,
    whose sums _reduce carries on in index order as a span ending at N
    does.  Results follow the order of checkpoints.
    """
    checkpoints = list(checkpoints)
    if not checkpoints or min(checkpoints) < 1:
        raise InvalidRangeError("checkpoints must be a non-empty list of N >= 1")
    n_max = max(checkpoints)
    _check_limit(n_max + 1)  # before the span list is built
    spans = segment_spans(n_max)
    wanted = set(checkpoints)
    cuts = sorted(wanted - {hi - 1 for _, hi in spans})
    chunk_fn = partial(_profile_chunk, cuts=tuple(cuts)) if cuts else _profile_chunk
    chunks = map_segments(spans, chunk_fn, workers)
    pik = np.zeros(MAX_OMEGA + 1, dtype=np.int64)
    inv = np.zeros(MAX_OMEGA + 1, dtype=np.float64)
    totals = {}
    for (lo, hi), (chunk_pik, chunk_inv, *parts) in zip(spans, chunks):  # segment order
        inside = [n for n in cuts if lo <= n < hi - 1]
        for n, (part_pik, part_inv) in zip(inside, parts):
            totals[n] = pik + part_pik, inv + part_inv
        pik += chunk_pik
        inv += chunk_inv
        if hi - 1 in wanted:
            totals[hi - 1] = pik.copy(), inv.copy()
    return [_profile_at(n, *totals[n]) for n in checkpoints]


def _profile_at(N: int, pik: np.ndarray, inv: np.ndarray) -> OmegaProfile:
    k_max = max(int(math.log2(N)), 0)
    if int(pik[: k_max + 1].sum()) != N:
        raise InvalidRangeError(f"pi_k counts do not partition [1, {N}]")
    return OmegaProfile(N, pik[: k_max + 1].copy(), inv[: k_max + 1].copy())


def omega_profile(N: int, workers: int = 1) -> OmegaProfile:
    return omega_profiles([N], workers)[0]


def hardy_ramanujan_tail(N: int, C: float, workers: int = 1) -> float:
    """Fraction of n <= N with |Omega(n) - log log n| > C * sqrt(log log N).

    n in {1, 2} are excluded (log log n undefined or negative there); their
    O(1/N) contribution is below every stated tolerance.

    For each k the n in [3, N] that fail are a prefix [3, a_k] (k - log log n
    above the band) and a suffix [b_k, N] (below it): the computed log log n
    grows by about 10^4 ulps per step for n <= HARD_LIMIT, so it is strictly
    increasing.  a_k and b_k are found by bisection on the same float64
    expression a per-n pass would evaluate, and the counts come from the
    profiles at 2, a_k, b_k - 1 and N.
    """
    require_finite(C=C)
    if N < 3:
        raise InvalidRangeError("N must be >= 3")
    if C <= 0:
        raise InvalidRangeError("C must be > 0")
    _check_limit(N + 1)  # before the bisection, which needs len(range(3, N + 1))
    band = C * math.sqrt(math.log(math.log(N)))
    k_max = int(math.log2(N))
    ns = range(3, N + 1)

    def dev(k, n):  # k - log log n, on a float64 array as a per-n pass has it
        return np.float64(k) - np.log(np.log(np.array([n], dtype=np.float64)))[0]

    ks = range(k_max + 1)
    a = [2 + bisect_left(ns, True, key=lambda n: not dev(k, n) > band) for k in ks]
    b = [3 + bisect_left(ns, True, key=lambda n: -dev(k, n) > band) for k in ks]
    profiles = omega_profiles(sorted({2, N, *a, *(n - 1 for n in b)}), workers)
    pik = {p.N: np.pad(p.pik, (0, k_max + 1 - len(p.pik))) for p in profiles}
    tail = sum(int(pik[a[k]][k] - pik[2][k] + pik[N][k] - pik[b[k] - 1][k]) for k in ks)
    return tail / N
