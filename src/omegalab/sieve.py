"""Segmented sieve for Omega(n), the Liouville function, and pi_k counts.

Segments are independent units of work; every reduction merges per-segment
partial results in ascending segment order, so output is bit-identical for
any worker count.  A pass sieves and reduces the odd n only; Omega is
completely additive, so Omega(2**a m) = a + Omega(m) folds the even n back
in (sieve_segment, _profile_at).  pi_k_profile counts pi_k with no Omega
sieve, from a table of prime counts, for the callers that need no harmonic
mass.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import kernels
from .errors import InvalidRangeError, OmegalabError, RangeTooLargeError

# Omega(n) <= log2(n) < 64 for every feasible n, so one byte per integer.
MAX_OMEGA = 64
DEFAULT_SEGMENT_LENGTH = 1 << 22
# segment_spans' longest segment: the kernel peaks at 1.53 B per integer,
# 25.7 MB at this length (tracemalloc).  sieve_segment takes one default segment.
MAX_SEGMENT_LENGTH = 1 << 24
REDUCE_BLOCK = 1 << 16  # odd integers per pi_k/harmonic reduction step
HARD_LIMIT = 10**10
MAX_SEGMENTS = 10**5  # spans of one pass; the default length needs 2385 at HARD_LIMIT
_PRIME_SEGMENT = 1 << 20  # odd numbers per segment of _prime_segments: 1 MB of flags

CACHE_MAGIC = b"OMP2"
CACHE_ENV_VAR = "OMEGALAB_CACHE"


@lru_cache(maxsize=8)
def base_primes(limit: int) -> np.ndarray:
    """Primes <= limit (int64 array), the segments of _prime_segments in one array.

    Memory is the result plus one segment: the segments are written into a
    buffer of Rosser and Schoenfeld's bound pi(x) < 1.25506 x / ln x for
    x > 1 (Illinois J. Math. 6 (1962)), which resize then shrinks in place.
    The array is read-only: the cache hands the same one to every caller.
    """
    if limit < 2:
        primes = np.empty(0, dtype=np.int64)
    else:
        primes = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int64)
        count = 0
        for chunk in _prime_segments(limit):
            primes[count : count + len(chunk)] = chunk
            count += len(chunk)
        primes.resize(count, refcheck=False)  # no view of the buffer exists
    primes.flags.writeable = False
    return primes


def _prime_segments(limit: int):
    """The primes <= limit as non-empty ascending int64 arrays, one per range.

    A segmented sieve of Eratosthenes (Bays and Hudson, BIT 17 (1977)) over
    the odd numbers: each range holds _PRIME_SEGMENT of them, flags[i]
    standing for lo + 2 i, and is crossed off by the odd primes p with
    p * p < hi, which come from the same generator at isqrt(limit).  The
    number 1 stays set in the first range: its slot in the result becomes
    the prime 2.
    """
    if limit < 2:
        return
    odd = [p for chunk in _prime_segments(math.isqrt(limit)) for p in chunk.tolist()][1:]
    for lo in range(1, limit + 1, 2 * _PRIME_SEGMENT):
        hi = min(lo + 2 * _PRIME_SEGMENT, limit + 1)
        flags = np.ones((hi - lo + 1) // 2, dtype=bool)
        for p in odd:
            if p * p >= hi:
                break
            start = max(-(-lo // p) | 1, p) * p  # the first odd multiple >= lo and >= p * p
            flags[(start - lo) // 2 :: p] = False
        chunk = np.flatnonzero(flags).astype(np.int64, copy=False)
        chunk *= 2
        chunk += lo
        if lo == 1:
            chunk[0] = 2
        if len(chunk):
            yield chunk


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
    return _omega_range(lo, hi)


def _omega_range(lo: int, hi: int) -> np.ndarray:
    """Omega(n) for lo <= n < hi: the odd n from the kernel, each even n = 2 m
    as 1 + Omega(m) for m in [ceil(lo / 2), ceil(hi / 2)).

    Each level halves the range, so the kernel covers about hi - lo
    integers in all.
    """
    counts = np.empty(hi - lo, dtype=np.uint8)
    if hi // 2 > lo // 2:  # an odd n
        counts[(lo | 1) - lo :: 2] = kernels.omega_segment(lo, hi, sieving_primes(hi))
    if (hi + 1) // 2 > (lo + 1) // 2:  # an even n
        halves = _omega_range((lo + 1) // 2, (hi + 1) // 2)
        halves += 1
        counts[lo & 1 :: 2] = halves
    return counts


def liouville(omega_value: int) -> int:
    """(-1)**Omega."""
    return -1 if omega_value & 1 else 1


# ---------------------------------------------------------------------------
# Profile store (optional, via OMEGALAB_CACHE)
# ---------------------------------------------------------------------------
# One file per range [lo, hi): magic "OMP2" (the format version is its last
# byte), lo and hi as little-endian 8-byte unsigned, one RECORD_DTYPE record
# (the pi_k counts and harmonic masses by k of the odd n in the range), then
# the CRC32 of everything before it as a little-endian 4-byte unsigned.
# A pass stores the record of each span [lo, hi) and of each prefix
# [lo, N + 1) it reduced for a cut N inside a span.  "OMP1" files held the
# sums over every n; they read as misses and are rewritten.

RECORD_DTYPE = np.dtype([("pik", "<i8", MAX_OMEGA + 1), ("inv", "<f8", MAX_OMEGA + 1)])
_RANGE = struct.Struct("<QQ")
_CRC = struct.Struct("<I")
PROFILE_FILE_SIZE = len(CACHE_MAGIC) + _RANGE.size + RECORD_DTYPE.itemsize + _CRC.size


def _cache_dir() -> str | None:
    return os.environ.get(CACHE_ENV_VAR) or None


def _cache_path(lo: int, hi: int) -> str:
    return os.path.join(_cache_dir(), f"span_{lo}_{hi}.omp")


def _cache_read(lo: int, hi: int) -> np.ndarray | None:
    """The stored record of [lo, hi), or None on a miss.

    A missing or unreadable file, or one of the wrong size, magic, range
    or checksum, is a miss: the caller sieves the span again and rewrites
    the file.  Nothing is raised.
    """
    if _cache_dir() is None:
        return None
    try:
        with open(_cache_path(lo, hi), "rb") as fh:
            data = fh.read(PROFILE_FILE_SIZE + 1)
    except OSError:
        return None
    head, body = CACHE_MAGIC + _RANGE.pack(lo, hi), data[: -_CRC.size]
    if (len(data) != PROFILE_FILE_SIZE or not body.startswith(head)
            or data[-_CRC.size :] != _CRC.pack(zlib.crc32(body))):
        return None
    return np.frombuffer(bytearray(body[len(head) :]), RECORD_DTYPE)


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
    body = CACHE_MAGIC + _RANGE.pack(lo, hi) + record.tobytes()
    try:
        os.makedirs(directory, exist_ok=True)
        try:
            with open(tmp, "wb") as fh:
                fh.write(body + _CRC.pack(zlib.crc32(body)))
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
_BLOCK_OFFSETS = np.arange(0, 2 * REDUCE_BLOCK, 2, dtype=np.float64)


def _reduce(counts: np.ndarray, lo: int, ends) -> list:
    """(pik, inv) of the odd n in [lo, end) for each end in ends, from one pass.

    counts[i] = Omega((lo | 1) + 2 i), and ends ascend with lo < end <=
    hi, where counts holds the hi // 2 - lo // 2 odd n of [lo, hi).  The
    pass runs over fixed blocks of REDUCE_BLOCK odd n from lo through two
    preallocated buffers (the block's labels and its 1/n), so no
    segment-sized temporary is built.  Each block's weighted bincount sums
    its 1/n in index order from 0.0, and the block sums are added in
    block order: no 1/n is added to a running total of the whole span,
    which keeps the rounding error of inv far below that of one
    sequential sum.

    An end inside a block adds the part of that block below it to the
    totals before the block, and the block sequence carries on unchanged.
    So the (pik, inv) at an end depend only on lo and the end: a span
    [lo, end) reduced on its own gives the same bits.
    """
    labels = np.empty(REDUCE_BLOCK, dtype=np.intp)
    weights = np.empty(REDUCE_BLOCK, dtype=np.float64)
    pik = np.zeros(_BINS, dtype=np.int64)
    inv = np.zeros(_BINS, dtype=np.float64)
    stops = [end // 2 - lo // 2 for end in ends]  # odd n in [lo, end)
    parts = []
    for b in range(0, stops[-1], REDUCE_BLOCK):
        e = min(b + REDUCE_BLOCK, stops[-1])
        block, w = labels[: e - b], weights[: e - b]
        block[:] = counts[b:e]
        np.add(_BLOCK_OFFSETS[: e - b], (lo | 1) + 2 * b, out=w)
        np.divide(1.0, w, out=w)
        while len(parts) < len(stops) and stops[len(parts)] < e:
            k = stops[len(parts)] - b
            parts.append((pik + np.bincount(block[:k], minlength=_BINS),
                          inv + np.bincount(block[:k], weights=w[:k], minlength=_BINS)))
        pik += np.bincount(block, minlength=_BINS)
        inv += np.bincount(block, weights=w, minlength=_BINS)
    return parts + [(pik.copy(), inv.copy()) for _ in stops[len(parts):]]


def _profile_chunk(span, cuts=()):
    """[(end, pik, inv), ...]: the counts and sums of 1/n by Omega(n) of the
    odd n in [lo, end), from one pass over the span.

    The ends ascend: N + 1 for each cut N inside the span (lo <= N < hi -
    1), then the span's own end hi, last.  Each record comes from the store
    file of [lo, end); the span is sieved only if one of them is missing,
    and then every missing one is written.
    """
    lo, hi = span
    ends = [n + 1 for n in sorted(cuts) if lo <= n < hi - 1] + [hi]
    records = [_cache_read(lo, end) for end in ends]
    if any(record is None for record in records):
        counts = kernels.omega_segment(lo, hi, sieving_primes(hi))
        for i, part in enumerate(_reduce(counts, lo, ends)):
            if records[i] is None:
                records[i] = np.array([part], dtype=RECORD_DTYPE)
                _cache_write(lo, ends[i], records[i])
    return [(end, record["pik"][0], record["inv"][0]) for end, record in zip(ends, records)]


@dataclass(frozen=True)
class OmegaProfile:
    """Per-k totals over [1, N]: counts pi_k(N) and harmonic mass by k.

    pik[k] is the number of n <= N with Omega(n) = k; inv_weights[k] is
    the sum of 1/n over those n (the logarithmic-average mass at k).  A
    counted profile (pi_k_profile) has no harmonic mass: inv_weights is
    None there.
    """

    N: int
    pik: np.ndarray = field(repr=False)
    inv_weights: np.ndarray | None = field(repr=False)

    @property
    def k_max(self) -> int:
        return len(self.pik) - 1

    def harmonic_sum(self) -> float:
        if self.inv_weights is None:
            raise OmegalabError(
                f"the profile at N = {self.N} was counted and has no harmonic mass; "
                "logarithmic averages need omega_profile"
            )
        return float(math.fsum(self.inv_weights))


def omega_profiles(checkpoints, workers: int = 1) -> list[OmegaProfile]:
    """The profile at every N in checkpoints, from one pass over [1, max N].

    The pass gives the odd prefix, the (pik, inv) of the odd n <= M, at
    every M = N >> a that a checkpoint's fold needs (_profile_at).  Each
    prefix is bit-identical to a pass that ends at its M: whole spans are
    added in segment order, then the part of the span that holds M, which
    _reduce gives as it gives a span ending at M.  Results follow the order
    of checkpoints.
    """
    checkpoints = list(checkpoints)
    if not checkpoints or min(checkpoints) < 1:
        raise InvalidRangeError("checkpoints must be a non-empty list of N >= 1")
    n_max = max(checkpoints)
    _check_limit(n_max + 1)  # before the span list is built
    spans = segment_spans(n_max)
    wanted = {n >> a for n in set(checkpoints) for a in range(n.bit_length())}
    chunks = map_segments(spans, partial(_profile_chunk, cuts=tuple(sorted(wanted))), workers)
    pik = np.zeros(_BINS, dtype=np.int64)
    inv = np.zeros(_BINS, dtype=np.float64)
    odd = {}
    for parts in chunks:  # segment order
        for end, part_pik, part_inv in parts:
            odd[end - 1] = pik + part_pik, inv + part_inv
        pik, inv = odd[end - 1]  # the span's own end, last
    return [_profile_at(n, odd) for n in checkpoints]


def _profile_at(N: int, odd: dict) -> OmegaProfile:
    """The profile at N, folded from the odd prefixes odd[N >> a].

    Every n <= N is 2**a m with m odd and m <= N >> a, and
    Omega(n) = a + Omega(m), so pi_k(N) = sum_a pi_{k-a}^odd(N >> a) and
    inv_k(N) = sum_a 2**-a inv_{k-a}^odd(N >> a).  The terms are added in
    ascending a; scaling by 2**-a is exact.
    """
    pik = np.zeros(_BINS, dtype=np.int64)
    inv = np.zeros(_BINS, dtype=np.float64)
    for a in range(N.bit_length()):
        m = N >> a
        odd_pik, odd_inv = odd[m]
        if int(odd_pik.sum()) != (m + 1) // 2:
            raise InvalidRangeError(f"pi_k counts do not partition the odd n <= {m}")
        pik[a:] += odd_pik[: _BINS - a]
        inv[a:] += np.ldexp(odd_inv[: _BINS - a], -a)
    return _checked_profile(N, pik, inv)


def _checked_profile(N: int, pik: np.ndarray, inv: np.ndarray | None) -> OmegaProfile:
    """The profile of pik and inv cut at k_max = floor(log2 N), once sum_k pi_k = N."""
    k_max = max(int(math.log2(N)), 0)
    if int(pik[: k_max + 1].sum()) != N:
        raise InvalidRangeError(f"pi_k counts do not partition [1, {N}]")
    return OmegaProfile(N, pik[: k_max + 1].copy(),
                        None if inv is None else inv[: k_max + 1].copy())


def omega_profile(N: int, workers: int = 1) -> OmegaProfile:
    return omega_profiles([N], workers)[0]


# ---------------------------------------------------------------------------
# pi_k by counting, with no Omega sieve
# ---------------------------------------------------------------------------

TUPLE_CHUNK = 1 << 12  # prime tuples pi_k_profile expands in one step
PAIR_CHUNK = 1 << 14  # (i, p) pairs prime_counts_at_quotients subtracts in one scatter


def _icbrt(n: int) -> int:
    """The largest c with c**3 <= n, for n >= 0."""
    c = round(n ** (1 / 3))
    while c**3 > n:
        c -= 1
    while (c + 1) ** 3 <= n:
        c += 1
    return c


def prime_counts_at_quotients(N: int):
    """(small, large, primes): pi(v) = small[v] for v <= r = isqrt(N),
    pi(N // i) = large[i] for 1 <= i <= r, and the primes <= r.

    Lucy_Hedgehog's sieve (Project Euler problem 10 forum, 2013), the
    simple form of the Meissel-Lehmer method (Lagarias, Miller and
    Odlyzko, Math. Comp. 44 (1985)).  S(v) starts as v - 1, the count of
    2..v; for each prime p <= r in turn, the v >= p * p lose the numbers
    whose least prime factor is p: S(v) -= S(v // p) - S(p - 1).  Every
    v // p is again some N // i, read from large while i * p <= r and from
    small after that.

    The primes p <= c = icbrt(N) go one at a time.  Each right-hand side
    is read whole before its table is updated, and large before small, so
    every update reads the S of the previous prime.

    The primes above c go together, as integer scatters of the (i, p)
    pairs, whole primes at a time, at most PAIR_CHUNK pairs per scatter
    (one prime has at most c pairs).  That gives the same tables:
    - small is final once p * p > r, and p > c gives p**3 > N, so
      p * p > N / p >= N / r >= r.  S(p - 1) and every small[N // (i p)]
      are read final.
    - p changes large[i] only for i <= N // p**2, and reads large only at
      i * p.  For p, p' > c, N // p'**2 <= N // (c + 1)**2 < c + 1 <= p
      <= i * p: no prime of the batch writes a large[j] that another prime
      of the batch reads, so every read finds the S that the primes <= c
      left, which no later prime changed: the S of the previous prime.
    - Integer subtraction commutes, so the order in which the pairs
      subtract from one large[i] does not change it.
    """
    r = math.isqrt(N)
    primes = base_primes(r)
    small = np.arange(-1, r, dtype=np.int64)  # small[v] = v - 1
    large = np.zeros(r + 1, dtype=np.int64)
    large[1:] = N // np.arange(1, r + 1, dtype=np.int64) - 1
    split = int(np.searchsorted(primes, _icbrt(N), side="right"))
    for p in primes[:split].tolist():
        below = int(small[p - 1])  # S(p - 1) = pi(p - 1)
        m = min(r, N // (p * p))  # large[i] with N // i >= p * p
        q = min(m, r // p)  # i <= q: S(N // (i p)) = large[i p]
        large[1 : q + 1] -= large[p : q * p + 1 : p] - below
        large[q + 1 : m + 1] -= small[N // (p * np.arange(q + 1, m + 1))] - below
        if p * p <= r:
            small[p * p :] -= np.repeat(small[p : r // p + 1], p)[: r + 1 - p * p] - below
    big = primes[split:]
    starts = np.zeros(len(big) + 1, dtype=np.int64)
    np.cumsum(N // (big * big), out=starts[1:])  # p's pairs are i = 1 .. N // p**2
    a = 0
    while a < len(big):
        b = max(a + 1, int(np.searchsorted(starts, starts[a] + PAIR_CHUNK, side="right")) - 1)
        reps = starts[a + 1 : b + 1] - starts[a:b]
        p = np.repeat(big[a:b], reps)
        i = np.arange(starts[a], starts[b]) - np.repeat(starts[a:b] - 1, reps)
        ip = i * p
        value = small[np.minimum(N // ip, r)]  # S(N // (i p)), for i p > r
        inner = ip <= r
        value[inner] = large[ip[inner]]
        value -= small[p - 1]
        np.subtract.at(large, i, value)
        a = b
    return small, large, primes


def pi_k_profile(N: int) -> OmegaProfile:
    """The profile at N by counting, with no Omega sieve: pi_k only, no harmonic mass.

    pi_0(N) = 1.  For k >= 1, every n <= N with Omega(n) = k is P * p for
    one nondecreasing tuple of k - 1 primes, the last q = primes[i], with
    product P, and one prime p with q <= p <= N / P: pi(N // P) - i of
    them (the empty tuple has P = 1 and i = 0); for k = 2 this is the P2
    term of the Meissel-Lehmer method (Deleglise and Rivat, Math. Comp.
    65 (1996)).  A tuple has children only while P * q * q <= N; they are
    expanded depth first, at most TUPLE_CHUNK at a time, so memory stays
    flat in N.
    """
    if N < 1:
        raise InvalidRangeError(f"N must be >= 1, got {N}")
    _check_limit(N + 1)
    small, large, primes = prime_counts_at_quotients(N)
    r = len(small) - 1
    pik = np.zeros(_BINS, dtype=np.int64)
    pik[0] = 1

    def count(P, i):
        """The sum of pi(N // P) - i over the tuples, then where their children
        start and each tuple's offset.

        The children of tuple t are the primes p = primes[j], j >= i, with
        p * p <= N // P; they are numbered starts[t] <= c < starts[t + 1],
        with j = c - offsets[t].
        """
        quotients = N // P
        counts = small[np.minimum(quotients, r)]  # pi(N // P), for P > r
        low = P <= r
        counts[low] = large[P[low]]
        # floor(sqrt) of a float64 is isqrt for every quotient below 2**52
        width = np.maximum(small[np.sqrt(quotients).astype(np.int64)] - i, 0)
        starts = np.zeros(len(P) + 1, dtype=np.int64)
        np.cumsum(width, out=starts[1:])
        return int((counts - i).sum()), starts, starts[:-1] - i

    def expand(k, P, i):
        # count's temporaries are freed before the recursion: each level holds
        # only P, i, starts and offsets
        total, starts, offsets = count(P, i)
        pik[k] += total
        for first in range(0, int(starts[-1]), TUPLE_CHUNK):
            last = min(first + TUPLE_CHUNK, int(starts[-1]))
            # tuples a .. b - 1 hold children first .. last - 1
            a = int(np.searchsorted(starts, first, side="right")) - 1
            b = int(np.searchsorted(starts, last - 1, side="right"))
            bounds = np.clip(starts[a : b + 1], first, last)
            reps = bounds[1:] - bounds[:-1]
            j = np.arange(first, last) - np.repeat(offsets[a:b], reps)
            expand(k + 1, np.repeat(P[a:b], reps) * primes[j], j)

    expand(1, np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
    return _checked_profile(N, pik, None)
