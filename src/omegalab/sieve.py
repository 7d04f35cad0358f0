"""Segmented sieve for Omega(n), the Liouville function, and profiles by counting.

sieve_segment gives Omega(n) over one range: the kernel sieves the odd n,
and Omega is completely additive, so Omega(2**a m) = a + Omega(m) folds the
even n back in.  The profiles over [1, N] come with no Omega sieve: pi_k
from a table of prime counts (pi_k_profile), and the harmonic mass by k from
a table of prime reciprocal sums as well (omega_profile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import InvalidRangeError, OmegalabError, RangeTooLargeError

# Omega(n) <= log2(n) < 64 for every feasible n, so one byte per integer.
MAX_OMEGA = 64
DEFAULT_SEGMENT_LENGTH = 1 << 22
# segment_spans' longest segment: the kernel peaks at 1.53 B per integer,
# 25.7 MB at this length (tracemalloc).  sieve_segment takes one default segment.
MAX_SEGMENT_LENGTH = 1 << 24
HARD_LIMIT = 10**10
MAX_SEGMENTS = 10**5  # spans of segment_spans; the default length needs 2385 at HARD_LIMIT
_PRIME_SEGMENT = 1 << 20  # odd numbers per segment of _prime_segments: 1 MB of flags


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
    ranges sieved share a few cached sieves instead of one each.
    """
    return base_primes(1 << (math.isqrt(max(hi - 1, 1)) - 1).bit_length())


def sieve_segment(lo: int, hi: int) -> np.ndarray:
    """Exact Omega(n) for lo <= n < hi via the segmented sieve: uint8, [i] = Omega(lo + i).

    At most DEFAULT_SEGMENT_LENGTH integers, one default segment.
    """
    _check_segment(lo, hi)
    return _omega_range(lo, hi)


def _check_segment(lo: int, hi: int) -> None:
    """sieve_segment's checks of [lo, hi), which need no sieve."""
    if lo >= hi or lo < 1:
        raise InvalidRangeError(f"invalid range [{lo}, {hi})")
    _check_limit(hi)
    if hi - lo > DEFAULT_SEGMENT_LENGTH:
        raise RangeTooLargeError(
            f"[{lo}, {hi}) has more than {DEFAULT_SEGMENT_LENGTH} integers in one range"
        )


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


@dataclass(frozen=True)
class OmegaProfile:
    """Per-k totals over [1, N]: counts pi_k(N) and harmonic mass by k.

    pik[k] is the number of n <= N with Omega(n) = k; inv_weights[k] is
    the sum of 1/n over those n (the logarithmic-average mass at k).
    pi_k_profile gives no harmonic mass: inv_weights is None there.
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
                f"the profile at N = {self.N} is pi_k_profile's and has no harmonic "
                "mass; logarithmic averages need omega_profile"
            )
        return float(math.fsum(self.inv_weights))


def _checked_profile(N: int, pik: np.ndarray, inv: np.ndarray | None) -> OmegaProfile:
    """The profile of pik and inv cut at k_max = floor(log2 N), once sum_k pi_k = N."""
    k_max = max(int(math.log2(N)), 0)
    if int(pik[: k_max + 1].sum()) != N:
        raise InvalidRangeError(f"pi_k counts do not partition [1, {N}]")
    return OmegaProfile(N, pik[: k_max + 1].copy(),
                        None if inv is None else inv[: k_max + 1].copy())


# ---------------------------------------------------------------------------
# Profiles by counting, with no Omega sieve
# ---------------------------------------------------------------------------

TUPLE_CHUNK = 1 << 12  # prime tuples the walk expands in one step
PAIR_CHUNK = 1 << 14  # (i, p) pairs _quotient_sums subtracts in one scatter
_BINS = MAX_OMEGA + 1
_HARMONIC_CUT = 1 << 16  # H(v) from _harmonic_table at v <= this, by Euler-Maclaurin above
_EULER_GAMMA = 0.5772156649015329


def _icbrt(n: int) -> int:
    """The largest c with c**3 <= n, for n >= 0."""
    c = round(n ** (1 / 3))
    while c**3 > n:
        c -= 1
    while (c + 1) ** 3 <= n:
        c += 1
    return c


@lru_cache(maxsize=1)
def _harmonic_table() -> np.ndarray:
    """[v] = H(v) - 1, the sum of 1/n over 2 <= n <= v, for v <= _HARMONIC_CUT.

    A cumulative sum whose step errors are recovered exactly (Knuth's
    TwoSum) and added back by a second cumulative sum, so that an entry is
    within u (H(v) - 1) of the exact sum of the rounded 1/n, u = 2**-53.
    Built on first use; read-only, since the cache shares it.
    """
    terms = np.arange(_HARMONIC_CUT + 1, dtype=np.float64)
    terms[:2] = 0.0
    np.divide(1.0, terms[2:], out=terms[2:])
    table = np.cumsum(terms)  # the sums; the errors are added in place below
    errors = np.empty_like(terms)
    errors[0] = 0.0
    e = errors[1:]  # TwoSum of table[v - 1] + terms[v], in place, into e[v - 1]
    np.subtract(table[1:], table[:-1], out=e)  # the step
    terms[1:] -= e  # terms[v]'s error
    np.subtract(table[1:], e, out=e)  # the virtual table[v - 1]
    np.subtract(table[:-1], e, out=e)  # table[v - 1]'s error
    e += terms[1:]
    table += np.cumsum(errors, out=errors)
    table.flags.writeable = False
    return table


def _harmonic_minus_one(v: np.ndarray) -> np.ndarray:
    """H(v) - 1 for each v >= 1: _harmonic_table's entry, or above its cut
    Euler-Maclaurin's ln v + gamma - 1 + 1/(2 v) - 1/(12 v**2), which falls
    short by less than 1/(120 v**4) < 2**-70."""
    out = np.empty(len(v))
    low = v <= _HARMONIC_CUT
    out[low] = _harmonic_table()[v[low]]
    x = v[~low].astype(np.float64)
    out[~low] = np.log(x) + ((_EULER_GAMMA - 1) + (0.5 - 1 / (12 * x)) / x)
    return out


def prime_counts_at_quotients(N: int):
    """(small, large, primes): pi(v) = small[v] for v <= r = isqrt(N),
    pi(N // i) = large[i] for 1 <= i <= r, and the primes <= r: _quotient_sums
    from S(v) = v - 1, the count of 2..v."""
    return _quotient_sums(N, lambda v: v - 1)


def _quotient_sums(N: int, initial):
    """(small, large, primes): S(v) = small[v] for v <= r = isqrt(N),
    S(N // i) = large[i] for 1 <= i <= r, and the primes <= r, where S(v)
    starts as initial(v), the sum of f(n) over 2..v, and ends as the sum of
    f(p) over the primes p <= v.  Integer tables count, f(n) = 1; float
    tables sum reciprocals, f(n) = 1/n.

    Lucy_Hedgehog's sieve (Project Euler problem 10 forum, 2013), the
    simple form of the Meissel-Lehmer method (Lagarias, Miller and
    Odlyzko, Math. Comp. 44 (1985)), for the completely multiplicative f.
    For each prime p <= r in turn, the v >= p * p lose the n whose least
    prime factor is p: S(v) -= f(p) (S(v // p) - S(p - 1)).  Every v // p
    is again some N // i, read from large while i * p <= r and from small
    after that.

    The primes p <= c = icbrt(N) go one at a time.  Each right-hand side
    is read whole before its table is updated, and large before small, so
    every update reads the S of the previous prime.

    The primes above c go together, as scatters of the (i, p) pairs, whole
    primes at a time, at most PAIR_CHUNK pairs per scatter (one prime has
    at most c pairs).  That gives the same tables, bit for bit:
    - small is final once p * p > r, and p > c gives p**3 > N, so
      p * p > N / p >= N / r >= r.  S(p - 1) and every small[N // (i p)]
      are read final.
    - p changes large[i] only for i <= N // p**2, and reads large only at
      i * p.  For p, p' > c, N // p'**2 <= N // (c + 1)**2 < c + 1 <= p
      <= i * p: no prime of the batch writes a large[j] that another prime
      of the batch reads, so every read finds the S that the primes <= c
      left, which no later prime changed: the S of the previous prime.
    - np.subtract.at applies the pairs in order, so the pairs of one
      large[i] subtract in ascending p, as one prime at a time would.
    """
    r = math.isqrt(N)
    primes = base_primes(r)
    small = initial(np.arange(r + 1, dtype=np.int64))
    large = np.zeros(r + 1, dtype=small.dtype)
    large[1:] = initial(N // np.arange(1, r + 1, dtype=np.int64))
    weighted = small.dtype.kind == "f"

    def drop(d, p):  # f(p) d
        return d / p if weighted else d

    split = int(np.searchsorted(primes, _icbrt(N), side="right"))
    for p in primes[:split].tolist():
        below = small[p - 1].item()  # S(p - 1)
        m = min(r, N // (p * p))  # large[i] with N // i >= p * p
        q = min(m, r // p)  # i <= q: S(N // (i p)) = large[i p]
        large[1 : q + 1] -= drop(large[p : q * p + 1 : p] - below, p)
        large[q + 1 : m + 1] -= drop(small[N // (p * np.arange(q + 1, m + 1))] - below, p)
        if p * p <= r:
            small[p * p :] -= drop(np.repeat(small[p : r // p + 1], p)[: r + 1 - p * p] - below, p)
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
        np.subtract.at(large, i, drop(value, p))
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
    return _counted_profile(N, harmonic=False)


def omega_profile(N: int, workers: int = 1) -> OmegaProfile:
    """The profile at N with its harmonic mass, by pi_k_profile's walk.

    Each tuple (P, i) also adds (R(N // P) - R(q - 1)) / P, the sum of
    1/(P p) over its primes p, to inv_k, where R(v) sums 1/p over the primes
    p <= v (_quotient_sums from H(v) - 1); inv_0 = 1.  workers must be >= 1
    and has no other effect.

    The bound.  With u = 2**-53, lam = ln N, r = isqrt(N),
    M = prod_{p <= r} p / (p - 1) and G = prod_{p <= r} (1 + 2/p), to
    first order in u,
        |inv_k - sum of 1/n over n <= N with Omega(n) = k|
            <= 2 M (E + u lam) + TUPLE_CHUNK u inv_k,
        E = 2 u lam (pi(r) + 4) G.
    Every exact S(v) lies in [0, lam], as 0 <= R(v) <= H(v) - 1 <= ln v.
    - H(v) - 1 starts within 8 u lam: within 2 u lam from the table (each
      1/n rounds by at most u/n, then one last rounding), within 6 u lam
      by Euler-Maclaurin (np.log within 2 ulps, plus a few roundings).
    - A prime's update of S(v) rounds the difference, the division and the
      subtraction: at most u lam + u lam / p + u lam <= 2 u lam.  It also
      carries the errors of S(v // p) and S(p - 1) over p, so the largest
      error e of the table becomes at most e (1 + 2/p) + 2 u lam, and after
      the pi(r) primes every R(v) is within G (8 + 2 pi(r)) u lam = E.
    - A tuple's term is within (2 E + 2 u lam) / P, and the 1/P of distinct
      tuples of primes <= r sum to at most M.
    - Each step of the walk sums at most TUPLE_CHUNK positive terms, and
      fsum adds the steps' sums of one k: (TUPLE_CHUNK - 1) u inv_k + u inv_k.
    So a logarithmic average of values in [-1, 1] is within
    2 (B + u H) / (H - B - u H) + u of its exact value, where B sums the
    bound over k and H = harmonic_sum().  The bound is a worst case: the
    measured errors stay below 2e-15 up to 10^7 (tests/test_sieve.py).
    """
    _check_workers(workers)
    return _counted_profile(N, harmonic=True)


def _counted_profile(N: int, harmonic: bool) -> OmegaProfile:
    """pi_k_profile's walk, which omega_profile's reciprocal sums ride along."""
    if N < 1:
        raise InvalidRangeError(f"N must be >= 1, got {N}")
    _check_limit(N + 1)
    small, large, primes = prime_counts_at_quotients(N)
    r = len(small) - 1
    pik = np.zeros(_BINS, dtype=np.int64)
    pik[0] = 1
    masses = [[1.0]] + [[] for _ in range(_BINS - 1)]  # the steps' sums of inv_k
    if harmonic:
        reciprocal_small, reciprocal_large, _ = _quotient_sums(N, _harmonic_minus_one)
        below = np.concatenate(([0.0], reciprocal_small[primes[1:] - 1]))  # R(primes[i] - 1)

    def count(P, i):
        """The sums of pi(N // P) - i and of the inv terms (0.0 without the
        harmonic mass) over the tuples, where their children start and each
        tuple's offset.  The children of tuple t are the primes p = primes[j],
        j >= i, with p * p <= N // P, numbered starts[t] <= c < starts[t + 1]
        with j = c - offsets[t].
        """
        quotients = N // P
        at = np.minimum(quotients, r)  # S(N // P) is small[N // P] for P > r
        low = P <= r
        counts = small[at]
        counts[low] = large[P[low]]
        mass = 0.0
        if harmonic:
            sums = reciprocal_small[at]
            sums[low] = reciprocal_large[P[low]]
            mass = float(((sums - below[i]) / P).sum())
        # floor(sqrt) of a float64 is isqrt for every quotient below 2**52
        width = np.maximum(small[np.sqrt(quotients).astype(np.int64)] - i, 0)
        starts = np.zeros(len(P) + 1, dtype=np.int64)
        np.cumsum(width, out=starts[1:])
        return int((counts - i).sum()), mass, starts, starts[:-1] - i

    def expand(k, P, i):
        # count's temporaries are freed before the recursion: each level holds
        # only P, i, starts and offsets
        total, mass, starts, offsets = count(P, i)
        pik[k] += total
        masses[k].append(mass)
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
    inv = np.array([math.fsum(parts) for parts in masses]) if harmonic else None
    return _checked_profile(N, pik, inv)


# perfbench/traced.py looks these three names of the former sieve pass up in
# every traced run.  Nothing calls them; they go with that lookup (ROADMAP item 16).
def _retired(*args, **kwargs):
    raise NotImplementedError("the sieve pass and its profile store are gone")


_profile_chunk = _cache_read = _cache_write = _retired
