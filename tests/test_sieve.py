import ast
import math
import multiprocessing
import os
import struct
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    bulk_omega_oracle,
    eratosthenes,
    omega_oracle,
    prime_counts_one_prime_at_a_time,
)

import omegalab
from omegalab import (
    kernels,
    liouville,
    omega_profile,
    omega_profiles,
    pi_k_profile,
    sieve,
    sieve_segment,
)
from omegalab.errors import InvalidRangeError, OmegalabError, RangeTooLargeError
from omegalab.kernels import (
    COUNT_BITS,
    LOG_SCALE,
    PATTERN_MIN_HI,
    PATTERN_PERIOD,
    SUB_BLOCK,
    WORD,
    _accumulate,
    omega_segment,
)
from omegalab.sieve import (
    CACHE_MAGIC,
    DEFAULT_SEGMENT_LENGTH,
    HARD_LIMIT,
    MAX_OMEGA,
    MAX_SEGMENT_LENGTH,
    MAX_SEGMENTS,
    PROFILE_FILE_SIZE,
    RECORD_DTYPE,
    REDUCE_BLOCK,
    _cache_read,
    _cache_write,
    _profile_chunk,
    _reduce,
    base_primes,
    map_segments,
    segment_spans,
)


def test_first_ten_omega_values():
    seg = sieve_segment(1, 11)
    assert list(seg) == [0, 1, 1, 2, 1, 2, 1, 3, 2, 2]


def test_omega_oracle_small():
    assert omega_oracle(1) == 0
    assert omega_oracle(2) == 1
    assert omega_oracle(12) == 3
    assert omega_oracle(2**10) == 10
    assert omega_oracle(97) == 1


def test_base_primes_peak_is_flags_plus_result():
    limit = 10**7
    tracemalloc.start()
    try:
        primes = base_primes(limit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(primes) == 664_579 and primes.dtype == np.int64  # pi(10^7)
    assert peak <= (limit + 1) // 2 + primes.nbytes + 2**20  # one flag per odd number


def _base_primes_cases():
    squares = [p * p + d for p in (2, 3, 5, 7, 11, 97, 997, 1009) for d in (-1, 0, 1)]
    powers = [2**k + d for k in range(21) for d in (-1, 1)]
    return sorted(set(range(301)) | set(squares) | set(powers) | {10**6 + 3})


def _prime_segment_edges(length, segments):
    """Limits beside the ends of the first segments of _prime_segments, which
    hold length odd numbers each: segment k ends at 2 (k + 1) length."""
    return sorted({2 * k * length + d for k in range(1, segments + 1) for d in (-2, -1, 0, 1, 2)})


def test_base_primes_matches_eratosthenes(prime_segment):
    default = sieve._PRIME_SEGMENT
    runs = [(default, _base_primes_cases() + _prime_segment_edges(default, 3))]
    # segments short enough that the sieving primes' squares fall in later ones
    runs += [(length, [*range(301), *_prime_segment_edges(length, 40)]) for length in (1, 2, 8, 64)]
    for length, limits in runs:
        prime_segment(length)
        for limit in limits:
            primes = base_primes(limit)
            assert primes.dtype == np.int64
            assert primes.tolist() == eratosthenes(limit).tolist(), (limit, length)


def test_base_primes_are_read_only(profile_1e4):
    """The cached array is shared, so a write into it would reach every later
    caller: writing into it raises, the empty array's included."""
    for limit in (0, 1, 100, 10**4):
        primes = base_primes(limit)
        assert not primes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            primes[:1] = 3
        with pytest.raises(ValueError, match="read-only"):
            primes += 1
    assert base_primes(100)[:3].tolist() == [2, 3, 5]
    counted = pi_k_profile(10**4)
    assert counted.pik.tolist() == profile_1e4.pik.tolist()


def test_sieve_matches_trial_division_to_one_million(omega_to_1e6):
    for lo, hi in segment_spans(10**6, 1 << 18):
        seg = sieve_segment(lo, hi + 1)
        assert np.array_equal(seg.astype(np.int64), omega_to_1e6[lo - 1 : hi])


def test_a_pass_sieves_its_base_primes_once_per_power_of_two(profile_1e8):
    base_primes.cache_clear()
    profile = omega_profile(10**8)
    # the 24 spans ask for the primes up to 2**11, 2**12, 2**13 or 2**14
    assert base_primes.cache_info().misses <= 4
    assert profile.pik[1:3].tolist() == [5_761_455, 17_427_258]  # published
    assert profile.pik.tobytes() == profile_1e8.pik.tobytes()
    assert profile.inv_weights.tobytes() == profile_1e8.inv_weights.tobytes()


def assert_kernel_matches_oracle(lo, hi, expected=None):
    """The kernel on the odd n of [lo, hi), and sieve_segment on every n, against
    expected, by default bulk_omega_oracle(lo, hi)."""
    counts = omega_segment(lo, hi, base_primes(math.isqrt(hi - 1)))
    assert counts.dtype == np.uint8
    if expected is None:
        expected = bulk_omega_oracle(lo, hi)
    assert np.array_equal(counts.astype(np.int64), expected[(lo | 1) - lo :: 2])
    assert np.array_equal(sieve_segment(lo, hi).astype(np.int64), expected)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (1, 2),
        (1, 5),
        (1, 1 << 12),
        (1, 1000),
        (10**6 - 17, 10**6 + 500),
        # lo below the threshold start m = 4 * isqrt(hi) + 4: a prefix with
        # per-element thresholds; then lo one below, at and one above m
        (2 * math.isqrt(10**6) - 5, 10**6),
        (4 * math.isqrt(10**6) - 5, 10**6),
        *((4 * math.isqrt(10**6) + 4 + d, 10**6) for d in (-1, 0, 1)),
        (2**31 - 2**12, 2**31 + 2**12),
        (2**32 - 2**12, 2**32 + 2**12),
        (HARD_LIMIT - 2**14, HARD_LIMIT + 1),
    ],
)
def test_kernel_edge_spans_match_oracle(lo, hi, omega_to_1e6):
    inside = hi - 1 <= len(omega_to_1e6)  # the shared oracle covers [lo, hi)
    assert_kernel_matches_oracle(lo, hi, omega_to_1e6[lo - 1 : hi - 1] if inside else None)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, HARD_LIMIT), st.integers(1, 1 << 12))
def test_kernel_random_spans_match_oracle(lo, length):
    assert_kernel_matches_oracle(lo, min(lo + length, HARD_LIMIT + 1))


def plain_accumulate(lo: int, hi: int, primes: np.ndarray, dtype) -> np.ndarray:
    """Words of every n in [lo, hi), summed in dtype, by one strided pass per
    prime power over the whole span, from zeros: the loop without the odd
    index space, pre-sieving or blocking.  Its odd entries are the kernel's
    words."""
    acc = np.zeros(hi - lo, dtype=dtype)
    for p in primes:
        p = int(p)
        if p * p >= hi:
            break
        step = dtype((round(LOG_SCALE * math.log2(p)) << COUNT_BITS) | 1)
        q = p
        while True:
            acc[(-lo) % q :: q] += step
            if q > (hi - 1) // p:
                break
            q *= p
    return acc


def assert_words_match_plain_loop(lo, hi):
    primes = base_primes(math.isqrt(hi - 1))
    acc = _accumulate(lo, hi, primes)
    assert acc.dtype == WORD
    assert np.array_equal(acc, plain_accumulate(lo, hi, primes, WORD)[(lo | 1) - lo :: 2])


@pytest.mark.parametrize(
    "lo, hi",
    [
        (2**33, 2**33 + 1),  # Omega = 33, the most below HARD_LIMIT: even, no word
        (3**20, 3**20 + 1),  # Omega = 20, the most of an odd n: 20 steps of 3,
        # each rounded up by 0.45 unit
        (2 * 3**20, 2 * 3**20 + 1),
        (HARD_LIMIT - 2**12, HARD_LIMIT + 1),
    ],
)
def test_uint16_words_hold_the_extreme_n(lo, hi):
    # the count field holds Omega(n) <= log3(HARD_LIMIT) of an odd n, and the
    # log field its bound from the constants: 20 halves of rounding
    assert 3**21 > HARD_LIMIT and 20 < 2**COUNT_BITS
    assert round(LOG_SCALE * math.log2(HARD_LIMIT)) + 10 < 2 ** (16 - COUNT_BITS)
    primes = base_primes(math.isqrt(hi - 1))
    acc = _accumulate(lo, hi, primes)
    assert acc.dtype == np.uint16
    wide = plain_accumulate(lo, hi, primes, np.int64)[(lo | 1) - lo :: 2]  # no word can wrap
    assert wide.max(initial=0) < 2**16
    assert np.array_equal(acc.astype(np.int64), wide)
    assert_kernel_matches_oracle(lo, hi)


PERIOD_IN_N = 2 * PATTERN_PERIOD  # the pattern repeats every 6930 integers
K_BIG = 14428  # a period start 14428 * 6930 = 99 986 040 just below 10^8


@pytest.mark.parametrize(
    "lo, hi",
    [
        # hi on both sides of the pre-sieve threshold
        (1, PATTERN_MIN_HI - 1),
        (1, PATTERN_MIN_HI),
        (100, PATTERN_MIN_HI - 1),
        (100, PATTERN_MIN_HI),
        (PATTERN_MIN_HI - 2, PATTERN_MIN_HI + 1),
        # lo one before, at and one after a period start: odd, even, odd
        *((k * PERIOD_IN_N + d, k * PERIOD_IN_N + d + 3000)
          for k in (4, K_BIG) for d in (-1, 0, 1)),
        (K_BIG * PERIOD_IN_N - 1, (K_BIG + 8) * PERIOD_IN_N + 2),
    ],
)
def test_presieved_kernel_matches_plain_loop_and_oracle(lo, hi):
    assert_words_match_plain_loop(lo, hi)
    assert_kernel_matches_oracle(lo, hi)


@pytest.mark.parametrize(
    "lo, hi",
    [
        # several periods and a sub-block seam (a sub-block holds 2 * SUB_BLOCK integers)
        (10**8 - 3 * SUB_BLOCK - 5, 10**8 + 1),
        # just below HARD_LIMIT + 1: within one sub-block, then across two seams
        (HARD_LIMIT + 1 - SUB_BLOCK - 1000, HARD_LIMIT + 1),
        (HARD_LIMIT + 1 - 5 * SUB_BLOCK - 1000, HARD_LIMIT + 1),
    ],
)
def test_blocked_kernel_matches_plain_loop_across_sub_blocks(lo, hi):
    assert_words_match_plain_loop(lo, hi)
    # odd counts against trial division around both ends and each sub-block seam
    counts = omega_segment(lo, hi, base_primes(math.isqrt(hi - 1)))
    first = lo | 1
    for seam in (0, *range(SUB_BLOCK, len(counts), SUB_BLOCK), len(counts)):
        a, b = max(0, seam - 64), min(len(counts), seam + 64)
        expected = bulk_omega_oracle(first + 2 * a, first + 2 * b)[::2]
        assert np.array_equal(counts[a:b].astype(np.int64), expected)


@pytest.mark.parametrize(
    "lo, hi",
    [
        # the HARD_LIMIT edge, from an even and from an odd lo
        (HARD_LIMIT - 2**12, HARD_LIMIT + 1),
        (HARD_LIMIT - 2**12 + 1, HARD_LIMIT + 1),
        (HARD_LIMIT - 1, HARD_LIMIT + 1),
        # across PATTERN_MIN_HI, from an odd and from an even lo
        (PATTERN_MIN_HI - 3, PATTERN_MIN_HI + 1),
        (PATTERN_MIN_HI - 4, PATTERN_MIN_HI + 2),
        (1, PATTERN_MIN_HI + 1),
        # one integer, even: the kernel has no odd n, sieve_segment one even n
        (2, 3),
        (PATTERN_MIN_HI - 1, PATTERN_MIN_HI),
        (2**20, 2**20 + 1),
        (HARD_LIMIT, HARD_LIMIT + 1),
    ],
)
def test_odd_words_match_plain_loop_on_every_odd_n(lo, hi):
    assert_words_match_plain_loop(lo, hi)
    assert_kernel_matches_oracle(lo, hi)
    assert len(omega_segment(lo, hi, base_primes(math.isqrt(hi - 1)))) == hi // 2 - lo // 2


@settings(max_examples=6, deadline=None)
@given(st.integers(1, HARD_LIMIT), st.integers(SUB_BLOCK, 1 << 21))
def test_kernel_words_match_plain_loop_on_random_long_spans(lo, length):
    assert_words_match_plain_loop(lo, min(lo + length, HARD_LIMIT + 1))


def per_k_fsum(counts, recips, bins):
    """[math.fsum of the recips whose count is k, for k < bins]: correctly rounded."""
    order = np.argsort(counts, kind="stable")
    edges = np.searchsorted(counts[order], np.arange(bins + 1))
    return [math.fsum(recips[order[edges[k] : edges[k + 1]]]) for k in range(bins)]


# A block sums at most REDUCE_BLOCK positive 1/n in order, within
# (REDUCE_BLOCK - 1) * 2**-53 relative of its exact sum, and a record adds
# at most MAX_SEGMENT_LENGTH / (2 * REDUCE_BLOCK) = 128 positive block sums
# in order.  2 * REDUCE_BLOCK * 2**-53 bounds both together.
RECORD_INV_BOUND = 2 * REDUCE_BLOCK * 2.0**-53


def assert_chunk_matches_bincount(lo, hi, cuts):
    """_profile_chunk at every cut and then the span end, over the odd n from
    lo: the ends ascend with hi last; pik equals one bincount; inv equals the
    reduction of a span that ends there, bit for bit, and at hi the per-k
    fsum of 1/n within RECORD_INV_BOUND."""
    counts = omega_segment(lo, hi, base_primes(math.isqrt(hi - 1)))
    parts = _profile_chunk((lo, hi), tuple(cuts))
    assert [end for end, _, _ in parts] == [n + 1 for n in sorted(cuts)] + [hi]
    for end, got_pik, got_inv in parts:
        odd = end // 2 - lo // 2  # the odd n in [lo, end)
        assert np.array_equal(got_pik, np.bincount(counts[:odd], minlength=MAX_OMEGA + 1))
        ((_, alone_inv),) = _reduce(counts[:odd], lo, [end])
        assert got_inv.tobytes() == alone_inv.tobytes()
    recips = 1.0 / np.arange(lo | 1, hi, 2, dtype=np.float64)
    for got, ref in zip(parts[-1][2], per_k_fsum(counts, recips, MAX_OMEGA + 1)):
        assert abs(got - ref) <= RECORD_INV_BOUND * ref


@pytest.mark.parametrize(
    "lo, hi",
    [
        (1, 3 * REDUCE_BLOCK // 2),
        (1, 3 * REDUCE_BLOCK),
        (10**7 + 3, 10**7 + 3 + 2 * REDUCE_BLOCK + 777),
        (10**7 + 4, 10**7 + 4 + 2 * REDUCE_BLOCK + 777),
    ],
)
def test_profile_chunk_matches_whole_segment_bincount(lo, hi):
    assert_chunk_matches_bincount(lo, hi, ())
    # Cuts on both sides of a block edge, whose first odd n is edge, and at
    # the last cut a span allows.
    edge = (lo | 1) + 2 * REDUCE_BLOCK
    cuts = [n for n in (hi - 2, edge - 1, lo, edge, edge - 2) if n < hi - 1]
    assert_chunk_matches_bincount(lo, hi, cuts)


@settings(deadline=None)
@given(st.integers(1, HARD_LIMIT), st.integers(1, 5 * REDUCE_BLOCK + 777), st.data())
def test_profile_chunk_matches_bincount_on_random_spans(lo, length, data):
    hi = min(lo + length, HARD_LIMIT + 1)
    cuts = data.draw(st.sets(st.integers(lo, hi - 2), max_size=6)) if hi - 2 >= lo else set()
    assert_chunk_matches_bincount(lo, hi, cuts)


# N = 1 .. 300, 2**j - 1, 2**j and 2**j + 1, the ends of the first default
# spans and one past them, and for a >= 1, (3 * 2**22) >> a inside a span.
COUNTED_CHECKPOINTS = sorted({
    *range(1, 301),
    *(2**j + d for j in range(1, 24) for d in (-1, 0, 1)),
    2**22, 2**22 + 1, 3 * 2**22, 3 * 2**22 + 1,
    1009**2, 2039**2, 1009 * 1013, 2003 * 2011,  # squares and products of primes
    *np.random.default_rng(23).integers(1, 10**7, 12).tolist(),
})


def test_counted_pi_k_match_the_sieve_pass(profile_1e6, profile_1e8):
    """Every pi_k of pi_k_profile against the sieve pass, which shares no step with it."""
    for prof in [*omega_profiles(COUNTED_CHECKPOINTS), profile_1e6, profile_1e8]:
        counted = pi_k_profile(prof.N)
        assert counted.pik.dtype == prof.pik.dtype
        assert counted.pik.tolist() == prof.pik.tolist(), prof.N
        assert counted.inv_weights is None


@pytest.mark.parametrize("chunk", [1, 7])
def test_counted_pi_k_do_not_depend_on_the_chunk(monkeypatch, chunk):
    checkpoints = [*range(1, 70), 255, 256, 257, 10**4, 123_457]
    reference = [pi_k_profile(n).pik.tolist() for n in checkpoints]
    monkeypatch.setattr(sieve, "TUPLE_CHUNK", chunk)
    assert [pi_k_profile(n).pik.tolist() for n in checkpoints] == reference


def _prime_count_cases():
    """N = 1..3000, c**3 - 1, c**3, c**3 + 1 and p**3 - 1, p**3 around the
    batch's split at icbrt(N), and 10^k for k <= 10.  Every c <= 200 runs; of
    c <= 1000 and of the primes p <= 2000, the largest and a seeded draw,
    since the one-prime oracle takes up to 0.14 s per N."""
    rng = np.random.default_rng(30)
    cubes = [*range(1, 201), 999, 1000, *rng.integers(201, 999, 6).tolist()]
    primes = base_primes(2000)
    prime_cubes = [*primes[:46].tolist(), 1999, *rng.choice(primes[46:-1], 4).tolist()]
    return sorted({
        *range(1, 3001),
        *(c**3 + d for c in cubes for d in (-1, 0, 1)),
        *(p**3 + d for p in prime_cubes for d in (-1, 0)),
        *(10**k for k in range(11)),
    })


def test_batched_prime_counts_match_one_prime_at_a_time():
    for N in _prime_count_cases():
        small, large, primes = sieve.prime_counts_at_quotients(N)
        expected_small, expected_large = prime_counts_one_prime_at_a_time(N)
        assert small.tolist() == expected_small.tolist(), N
        assert large.tolist() == expected_large.tolist(), N
        assert primes is base_primes(math.isqrt(N))


def test_integer_cube_root():
    assert [sieve._icbrt(n) for n in range(28)] == [0] * 1 + [1] * 7 + [2] * 19 + [3]
    for c in (*range(2, 3000), 2154, 10**4, 2**21, 10**6):
        assert [sieve._icbrt(c**3 + d) for d in (-1, 0, 1)] == [c - 1, c, c], c


@pytest.mark.parametrize("chunk", [1, 7])
def test_prime_counts_do_not_depend_on_the_pair_chunk(monkeypatch, chunk):
    checkpoints = [*range(1, 70), 1000, 1001, 10**4, 123_457, 10**7]
    reference = [[a.tolist() for a in sieve.prime_counts_at_quotients(n)] for n in checkpoints]
    monkeypatch.setattr(sieve, "PAIR_CHUNK", chunk)
    assert [[a.tolist() for a in sieve.prime_counts_at_quotients(n)]
            for n in checkpoints] == reference


def test_prime_count_table_scatters_in_chunks():
    """At 10^10 the batch covers 5.2e5 pairs; one scatter of them all held 27 MB."""
    primes = base_primes(10**5)
    tracemalloc.start()
    try:
        small, large, _ = sieve.prime_counts_at_quotients(10**10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert int(large[1]) == 455_052_511  # pi(10^10)
    assert peak <= small.nbytes + large.nbytes + primes.nbytes + 2**21


def test_counted_pi_k_against_trial_division(omega_to_1e6):
    for N in (1000, 10**6):
        assert pi_k_profile(N).pik.tolist() == np.bincount(omega_to_1e6[:N]).tolist(), N


def test_pi_k_frontier_by_counting():
    """pi_1 and pi_2 at 10^9 and 10^10 (published), L(10^k) = sum_j (-1)^j pi_j(10^k)
    for k = 7..10 (Borwein, Ferguson and Mossinghoff, Math. Comp. 77 (2008)),
    and sum_k k pi_k(10^10) = sum_{n <= 10^10} Omega(n)."""
    profiles = {k: pi_k_profile(10**k) for k in (7, 8, 9, 10)}
    assert profiles[9].pik[1:3].tolist() == [50_847_534, 160_788_536]
    assert profiles[10].pik[1:3].tolist() == [455_052_511, 1_493_776_443]
    liouville_sums = {k: int(prof.pik[0::2].sum() - prof.pik[1::2].sum())
                      for k, prof in profiles.items()}
    assert liouville_sums == {7: -842, 8: -3884, 9: -25_216, 10: -116_026}
    pik = profiles[10].pik
    assert int(np.arange(len(pik)) @ pik) == 41_518_796_555


def test_counted_profile_checks_the_partition_identity(monkeypatch):
    real_table = sieve.prime_counts_at_quotients

    def one_prime_short(N):
        small, large, primes = real_table(N)
        large[1] -= 1  # pi(N)
        return small, large, primes

    monkeypatch.setattr(sieve, "prime_counts_at_quotients", one_prime_short)
    with pytest.raises(InvalidRangeError, match=r"^pi_k counts do not partition \[1, 1000\]$"):
        pi_k_profile(1000)


def test_counted_profile_checks_its_limit():
    for bad in (0, -7):
        with pytest.raises(InvalidRangeError):
            pi_k_profile(bad)
    with pytest.raises(RangeTooLargeError, match="exceeds the configured limit"):
        pi_k_profile(HARD_LIMIT + 1)


def test_a_counted_profile_has_no_harmonic_mass():
    with pytest.raises(OmegalabError, match="no harmonic mass"):
        pi_k_profile(1000).harmonic_sum()


@pytest.mark.parametrize("N", [10**6, 10**7])
def test_inv_within_a_measured_bound_of_per_k_fsum(N):
    """Each inv_k against math.fsum of its 1/n, which is correctly rounded.

    The fold adds 2**-a inv_{k-a}^odd(N >> a) in ascending a, each a sum
    of block sums.  Measured worst relative gap over k: 3.1e-15 at 10^6
    and 3.2e-15 at 10^7, against 3.2e-14 and 8.2e-14 for one sequential
    sum over every n in index order.
    """
    prof = omega_profile(N)
    omega = np.concatenate([sieve_segment(lo, hi) for lo, hi in segment_spans(N)])
    recips = 1.0 / np.arange(1, N + 1, dtype=np.float64)
    for k, (got, ref) in enumerate(zip(prof.inv_weights, per_k_fsum(omega, recips, prof.k_max + 1))):
        assert abs(got - ref) <= 1e-14 * ref, k


def test_pool_starts_at_most_one_process_per_cpu_and_span(serial_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for workers, n_max, size in ((100_000, 10**4, 4), (3, 10**4, 3), (100_000, 2500, 3)):
        serial_pool.clear()
        chunks = map_segments(segment_spans(n_max, 1000), _profile_chunk, workers)
        assert serial_pool == [size]
        serial = [_profile_chunk(span) for span in segment_spans(n_max, 1000)]
        assert [[(end, inv.tobytes()) for end, _, inv in c] for c in chunks] == [
            [(end, inv.tobytes()) for end, _, inv in c] for c in serial]
    serial_pool.clear()
    map_segments(segment_spans(1000, 1000), _profile_chunk, 100_000)  # one span: no pool
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one process
    map_segments(segment_spans(10**4, 1000), _profile_chunk, 100_000)
    assert serial_pool == []


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10**6), st.integers(2, 10**6))
def test_omega_completely_additive(m, n):
    assert omega_oracle(m * n) == omega_oracle(m) + omega_oracle(n)


def test_liouville_sign():
    assert liouville(0) == 1
    assert liouville(1) == -1
    assert liouville(2) == 1


def test_profile_partition_identity(profile_1e4, profile_1e6):
    assert int(profile_1e4.pik.sum()) == 10**4
    assert int(profile_1e6.pik.sum()) == 10**6
    prof_1e3 = omega_profile(10**3)
    assert int(prof_1e3.pik.sum()) == 10**3


def test_profile_inv_weights_sum_to_harmonic(profile_1e4):
    harmonic = math.fsum(1.0 / n for n in range(1, 10**4 + 1))
    assert math.isclose(profile_1e4.harmonic_sum(), harmonic, rel_tol=1e-12)


def test_histogram_small_oracle():
    hist = dict(enumerate(omega_profile(100).pik.tolist()))
    brute = {}
    for n in range(1, 101):
        brute[omega_oracle(n)] = brute.get(omega_oracle(n), 0) + 1
    assert hist == brute


def test_warm_tail_sieves_only_the_spans_that_hold_a_cut(tmp_path, monkeypatch):
    """Cuts spread over [2, N]: per k, the last n with k - log log n above
    C sqrt(log log N), and the one before the first n with it below -C sqrt(...)."""
    N, C, length = 10**5 + 3, 1.0, 12345
    ns = np.arange(3, N + 1)
    loglog = np.log(np.log(ns.astype(np.float64)))
    band = C * math.sqrt(math.log(math.log(N)))
    cuts = {2, N}
    for k in range(int(math.log2(N)) + 1):
        dev = np.float64(k) - loglog
        above, below = ns[dev > band], ns[-dev > band]
        cuts.add(int(above.max()) if len(above) else 2)
        cuts.add(int(below.min()) - 1 if len(below) else N)
    cuts = sorted(cuts)
    spans = segment_spans(N, length)

    # The store then holds every span, and the odd prefixes at N >> a; the
    # fold needs the odd prefixes at c >> a for every cut c.
    stored = {hi - 1 for _, hi in spans} | {N >> a for a in range(N.bit_length())}
    needed = {c >> a for c in cuts for a in range(c.bit_length())} - stored
    holding = [(lo, hi) for lo, hi in spans if any(lo <= n < hi - 1 for n in needed)]
    assert 0 < len(holding) < len(spans)

    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LENGTH", length)
    cold = omega_profiles(cuts)
    monkeypatch.setenv("OMEGALAB_CACHE", str(tmp_path))
    omega_profile(N)
    sieved = []
    real_kernel = kernels.omega_segment

    def counting_kernel(lo, hi, primes):
        sieved.append((lo, hi))
        return real_kernel(lo, hi, primes)

    monkeypatch.setattr(kernels, "omega_segment", counting_kernel)
    for warm, ref in zip(omega_profiles(cuts), cold, strict=True):
        assert warm.pik.tobytes() == ref.pik.tobytes()
        assert warm.inv_weights.tobytes() == ref.inv_weights.tobytes()
    assert sieved == holding


def test_only_the_profile_path_sieves():
    """omega_segment, sieve_segment and map_segments are named only where the
    profile path, the sieve table and the two-sets Omega lookup need them."""
    names = {"omega_segment", "sieve_segment", "map_segments"}
    found = set()
    for path in sorted(Path(omegalab.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name in names:
                    found.add((owner, name))
    assert found == {
        ("sieve._profile_chunk", "omega_segment"),
        ("sieve._omega_range", "omega_segment"),
        ("cli._cmd_sieve", "sieve_segment"),
        ("twosets._omega_of", "sieve_segment"),
        ("sieve.omega_profiles", "map_segments"),
    }


def test_no_module_imports_a_name_it_does_not_use():
    """The unused-import rule of a linter, for src/omegalab (__init__ only re-exports)."""
    unused = []
    for path in sorted(Path(omegalab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_consumer_takes_a_profile():
    """No function in src/omegalab defaults a profile parameter to None,
    and no helper resolves one from N."""
    forks = []
    for path in sorted(Path(omegalab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name == "_resolve_profile":
                forks.append(f"{path.stem}.{node.name}")
            params = node.args
            positional = params.posonlyargs + params.args
            defaults = [None] * (len(positional) - len(params.defaults)) + params.defaults
            pairs = [*zip(positional, defaults), *zip(params.kwonlyargs, params.kw_defaults)]
            for arg, default in pairs:
                if (arg.arg == "profile" and isinstance(default, ast.Constant)
                        and default.value is None):
                    forks.append(f"{path.stem}.{node.name}({arg.arg}=None)")
    assert forks == []


def test_segment_validation(monkeypatch):
    assert len(sieve_segment(1, DEFAULT_SEGMENT_LENGTH + 1)) == DEFAULT_SEGMENT_LENGTH
    monkeypatch.setattr(kernels, "omega_segment", lambda *a: pytest.fail("sieved"))
    for lo, hi in ((10, 10), (0, 5), (-10**12, 3)):  # -10**12: a bad range, not a long one
        with pytest.raises(InvalidRangeError):
            sieve_segment(lo, hi)
    with pytest.raises(RangeTooLargeError):
        sieve_segment(1, 10**10 + 2)
    for lo, hi in ((1, DEFAULT_SEGMENT_LENGTH + 2), (1, 10**10), (10**9, 10**9 + 10**8)):
        with pytest.raises(RangeTooLargeError, match=f"more than {DEFAULT_SEGMENT_LENGTH}"):
            sieve_segment(lo, hi)


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def no_kernel(*args):
    raise AssertionError("a stored span was sieved again")


def profile_file_bytes(lo, hi, pik, inv):
    """A store file of [lo, hi), encoded here from the format, not by sieve's writer."""
    return with_crc(b"OMP2" + struct.pack("<QQ", lo, hi)
                    + pik.astype("<i8").tobytes() + inv.astype("<f8").tobytes())


def test_segment_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("OMEGALAB_CACHE", str(tmp_path))
    ((_, pik, inv),) = _profile_chunk((1000, 2000))
    record = np.array([(pik, inv)], dtype=RECORD_DTYPE)
    _cache_write(1000, 2000, record)
    (path,) = tmp_path.iterdir()
    assert path.name == "span_1000_2000.omp"
    assert path.read_bytes() == profile_file_bytes(1000, 2000, pik, inv)
    assert path.stat().st_size == PROFILE_FILE_SIZE < 1100
    assert _cache_read(1000, 2000).tobytes() == record.tobytes()


def test_segment_cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("OMEGALAB_CACHE", str(tmp_path))
    ((_, pik, inv),) = _profile_chunk((5000, 6000))
    files = os.listdir(tmp_path)
    assert len(files) == 1
    monkeypatch.setattr(kernels, "omega_segment", no_kernel)
    ((_, again_pik, again_inv),) = _profile_chunk((5000, 6000))
    assert np.array_equal(pik, again_pik)
    assert inv.tobytes() == again_inv.tobytes()


@pytest.mark.parametrize(
    "damage",
    [
        lambda data: data[:-1],  # truncated
        lambda data: data[:10],  # truncated header
        lambda data: b"XXXX" + data[4:],  # bad magic
        lambda data: data[:4] + struct.pack("<QQ", 4000, 5000) + data[20:],  # other range
        # other range with a valid checksum
        lambda data: with_crc(data[:4] + struct.pack("<QQ", 4000, 5000) + data[20:-4]),
        lambda data: b"",  # empty
        lambda data: data + b"\0",  # one byte longer than PROFILE_FILE_SIZE
    ],
)
def test_segment_cache_damaged_file_is_a_miss(tmp_path, monkeypatch, damage):
    monkeypatch.setenv("OMEGALAB_CACHE", str(tmp_path))
    ((_, fresh_pik, fresh_inv),) = _profile_chunk((5000, 6000))
    (path,) = tmp_path.iterdir()
    whole = path.read_bytes()
    path.write_bytes(damage(whole))
    assert _cache_read(5000, 6000) is None
    ((_, pik, inv),) = _profile_chunk((5000, 6000))
    assert np.array_equal(pik, fresh_pik)
    assert inv.tobytes() == fresh_inv.tobytes()
    assert path.read_bytes() == whole  # rewritten whole
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temporary left


def test_store_file_of_the_all_n_format_is_a_miss(tmp_path, monkeypatch):
    """An OMP1 file held the sums over every n of its span: a miss, rewritten."""
    counts = sieve_segment(5000, 6000)
    all_n = np.array([(np.bincount(counts, minlength=MAX_OMEGA + 1),
                       np.bincount(counts, 1.0 / np.arange(5000, 6000), minlength=MAX_OMEGA + 1))],
                     dtype=RECORD_DTYPE)
    path = tmp_path / "span_5000_6000.omp"
    path.write_bytes(with_crc(b"OMP1" + struct.pack("<QQ", 5000, 6000) + all_n.tobytes()))
    monkeypatch.setenv("OMEGALAB_CACHE", str(tmp_path))
    assert _cache_read(5000, 6000) is None
    ((_, pik, inv),) = _profile_chunk((5000, 6000))
    assert pik.sum() == 500 < all_n["pik"].sum()  # the odd n only
    assert path.read_bytes() == profile_file_bytes(5000, 6000, pik, inv)
    assert path.read_bytes()[:4] == CACHE_MAGIC == b"OMP2"


def test_flipped_bit_in_inv_is_a_miss(tmp_path, monkeypatch):
    monkeypatch.setenv("OMEGALAB_CACHE", str(tmp_path))
    _profile_chunk((5000, 6000))
    (path,) = tmp_path.iterdir()
    whole = path.read_bytes()
    data = bytearray(whole)
    data[len(CACHE_MAGIC) + 16 + RECORD_DTYPE.fields["inv"][1] + 8 * 3] ^= 1  # inv[3]
    path.write_bytes(bytes(data))
    assert _cache_read(5000, 6000) is None
    _profile_chunk((5000, 6000))
    assert path.read_bytes() == whole


# A valid store file of [5000, 6000) with an arbitrary record, and ways to damage it.
STORED_PIK = np.arange(MAX_OMEGA + 1, dtype=np.int64) * 7
STORED_INV = 1.0 / np.arange(1, MAX_OMEGA + 2)
STORED_FILE = profile_file_bytes(5000, 6000, STORED_PIK, STORED_INV)


@st.composite
def store_file_bytes(draw):
    """Random bytes, or STORED_FILE truncated, extended, bit-flipped or naming
    another range, with its CRC kept or recomputed."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=2 * PROFILE_FILE_SIZE))
    data = bytearray(STORED_FILE)
    if draw(st.booleans()):
        lo, hi = draw(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)))
        data[4:20] = struct.pack("<QQ", lo, hi)
    for i in draw(st.lists(st.integers(0, 8 * PROFILE_FILE_SIZE - 1), max_size=3)):
        data[i // 8] ^= 1 << i % 8
    size = draw(st.sampled_from(["kept", "extended", "truncated"]))
    if size == "extended":
        data += draw(st.binary(min_size=1, max_size=PROFILE_FILE_SIZE))
    elif size == "truncated":
        del data[draw(st.integers(0, PROFILE_FILE_SIZE - 1)) :]
    if draw(st.booleans()) and len(data) >= 4:
        data = bytearray(with_crc(bytes(data[:-4])))
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(st.one_of(store_file_bytes(), st.just(STORED_FILE)))
def test_any_bytes_in_the_store_read_as_a_miss_or_the_stored_record(data):
    """_cache_read never raises: it returns None, or the record of a whole,
    valid file of its own range."""
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        patch.setenv("OMEGALAB_CACHE", directory)
        Path(sieve._cache_path(5000, 6000)).write_bytes(data)
        got = _cache_read(5000, 6000)
    valid = (len(data) == PROFILE_FILE_SIZE and data[:20] == STORED_FILE[:20]
             and data == with_crc(data[:-4]))
    assert (got is not None) == valid
    if got is not None:
        assert profile_file_bytes(5000, 6000, got["pik"][0], got["inv"][0]) == data


def odd_cuts(checkpoints, span_length, n_max):
    """The N >> a of the checkpoints that are not span ends: one store record each."""
    ends = set(range(span_length, n_max, span_length)) | {n_max}
    return {n >> a for n in checkpoints for a in range(n.bit_length())} - ends


def test_warm_store_profiles_need_no_kernel(tmp_path, monkeypatch):
    checkpoints = [5000, 20000, 60000]  # span ends at segment length 5000
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LENGTH", 5000)
    reference = omega_profiles(checkpoints)
    monkeypatch.setenv("OMEGALAB_CACHE", str(tmp_path))
    omega_profiles(checkpoints)
    assert len(os.listdir(tmp_path)) == 12 + len(odd_cuts(checkpoints, 5000, 60000))
    monkeypatch.setattr(kernels, "omega_segment", no_kernel)  # forked workers inherit it
    for workers in (1, 2):
        warm = omega_profiles(checkpoints, workers)
        for prof, ref in zip(warm, reference):
            assert prof.pik.tobytes() == ref.pik.tobytes()
            assert prof.inv_weights.tobytes() == ref.inv_weights.tobytes()


def test_checkpoint_inside_a_span_on_a_warm_store(tmp_path, monkeypatch):
    monkeypatch.setenv("OMEGALAB_CACHE", str(tmp_path))
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LENGTH", 5000)
    omega_profiles([60000])
    checkpoints = [12345, 7, 60000, 59999]
    warm = omega_profiles(checkpoints)
    assert len(os.listdir(tmp_path)) == 12 + len(odd_cuts(checkpoints, 5000, 60000))
    with monkeypatch.context() as patch:  # every span and cut record is stored now
        patch.setattr(kernels, "omega_segment", no_kernel)
        again = omega_profiles(checkpoints)
    for prof, ref in zip(again, warm):
        assert prof.inv_weights.tobytes() == ref.inv_weights.tobytes()
    monkeypatch.delenv("OMEGALAB_CACHE")
    for prof in warm:
        ref = omega_profile(prof.N)
        assert prof.pik.tobytes() == ref.pik.tobytes()
        assert prof.inv_weights.tobytes() == ref.inv_weights.tobytes()


@st.composite
def merge_checkpoints(draw):
    """(segment length, checkpoints <= 10^5): random N, span ends, the last cut
    a span allows (hi - 2), and N that share some N >> a."""
    length = draw(st.sampled_from([1000, 4097, 12345]))
    span_end = st.integers(1, 10**5 // length).map(lambda j: j * length)
    m = draw(st.integers(1, 3000))  # n >> a == m for every n drawn from shared
    shared = st.integers(1, 5).flatmap(lambda a: st.integers(m << a, ((m + 1) << a) - 1))
    n = st.one_of(st.integers(1, 10**5), span_end, span_end.map(lambda e: e - 1), shared)
    return length, draw(st.lists(n, min_size=1, max_size=6))


@settings(max_examples=60, deadline=None)
@given(merge_checkpoints())
def test_merged_profiles_match_each_profile_alone(case):
    length, checkpoints = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sieve, "DEFAULT_SEGMENT_LENGTH", length)
        profiles = omega_profiles(checkpoints, workers=1)
        for prof, n in zip(profiles, checkpoints, strict=True):
            alone = omega_profile(n)
            assert prof.N == n
            assert prof.pik.tobytes() == alone.pik.tobytes()
            assert prof.inv_weights.tobytes() == alone.inv_weights.tobytes()


def rewrite_span(record, times):
    for _ in range(times):
        _cache_write(5000, 6000, record)


def test_racing_writers_never_show_a_partial_file(tmp_path, monkeypatch):
    ((_, pik, inv),) = _profile_chunk((5000, 6000))
    record = np.array([(pik, inv)], dtype=RECORD_DTYPE)
    monkeypatch.setenv("OMEGALAB_CACHE", str(tmp_path))
    fork = multiprocessing.get_context("fork")
    writers = [fork.Process(target=rewrite_span, args=(record, 400)) for _ in range(2)]
    for writer in writers:
        writer.start()
    reads = []
    while any(writer.is_alive() for writer in writers):
        reads.append(_cache_read(5000, 6000))
    for writer in writers:
        writer.join()
    assert [writer.exitcode for writer in writers] == [0, 0]
    reads.append(_cache_read(5000, 6000))
    assert reads[-1] is not None
    for got in reads:
        assert got is None or got.tobytes() == record.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["span_5000_6000.omp"]


def test_segment_spans_rejects_nonpositive_length():
    assert segment_spans(10) == [(1, 11)]
    assert segment_spans(10, 4) == [(1, 5), (5, 9), (9, 11)]
    for bad in (0, -5):
        with pytest.raises(InvalidRangeError):
            segment_spans(10, bad)


def test_segment_length_over_the_cap_is_range_too_large():
    assert segment_spans(100, MAX_SEGMENT_LENGTH) == [(1, 101)]
    with pytest.raises(RangeTooLargeError, match="segment length"):
        segment_spans(100, MAX_SEGMENT_LENGTH + 1)


def test_segment_count_over_the_cap_raises_before_the_spans_are_built():
    tracemalloc.start()
    try:
        with pytest.raises(RangeTooLargeError) as exc:
            segment_spans(10**10, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value) == (
        f"[1, {10**10}] needs {10**10} segments of length 1, over the cap of "
        f"{MAX_SEGMENTS}; use a longer segment length"
    )
    assert peak < 10**6  # 10^10 span tuples were not built


def test_segment_span_cap_is_exact(monkeypatch):
    assert len(segment_spans(HARD_LIMIT)) == -(-HARD_LIMIT // DEFAULT_SEGMENT_LENGTH) == 2385
    assert len(segment_spans(MAX_SEGMENTS, 1)) == MAX_SEGMENTS
    assert len(segment_spans(10 * MAX_SEGMENTS, 10)) == MAX_SEGMENTS
    for n_max, length in ((MAX_SEGMENTS + 1, 1), (10 * MAX_SEGMENTS + 1, 10), (HARD_LIMIT, 1)):
        with pytest.raises(RangeTooLargeError, match="over the cap"):
            segment_spans(n_max, length)
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LENGTH", length)
        with pytest.raises(RangeTooLargeError, match="over the cap"):
            omega_profile(n_max)


def test_profile_worker_counts_agree_at_1e6(profile_1e6):
    for workers in (1, 3):
        prof = omega_profile(10**6, workers=workers)
        assert np.array_equal(prof.pik, profile_1e6.pik)
        assert prof.inv_weights.tobytes() == profile_1e6.inv_weights.tobytes()


def test_profile_checks_partition_identity(monkeypatch):
    def lossy_chunk(span, cuts=()):
        parts = _profile_chunk(span, cuts)
        _, pik, _ = parts[-1]  # the span's own record
        pik[1] -= 1
        return parts

    monkeypatch.setattr(sieve, "_profile_chunk", lossy_chunk)
    with pytest.raises(InvalidRangeError, match=r"partition the odd n <= 1000$"):
        omega_profile(1000)


def test_profile_checks_the_fold_covers_one_to_n(monkeypatch):
    """Odd prefixes that each partition the odd n but put an n above
    floor(log2 N) fail the partition of [1, N]."""
    real_chunk = _profile_chunk

    def high_chunk(span, cuts=()):
        parts = real_chunk(span, cuts)
        for _, counts, _ in parts:
            counts[1] -= 1
            counts[MAX_OMEGA - 20] += 1
        return parts

    monkeypatch.setattr(sieve, "_profile_chunk", high_chunk)
    with pytest.raises(InvalidRangeError, match=r"partition \[1, 1000\]$"):
        omega_profile(1000)


# Span boundaries at the default length: 2**22 ends the first span, and
# 2**22 + 1 is a partial span of length 1.  The first REDUCE_BLOCK odd n
# end at 131071.
PROFILE_CHECKPOINTS = [
    10**6, 2**22 + 1, 1, 65536, 10, 2**22, 65535, 10**5, 2, 3 * 10**6 + 7, 65537, 10**5,
    131071, 131072, 131073,
]


@pytest.mark.parametrize("segment_length", [None, 12345, 1 << 16])
def test_omega_profiles_match_standalone_profiles(segment_length, monkeypatch):
    if segment_length is not None:
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LENGTH", segment_length)
    standalone = {n: omega_profile(n) for n in set(PROFILE_CHECKPOINTS)}
    for workers in (1, 2):
        profiles = omega_profiles(PROFILE_CHECKPOINTS, workers)
        assert [p.N for p in profiles] == PROFILE_CHECKPOINTS
        for prof in profiles:
            ref = standalone[prof.N]
            assert prof.pik.tobytes() == ref.pik.tobytes()
            assert prof.inv_weights.tobytes() == ref.inv_weights.tobytes()


def test_omega_profiles_rejects_bad_checkpoints():
    for bad in ([], [0], [10, 0, 5], [-3]):
        with pytest.raises(InvalidRangeError):
            omega_profiles(bad)


@pytest.mark.parametrize("workers", [0, -3])
def test_nonpositive_workers_are_rejected(workers):
    with pytest.raises(InvalidRangeError):
        omega_profiles([1000], workers)


@pytest.mark.parametrize("sub", ["", "sub"])
def test_unwritable_cache_is_cache_write_error(tmp_path, monkeypatch, sub):
    blocker = tmp_path / "not_a_dir"
    blocker.write_bytes(b"")
    monkeypatch.setenv("OMEGALAB_CACHE", str(blocker / sub))
    with pytest.raises(OmegalabError, match="^cannot write the profile cache "):
        omega_profile(99)


def test_failed_cache_write_leaves_no_temporary(tmp_path, monkeypatch):
    def failing_replace(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setenv("OMEGALAB_CACHE", str(tmp_path))
    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OmegalabError, match="^cannot write the profile cache .*Permission denied"):
        omega_profile(99)
    assert list(tmp_path.iterdir()) == []
