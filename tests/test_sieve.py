import ast
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    bulk_omega_oracle,
    eratosthenes,
    harmonic_mass_bound,
    harmonic_masses_by_fractions,
    harmonic_table_by_temporaries,
    omega_oracle,
    prime_counts_one_prime_at_a_time,
)

import omegalab
from omegalab import (
    AverageScheme,
    average_along_omega,
    kernels,
    liouville,
    omega_profile,
    pi_k_profile,
    rotation_two_points_liouville,
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
    _HARMONIC_CUT,
    DEFAULT_SEGMENT_LENGTH,
    HARD_LIMIT,
    MAX_OMEGA,
    MAX_SEGMENT_LENGTH,
    MAX_SEGMENTS,
    _harmonic_minus_one,
    _harmonic_table,
    base_primes,
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
    # both tables of the count ask for the primes up to 10**4: one sieve
    assert base_primes.cache_info().misses == 1
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


# N = 1 .. 300, 2**j - 1, 2**j and 2**j + 1, the ends of the first default
# spans and one past them, and for a >= 1, (3 * 2**22) >> a inside a span.
COUNTED_CHECKPOINTS = sorted({
    *range(1, 301),
    *(2**j + d for j in range(1, 24) for d in (-1, 0, 1)),
    2**22, 2**22 + 1, 3 * 2**22, 3 * 2**22 + 1,
    1009**2, 2039**2, 1009 * 1013, 2003 * 2011,  # squares and products of primes
    *np.random.default_rng(23).integers(1, 10**7, 12).tolist(),
})


def test_counted_pi_k_match_the_sieve_pass():
    """Every pi_k of pi_k_profile and omega_profile against bincounts of
    sieve_segment over the spans of [1, max N], which share no step with them."""
    hist = np.zeros(MAX_OMEGA + 1, dtype=np.int64)
    done = 0  # the n <= done are in hist
    for lo, hi in segment_spans(max(COUNTED_CHECKPOINTS)):
        counts = sieve_segment(lo, hi)
        for N in [*(n for n in COUNTED_CHECKPOINTS if lo <= n < hi), hi - 1]:
            hist += np.bincount(counts[done + 1 - lo : N + 1 - lo], minlength=MAX_OMEGA + 1)
            done = N
            if N in COUNTED_CHECKPOINTS:
                counted, harmonic = pi_k_profile(N), omega_profile(N)
                assert counted.pik.dtype == harmonic.pik.dtype == np.int64
                assert counted.pik.tolist() == hist[: counted.k_max + 1].tolist(), N
                assert harmonic.pik.tobytes() == counted.pik.tobytes(), N
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
    for count in (pi_k_profile, omega_profile):
        for bad in (0, -7):
            with pytest.raises(InvalidRangeError):
                count(bad)
        with pytest.raises(RangeTooLargeError, match="exceeds the configured limit"):
            count(HARD_LIMIT + 1)


def test_a_counted_profile_has_no_harmonic_mass():
    with pytest.raises(OmegalabError, match="no harmonic mass"):
        pi_k_profile(1000).harmonic_sum()


def test_harmonic_table_against_exact_sums():
    """H(v) - 1 within 2 u ln v of the exact sum at every v <= _HARMONIC_CUT
    (fixed point with 2**-200 units), and Euler-Maclaurin's within 6 u ln v
    of a 40-digit evaluation of the same series, taken to 1/(120 v**4), above
    the cut: omega_profile's bound starts from these."""
    u, scale = 2.0**-53, 2**200
    table = _harmonic_minus_one(np.arange(_HARMONIC_CUT + 1)).tolist()
    exact = 0
    for v in range(2, _HARMONIC_CUT + 1):
        exact += scale // v  # short of scale * (H(v) - 1) by less than v
        assert abs(int(table[v] * scale) - exact) * 2.0**-200 <= 2 * u * math.log(v), v
    rng = np.random.default_rng(36)
    above = [_HARMONIC_CUT + d for d in range(1, 200)] + rng.integers(2**16, HARD_LIMIT, 200).tolist()
    gamma = Decimal("0.5772156649015328606065120900824024310422")
    with localcontext() as ctx:
        ctx.prec = 40
        for v, got in zip(above, _harmonic_minus_one(np.array(above)).tolist()):
            x = Decimal(v)
            want = x.ln() + gamma - 1 + 1 / (2 * x) - 1 / (12 * x**2) + 1 / (120 * x**4)
            assert abs(Decimal(got) - want) <= Decimal(6 * u * math.log(v)), v


def test_harmonic_table_is_built_in_place_bit_for_bit():
    """The in-place build gives the bits of the whole-array TwoSum, within
    three arrays of the table's size (tracemalloc)."""
    _harmonic_table.cache_clear()
    tracemalloc.start()
    try:
        table = _harmonic_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = harmonic_table_by_temporaries(_HARMONIC_CUT)
    assert np.array_equal(table.view(np.int64), want.view(np.int64))
    assert not table.flags.writeable
    assert peak < 3.5 * table.nbytes


@pytest.mark.parametrize("N", [10**6, 10**7])
def test_inv_within_a_measured_bound_of_per_k_fsum(N):
    """Each inv_k against math.fsum of its 1/n, which is correctly rounded.

    Measured worst relative gap over k: 2.6e-16 at 10^6 and 4.3e-16 at
    10^7, against 3.1e-15 and 3.2e-15 for the sieve pass this count replaced.
    """
    prof = omega_profile(N)
    omega = np.concatenate([sieve_segment(lo, hi) for lo, hi in segment_spans(N)])
    recips = 1.0 / np.arange(1, N + 1, dtype=np.float64)
    for k, (got, ref) in enumerate(zip(prof.inv_weights, per_k_fsum(omega, recips, prof.k_max + 1))):
        assert abs(got - ref) <= 1e-14 * ref, k


def test_reciprocal_table_matches_one_prime_at_a_time():
    """The batched primes of the prime reciprocal sums give the floats of one
    prime at a time, bit for bit, as _quotient_sums proves."""
    for N in [*range(1, 1001), *(n for n in _prime_count_cases() if 1000 < n < 10**10)]:
        small, large, _ = sieve._quotient_sums(N, _harmonic_minus_one)
        expected_small, expected_large = prime_counts_one_prime_at_a_time(N, reciprocal=True)
        assert small.tobytes() == expected_small.tobytes(), N
        assert large.tobytes() == expected_large.tobytes(), N


def assert_within_the_bound(prof, exact):
    """Each inv_k within omega_profile's bound of exact[k], and the logarithmic
    Liouville average within the bound its docstring derives from them."""
    bound = harmonic_mass_bound(prof.N, prof.inv_weights)
    gaps = [abs(Fraction(got) - Fraction(want))
            for got, want in zip(prof.inv_weights.tolist(), exact, strict=True)]
    assert all(gap <= b for gap, b in zip(gaps, bound.tolist())), prof.N
    u, B, H = 2.0**-53, math.fsum(bound), prof.harmonic_sum()
    log = average_along_omega(rotation_two_points_liouville(), prof, AverageScheme.LOGARITHMIC)
    signed = sum(Fraction(s) * (-1) ** k for k, s in enumerate(exact)) / sum(map(Fraction, exact))
    assert abs(Fraction(log.real) - signed) <= 2 * (B + u * H) / (H - B - u * H) + u, prof.N
    return max(gaps)


def test_harmonic_mass_against_exact_fractions(omega_to_1e6):
    """inv_k at every N <= 200 and at seeded N <= 10^4 against the exact sums
    of 1/n.  Measured worst gap: 1.8e-15, where the bound is 7.6e-14 or more."""
    rng = np.random.default_rng(37)
    checkpoints = sorted({*range(1, 201), *rng.integers(201, 10**4, 40).tolist(), 10**4})
    exact = harmonic_masses_by_fractions(checkpoints, omega_to_1e6)
    worst = max(assert_within_the_bound(omega_profile(N), exact[N]) for N in checkpoints)
    assert worst <= 2**-47


def test_harmonic_mass_against_per_k_fsum(omega_to_1e6):
    """inv_k at every N <= 3000, and at 10^5 and 10^6, against math.fsum of
    the 1/n with Omega(n) = k, Omega from trial division.  Measured worst
    gap: 1.8e-15 (N = 2060), where the bound is 5.7e-10 at 10^6."""
    running = [[] for _ in range(MAX_OMEGA + 1)]
    worst = 0
    for N, k in enumerate(omega_to_1e6[:3000].tolist(), start=1):
        running[k].append(1.0 / N)
        prof = omega_profile(N)
        worst = max(worst, assert_within_the_bound(
            prof, [math.fsum(terms) for terms in running[: prof.k_max + 1]]))
    for N in (10**5, 10**6):
        prof = omega_profile(N)
        recips = 1.0 / np.arange(1, N + 1, dtype=np.float64)
        worst = max(worst, assert_within_the_bound(
            prof, per_k_fsum(omega_to_1e6[:N], recips, prof.k_max + 1)))
    assert worst <= 2**-47


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


def test_only_the_sieve_table_and_the_two_sets_lookup_sieve():
    """omega_segment and sieve_segment are named only where the sieve table
    and the two-sets Omega lookup need them: no profile sieves."""
    names = {"omega_segment", "sieve_segment"}
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
        ("sieve._omega_range", "omega_segment"),
        ("cli._cmd_sieve", "sieve_segment"),
        ("twosets._omega_of", "sieve_segment"),
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


def test_segment_span_cap_is_exact():
    assert len(segment_spans(HARD_LIMIT)) == -(-HARD_LIMIT // DEFAULT_SEGMENT_LENGTH) == 2385
    assert len(segment_spans(MAX_SEGMENTS, 1)) == MAX_SEGMENTS
    assert len(segment_spans(10 * MAX_SEGMENTS, 10)) == MAX_SEGMENTS
    for n_max, length in ((MAX_SEGMENTS + 1, 1), (10 * MAX_SEGMENTS + 1, 10), (HARD_LIMIT, 1)):
        with pytest.raises(RangeTooLargeError, match="over the cap"):
            segment_spans(n_max, length)


def test_profile_worker_counts_agree_at_1e6(profile_1e6):
    for workers in (1, 3):
        prof = omega_profile(10**6, workers=workers)
        assert np.array_equal(prof.pik, profile_1e6.pik)
        assert prof.inv_weights.tobytes() == profile_1e6.inv_weights.tobytes()


def test_profile_checks_partition_identity(monkeypatch):
    real_table = sieve.prime_counts_at_quotients

    def one_prime_short(N):
        small, large, primes = real_table(N)
        large[1] -= 1  # pi(N)
        return small, large, primes

    monkeypatch.setattr(sieve, "prime_counts_at_quotients", one_prime_short)
    with pytest.raises(InvalidRangeError, match=r"^pi_k counts do not partition \[1, 1000\]$"):
        omega_profile(1000)


@pytest.mark.parametrize("workers", [0, -3])
def test_nonpositive_workers_are_rejected(workers):
    with pytest.raises(InvalidRangeError, match=f"^workers must be >= 1, got {workers}$"):
        omega_profile(1000, workers)


