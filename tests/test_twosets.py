import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab.averages import AverageScheme, RealTestFunction, smoothed_indicator
from omegalab import twosets
from omegalab.errors import InvalidRangeError, RangeTooLargeError, SearchExhaustedError
from omegalab.sieve import DEFAULT_SEGMENT_LENGTH, base_primes, omega_profile
from omegalab.twosets import (
    MAX_RHO_INTERVALS,
    MAX_SEARCH_LIMIT,
    MAX_TK_N,
    PrimeSetPair,
    _almost_primes_2,
    _interval_counts,
    _rho_bounds,
    construct_pair,
    invariance_gap,
    rho_index,
    tk_discrepancy,
)

from oracles import (
    IncrementalCoupling,
    almost_primes_2_by_rows,
    coupling,
    coupling_grouped,
    eratosthenes,
    omega_oracle,
    phi,
    two_sets_scan_oracle,
)


def test_phi_hand_values():
    assert phi(2, 3) == 0
    assert phi(4, 6) == 1
    assert phi(6, 6) == 5
    assert phi(1, 7) == 0
    with pytest.raises(InvalidRangeError):
        phi(0, 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_phi_symmetric(m, n):
    assert phi(m, n) == phi(n, m)


def test_coupling_hand_values():
    assert coupling({2, 3}) == pytest.approx(17 / 25, abs=1e-14)
    for p in (2, 3, 5, 11):
        assert coupling({p}) == pytest.approx(p - 1, abs=1e-12)
    with pytest.raises(InvalidRangeError, match="^coupling of an empty set$"):
        coupling(set())


def test_coupling_two_path_check():
    sets = [
        {2, 3},
        {2, 4, 6, 9},
        set(range(2, 60)),
        {6, 10, 15, 21, 35},
    ]
    for B in sets:
        assert coupling(B) == pytest.approx(coupling_grouped(B), abs=1e-12)


def grouped_by_trial_division(B) -> float:
    """coupling_grouped with divisors and totients by O(sqrt(m)) trial division."""
    elems = sorted(set(B))
    harmonic = math.fsum(1.0 / m for m in elems)
    mass_by_divisor = {}
    for m in elems:
        for d in trial_divisors(m):
            if d > 1:
                mass_by_divisor.setdefault(d, []).append(1.0 / m)
    total = math.fsum(
        trial_totient(d) * math.fsum(masses) ** 2 for d, masses in mass_by_divisor.items()
    )
    return total / (harmonic * harmonic)


def trial_divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def trial_totient(n):
    result = n
    d = 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                n //= d
            result -= result // d
        d += 1
    if n > 1:
        result -= result // n
    return result


def test_coupling_grouped_is_bit_identical_to_trial_division():
    sets = [
        {1},
        {2, 3},
        {2, 4, 6, 9},
        set(range(1, 400)),
        {6, 10, 15, 21, 35, 2**11, 3**7, 997 * 991},
        {p * q for p in (2, 3, 5, 7, 11, 13) for q in (101, 103, 107)},
    ]
    for B in sets:
        assert coupling_grouped(B) == grouped_by_trial_division(B)


def test_coupling_primes_upper_bound():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    H = math.fsum(1.0 / p for p in primes)
    assert coupling(primes) <= 1.0 / H + 1e-12


def test_incremental_coupling_matches_direct():
    inc = IncrementalCoupling()
    elems = []
    for m, fp, fq in [(2, 2, None), (3, 3, None), (4, 2, 2), (6, 2, 3), (35, 5, 7)]:
        factors = (fp,) if fq is None else (fp, fq)
        inc.add(m, factors)
        elems.append(m)
        assert inc.value() == pytest.approx(coupling(elems), abs=1e-12)


def test_rho_index_exact_boundaries():
    assert rho_index(1, 1.5) == 0
    assert rho_index(2, 1.5) == 1  # 1.5 < 2 <= 2.25
    assert rho_index(3, 1.5) == 2  # 2.25 < 3 <= 3.375
    for rho in (1.05, 1.5, 2.0):
        for m in (1, 2, 17, 1000, 99991):
            j = rho_index(m, rho)
            assert rho**j < m <= rho ** (j + 1) or (m == 1 and j == 0)


@pytest.mark.parametrize("rho", [1.05, 1.5, 2.0])
def test_interval_counts_match_rho_index_on_boundaries(rho):
    elems = []
    for j in itertools.count():
        x = rho**j
        if x > 10**7:
            break
        elems += [math.floor(x), math.ceil(x), math.ceil(x) + 1]
    assert _interval_counts(elems, rho) == Counter(rho_index(m, rho) for m in elems)


def test_almost_primes_table():
    table = _almost_primes_2(0, 30, base_primes(15))
    ms = [int(r[0]) for r in table]
    assert ms == [4, 6, 9, 10, 14, 15, 21, 22, 25, 26]
    for m, p, q in table:
        assert int(p) * int(q) == int(m)


@pytest.mark.parametrize("limit", [1, 3, 4, 6, 10, 100, 2**20, 2**22])
def test_almost_primes_table_matches_the_row_oracle(limit):
    primes = base_primes(limit // 2)
    table = _almost_primes_2(0, limit, primes)
    expected = almost_primes_2_by_rows(limit, primes)
    assert table.shape == expected.shape
    assert table.dtype == expected.dtype == np.int64
    assert np.array_equal(table, expected)
    if limit < 4:
        assert table.shape == (0, 3)


def assert_floor_sums_match_the_tables(x):
    primes = eratosthenes(x)
    prime_sum = math.fsum((1.0 / primes).tolist())
    table_sum = math.fsum(1.0 / m for m in _almost_primes_2(0, x, primes)[:, 0].tolist())
    floor_sums = omega_profile(x).inv_weights[1:3].tolist()  # the exit-3 floor's sums
    assert floor_sums == pytest.approx([prime_sum, table_sum], rel=1e-12), x


@pytest.mark.parametrize("x", [4, 5, 9, 10, 30, 1000, 2**20 + 1])
def test_table_free_floor_matches_the_table(x):
    assert_floor_sums_match_the_tables(x)


@pytest.mark.parametrize("length", [1, 4, 64])
def test_table_free_floor_across_prime_segment_edges(prime_segment, length):
    """Every limit to 300, and limits beside the ends of the first segments,
    so that the cuts limit // p and p - 1 fall on, before and after a
    segment's last prime."""
    prime_segment(length)
    edges = {2 * k * length + d for k in range(1, 40) for d in (-2, -1, 0, 1, 2)}
    for x in sorted(set(range(4, 301)) | {x for x in edges if x >= 4}):
        assert_floor_sums_match_the_tables(x)


def test_table_free_floor_peak_is_one_segment():
    tracemalloc.start()
    try:
        sums = omega_profile(10**7).inv_weights[1:3]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.5 / sums[0] == pytest.approx(0.164, abs=5e-4)  # the floor in the exit-3 message
    # one segment of prime flags and the build of the harmonic table: a pass
    # over the primes <= 10**7 took 5.8 MB, and base_primes(10**7) and 1 / p 15.6 MB
    assert peak < 4 * 10**6


def test_almost_primes_table_from_a_longer_prime_array():
    primes = base_primes(10**4)
    for limit in (1, 4, 30, 1000, 9973, 10**4):
        own = _almost_primes_2(0, limit, base_primes(limit // 2))
        assert _almost_primes_2(0, limit, primes).tolist() == own.tolist()


@pytest.mark.parametrize("limit", [30, 1000, 10**5, 2**20])
def test_segmented_rows_join_to_the_whole_table(limit):
    """Rows over (lo, hi] for random cuts, cuts at some m = p q and at
    squares p * p, and empty segments, concatenate to the whole table."""
    primes = base_primes(limit // 2)
    whole = almost_primes_2_by_rows(limit, primes)
    ms = whole[:, 0].tolist()
    squares = [p * p for p in primes.tolist() if p * p <= limit]
    rng = random.Random(limit)
    cuts = rng.sample(range(1, limit), 20) + rng.sample(ms, 10) + squares[:5] + squares[-5:]
    edges = [0, *sorted(cuts + cuts[:3]), limit]  # a repeated cut makes an empty segment
    parts = [_almost_primes_2(lo, hi, primes) for lo, hi in zip(edges, edges[1:])]
    for (lo, hi), part in zip(zip(edges, edges[1:]), parts):
        assert part.shape[1] == 3 and part.dtype == np.int64
        assert np.all((lo < part[:, 0]) & (part[:, 0] <= hi))
    assert np.array_equal(np.concatenate(parts), whole)
    longer = base_primes(2 * limit)  # a longer prime array gives the same rows
    assert np.array_equal(_almost_primes_2(edges[5], edges[-5], longer),
                          np.concatenate(parts[5:-4]))


def _search(*args):
    """construct_pair's lists, couplings and message, whether it succeeds or not."""
    try:
        pair = construct_pair(*args)
        return pair.b1, pair.b2, pair.couplings, None
    except SearchExhaustedError as exc:
        pair = exc.best_pair
        return pair and pair.b1, pair and pair.b2, exc.couplings, str(exc)


def _recording_search(monkeypatch):
    """Record construct_pair's (lo, hi) of every _almost_primes_2 call and
    limit of every base_primes call."""
    rows, tables = [], []

    def almost(lo, hi, primes):
        rows.append((lo, hi))
        return _almost_primes_2(lo, hi, primes)

    def primes(limit):
        tables.append(limit)
        return base_primes(limit)

    monkeypatch.setattr(twosets, "_almost_primes_2", almost)
    monkeypatch.setattr(twosets, "base_primes", primes)
    return rows, tables


def assert_segment_policy(rows, tables, rho, limit, width):
    """Each segment starts at the bound of the last interval scanned and
    ends at the last interval end within its first interval's end or
    lo + width, whichever is larger, and within the primes table built for
    that first interval: the smallest table >= it."""
    ends = sorted({min(math.floor(rho ** (j + 1)), limit) for j in range(rho_index(limit, rho) + 1)})
    assert rows[0][0] == 0
    assert all(b[0] == a[1] for a, b in zip(rows, rows[1:]))  # contiguous
    for lo, hi in rows:
        first = min(e for e in ends if e > lo)
        table = min(t for t in tables if t >= first)
        assert hi == max(e for e in ends if e <= min(max(lo + width, first), table))


@pytest.mark.parametrize(
    "epsilon, rho, limit, cap",
    [
        (0.1, 1.05, 1, 50_000),
        (0.1, 1.05, 100, 50_000),
        (0.5, 1.5, 10**4, 50_000),
        (0.01, 1.01, 3000, 50_000),
        (0.9, 1.9, 5000, 200),
        (0.2, 1.001, 20_000, 10**5),
        (0.1, 1.05, 50_000, 50_000),
    ],
)
def test_growing_table_gives_the_same_search(monkeypatch, epsilon, rho, limit, cap):
    rows, tables = _recording_search(monkeypatch)
    monkeypatch.setattr(twosets, "MAX_SET_SIZE", cap)
    monkeypatch.setattr(twosets, "_FIRST_TABLE_LIMIT", 2**62)
    monkeypatch.setattr(twosets, "ROW_SEGMENT", 2**62)
    whole = _search(epsilon, rho, limit)
    assert rows == [(0, limit)]  # one unsegmented table
    assert tables == [limit]
    assert whole == two_sets_scan_oracle(epsilon, rho, limit, cap)
    for width in (16, 1000):
        rows.clear()
        tables.clear()
        monkeypatch.setattr(twosets, "_FIRST_TABLE_LIMIT", 64)
        monkeypatch.setattr(twosets, "ROW_SEGMENT", width)
        grown = _search(epsilon, rho, limit)
        assert grown == whole  # the same lists, bit-identical couplings, the same message
        limits = tables
        assert limits[0] == min(64, limit) and limits[-1] <= limit
        assert all(b == min(2 * a, limit) for a, b in zip(limits, limits[1:]))
        assert limits[-1] >= max(whole[1] or [0])  # B2 past 64 forces doublings
        assert_segment_policy(rows, limits, rho, limit, width)
        if whole[3] is None or len(whole[1] or ()) == cap:  # stopped at epsilon or the cap
            assert rows[-1][0] < max(whole[1]) <= rows[-1][1]  # in the last segment built
        else:  # every interval up to the limit was scanned
            assert rows[-1][1] == limit


@pytest.mark.parametrize(
    "epsilon, rho, limit, cap",
    [
        (0.1, 1.05, 10**7, 50_000),  # stops at the set-size cap, near 6.1e5
        (0.1, 1.05, 5 * 10**4, 50_000),
        (0.1, 1.01, 10**6, 50_000),
        (0.5, 1.5, 10**4, 50_000),
        (0.1, 1.05, 10**5, 300),
        (0.1, 1.05, 10**4, 0),
        (0.1, 1.0000925, 10**4, 50_000),  # about 10^5 intervals, none takes anything
    ],
)
def test_batched_search_matches_the_element_scan(monkeypatch, epsilon, rho, limit, cap):
    monkeypatch.setattr(twosets, "MAX_SET_SIZE", cap)
    got = _search(epsilon, rho, limit)
    # the same lists, couplings equal as floats (not approximately), the same message
    assert got == two_sets_scan_oracle(epsilon, rho, limit, cap)


def test_short_search_builds_only_the_first_table(monkeypatch):
    rows, tables = _recording_search(monkeypatch)
    monkeypatch.setattr(twosets, "MAX_SET_SIZE", 300)
    segmented = _search(0.1, 1.05, 10**7)
    assert segmented[3] is not None  # exhausted
    assert tables == [2**20]  # the first prime table: the floor is counted
    # one segment of 2-almost primes: up to the last interval end within ROW_SEGMENT
    ends = [math.floor(1.05 ** (j + 1)) for j in range(rho_index(10**7, 1.05) + 1)]
    assert rows == [(0, max(e for e in ends if e <= twosets.ROW_SEGMENT))]
    assert max(segmented[1]) <= rows[0][1]
    assert segmented == two_sets_scan_oracle(0.1, 1.05, 10**7, 300)
    monkeypatch.setattr(twosets, "ROW_SEGMENT", 2**62)
    assert _search(0.1, 1.05, 10**7) == segmented  # the unsegmented search


def test_search_that_reaches_epsilon_returns_its_pair(monkeypatch):
    """The searches a test can afford end exhausted (B2's couplings stay
    above 1), so here a coupling reads 0.05 once its harmonic sum passes 0.8."""
    monkeypatch.setattr(twosets._BatchCoupling, "value",
                        lambda self: 0.05 if self.harmonic > 0.8 else 1.0)
    found = []
    for width in (2**62, 2**17, 16):
        monkeypatch.setattr(twosets, "ROW_SEGMENT", width)
        found.append(_search(0.1, 1.05, 10**6))
    assert found[0] == found[1] == found[2]
    b1, b2, couplings, message = found[0]
    assert message is None and couplings == (0.05, 0.05)
    assert len(b1) == len(b2) == 1448
    assert min(math.fsum(1 / m for m in b) for b in (b1, b2)) > 0.8


def test_search_peak_is_one_segment():
    tracemalloc.start()
    try:
        with pytest.raises(SearchExhaustedError) as exc_info:
            construct_pair(0.1, 1.05, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(exc_info.value.best_pair.b2) == 50_000
    # the table over 2**20 and its temporaries took 18.25 MB, and validation
    # from the two tuples 8.6 MB
    assert peak < 7 * 10**6


@pytest.mark.parametrize("limit", [10**7, 2**20, 50_000, 1000])
def test_search_sieves_only_as_far_as_its_table(monkeypatch, limit):
    """The scan asks base_primes for its table's limit, min(2**20, limit) when
    it stops near 6.1e5, and for nothing else: the floor is counted."""
    limits = []

    def recording_base_primes(n):
        limits.append(n)
        return base_primes(n)

    monkeypatch.setattr(twosets, "base_primes", recording_base_primes)
    with pytest.raises(SearchExhaustedError):
        construct_pair(0.1, 1.05, limit)
    assert limits == [min(2**20, limit)]


def test_rho_close_to_one_fails_before_allocating():
    rho = 1 + 1e-12
    tracemalloc.start()
    try:
        with pytest.raises(RangeTooLargeError, match="rho-adic intervals"):
            construct_pair(0.1, rho, 10**7)
        with pytest.raises(RangeTooLargeError, match="rho-adic intervals"):
            PrimeSetPair(b1=(1009,), b2=(1011,), rho=rho, epsilon=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6  # the 1.6e13 bounds, or base_primes(10**7), would take far more


def test_search_limit_cap_is_exact(monkeypatch):
    class Reached(Exception):
        pass

    def no_base_primes(limit):
        raise Reached(limit)

    monkeypatch.setattr(twosets, "base_primes", no_base_primes)
    with pytest.raises(Reached):
        construct_pair(0.1, 1.05, MAX_SEARCH_LIMIT)
    with pytest.raises(RangeTooLargeError, match="over the cap"):
        construct_pair(0.1, 1.05, MAX_SEARCH_LIMIT + 1)


def test_rho_bounds_cap_is_exact():
    assert len(_rho_bounds(1.0001, MAX_RHO_INTERVALS - 1)) == MAX_RHO_INTERVALS
    with pytest.raises(RangeTooLargeError):
        _rho_bounds(1.0001, MAX_RHO_INTERVALS)


def test_prime_set_pair_validation():
    with pytest.raises(InvalidRangeError):
        PrimeSetPair(b1=(4,), b2=(6,), rho=1.05, epsilon=0.1)  # 4 not prime
    with pytest.raises(InvalidRangeError):
        PrimeSetPair(b1=(2,), b2=(5,), rho=1.05, epsilon=0.1)  # 5 not 2-almost
    with pytest.raises(InvalidRangeError, match="^pair sets must be non-empty$"):
        PrimeSetPair(b1=(), b2=(4,), rho=1.05, epsilon=0.1)


def _first_in_segment_two(k):
    """The smallest n with Omega(n) = k in the second default segment."""
    return next(n for n in itertools.count(DEFAULT_SEGMENT_LENGTH + 1) if omega_oracle(n) == k)


def _trial_division_message(b1, b2):
    """What trial division reports for the first element of the wrong kind."""
    for elems, k, what in ((b1, 1, "in B1 is not prime"),
                           (b2, 2, "in B2 is not a 2-almost prime")):
        for m in elems:
            if omega_oracle(m) != k:
                return f"{m} {what}"
    return None


def test_prime_set_pair_validation_from_the_sieve(tmp_path, monkeypatch):
    monkeypatch.setenv("OMEGALAB_CACHE", str(tmp_path))
    big_prime, big_almost = _first_in_segment_two(1), _first_in_segment_two(2)
    assert rho_index(big_prime, 1.05) == rho_index(big_almost, 1.05)
    assert rho_index(1009, 1.05) == rho_index(1011, 1.05)
    PrimeSetPair(b1=(1009, big_prime), b2=(big_almost, 1011), rho=1.05, epsilon=0.1)
    bad = [
        ((4,), (6,)),
        ((2,), (5,)),
        ((7, 4, 9), (6,)),
        ((3, DEFAULT_SEGMENT_LENGTH + 1), (6,)),  # 5 * 838861, in segment two
        ((big_prime, 1009), (big_almost, big_prime)),
        ((big_prime,), (8, big_almost)),
        ((1009, 2**23 + 9), (1011, 1015)),
    ]
    for b1, b2 in bad:
        expected = _trial_division_message(b1, b2)
        assert expected is not None
        with pytest.raises(InvalidRangeError) as exc_info:
            PrimeSetPair(b1=b1, b2=b2, rho=1.05, epsilon=0.1)
        assert str(exc_info.value) == expected
    with pytest.raises(InvalidRangeError, match="n must be >= 1"):
        PrimeSetPair(b1=(0, 2), b2=(4, 6), rho=1.05, epsilon=0.1)
    assert list(tmp_path.iterdir()) == []  # the segment cache is not used


def test_pair_is_validated_from_int64_arrays_in_one_sieve(monkeypatch):
    """Arrays and tuples validate alike, and are stored as tuples of ints;
    each segment span that holds elements of either set is sieved once."""
    big_prime, big_almost = _first_in_segment_two(1), _first_in_segment_two(2)
    b1, b2 = (1009, big_prime), (1011, big_almost)
    second = (big_prime, big_almost)  # the elements in segment two
    ranges = []
    sieve_segment = twosets.sieve_segment

    def recording_sieve_segment(lo, hi):
        ranges.append((lo, hi))
        return sieve_segment(lo, hi)

    monkeypatch.setattr(twosets, "sieve_segment", recording_sieve_segment)
    for given in ((b1, b2), (np.array(b1), np.array(b2)), (b1[::-1], b2[::-1])):
        ranges.clear()
        pair = PrimeSetPair(*given, rho=1.05, epsilon=0.1)
        assert (pair.b1, pair.b2) == (tuple(given[0]), tuple(given[1]))
        assert all(type(m) is int for m in pair.b1 + pair.b2)
        assert ranges == [(1009, 1012), (min(second), max(second) + 1)]


@pytest.mark.parametrize("b1, b2, error, message", [
    ((4,), (0, 6), InvalidRangeError, "4 in B1 is not prime"),
    ((4,), (2**70,), InvalidRangeError, "4 in B1 is not prime"),
    ((0, 4), (2**70,), InvalidRangeError, "n must be >= 1"),
    ((3,), (2**64 - 1,), RangeTooLargeError,
     "range up to 18446744073709551615 exceeds the configured limit 10000000000"),
    ((3,), (-1, 2**64), InvalidRangeError, "n must be >= 1"),
])
def test_b1_is_checked_before_the_range_of_b2(b1, b2, error, message):
    with pytest.raises(error) as exc_info:
        PrimeSetPair(b1=b1, b2=b2, rho=1.05, epsilon=0.1)
    assert str(exc_info.value) == message


def test_search_carries_its_couplings(monkeypatch):
    monkeypatch.setattr(twosets, "MAX_SET_SIZE", 300)
    with pytest.raises(SearchExhaustedError) as exc_info:
        construct_pair(0.1, 1.05, 10**5)
    exc = exc_info.value
    pair = exc.best_pair
    assert len(pair.b1) == 300
    assert pair.couplings == exc.couplings
    for value, elems in zip(exc.couplings, (pair.b1, pair.b2)):
        assert value == pytest.approx(coupling(elems), rel=1e-12)


def test_exhaustion_reports_the_diagonal_floor():
    with pytest.raises(SearchExhaustedError) as exc_info:
        construct_pair(0.01, 1.01, 10**3)
    exc = exc_info.value
    own = [1 / (2 * math.fsum(1 / m for m in B)) for B in (exc.best_pair.b1, exc.best_pair.b2)]
    pools = [1 / (2 * math.fsum(1 / int(m) for m in B))
             for B in (base_primes(1000), _almost_primes_2(0, 1000, base_primes(500))[:, 0])]
    for value, floor, pool in zip(exc.couplings, own, pools):
        assert value >= floor >= pool
    assert str(exc) == (
        f"coupling target 0.01 not reached by limit 1000: best achieved {exc.couplings}; "
        f"proven floor 1/(2 sum 1/m): ({own[0]:.3g}, {own[1]:.3g}) for these sets, "
        f"({pools[0]:.3g}, {pools[1]:.3g}) for any sets <= 1000"
    )


def test_construct_pair_invariants_hold():
    try:
        pair = construct_pair(0.5, 1.5, 10**4)
    except SearchExhaustedError as exc:
        pair = exc.best_pair
    assert pair is not None
    assert all(omega_oracle(p) == 1 for p in pair.b1)
    assert all(omega_oracle(m) == 2 for m in pair.b2)
    assert len(pair.b1) == len(pair.b2)
    assert _interval_counts(pair.b1, pair.rho) == _interval_counts(pair.b2, pair.rho)


def test_construct_pair_reports_best_on_exhaustion():
    with pytest.raises(SearchExhaustedError) as exc_info:
        construct_pair(0.01, 1.01, 10**3)
    exc = exc_info.value
    assert exc.best_pair is not None
    assert exc.couplings is not None
    assert exc.couplings[0] > 0.01


def test_construct_pair_validation():
    with pytest.raises(InvalidRangeError):
        construct_pair(1.5, 1.05, 100)
    with pytest.raises(InvalidRangeError):
        construct_pair(0.1, 1.2, 100)  # rho > 1 + epsilon


def test_tk_discrepancy_hand_values():
    assert tk_discrepancy({1}, 100) == 0.0
    # B = {2}, N = 4: (|1-0| + |1-2| + |1-0| + |1-2|) / 4 = 1
    assert tk_discrepancy({2}, 4) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(InvalidRangeError, match="^tk_discrepancy of an empty set$"):
        tk_discrepancy(set(), 10)


@pytest.mark.parametrize("scheme", list(AverageScheme))
def test_tk_discrepancy_over_the_cap_raises_before_allocating(scheme):
    for N in (MAX_TK_N + 1, 10**12):
        tracemalloc.start()
        try:
            with pytest.raises(RangeTooLargeError, match="over the cap"):
                tk_discrepancy([2, 3], N, scheme)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**6  # the arrays of N + 1 entries were not built


def test_tk_discrepancy_log_scheme_brute_force():
    B = {2, 3}
    N = 50
    H = 1 / 2 + 1 / 3
    inner = [abs(1 - sum(1 for m in B if n % m == 0) / H) for n in range(1, N + 1)]
    den = math.fsum(1.0 / n for n in range(1, N + 1))
    expect = math.fsum(v / n for v, n in zip(inner, range(1, N + 1))) / den
    got = tk_discrepancy(B, N, AverageScheme.LOGARITHMIC)
    assert got == pytest.approx(expect, abs=1e-12)


def test_invariance_gap_constant_is_zero(profile_1e4):
    F = smoothed_indicator(-2, 2)
    gap = invariance_gap(F, lambda k: 0.5, profile_1e4)
    assert gap == pytest.approx(0.0, abs=1e-15)


def test_invariance_gap_zero_function(profile_1e4):
    zero = RealTestFunction(fn=lambda x: 0.0, support_lo=-1, support_hi=1)
    assert invariance_gap(zero, lambda k: (-1) ** k, profile_1e4) == 0.0
