import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    block_scan_oracle,
    extrapolated_average_oracle,
    loglog_interval_count_by_exp,
    omega_oracle,
    oscillation_profile_oracle,
)

from omegalab import counterexample
from omegalab.counterexample import (
    BlockSequence,
    Checkpoints,
    average_along_omega_blocks,
    erdos_blocks,
    genericity_defect,
    loglog_interval_count,
    merge_intervals,
    oscillation_profile,
)
from omegalab.errors import InvalidRangeError, RangeTooLargeError
from omegalab.weights import GaussianWindowSpec, extrapolated_average

INT64 = np.iinfo(np.int64)


def test_blocks_merge_when_touching():
    seq = erdos_blocks(2)
    assert seq.blocks == ((1, 13),)
    seq3 = erdos_blocks(3)
    assert seq3.blocks == ((1, 13), (19, 35))


def test_block_membership():
    seq = erdos_blocks(3)
    assert seq(14) == 0
    assert seq(27) == 1
    assert seq(13) == 1
    assert seq(36) == 0


def test_block_sequence_validation():
    with pytest.raises(InvalidRangeError, match=r"^block \[5, 3\] is empty$"):
        BlockSequence(blocks=((5, 3),))
    with pytest.raises(InvalidRangeError, match="^blocks must be disjoint and sorted$"):
        BlockSequence(blocks=((1, 10), (5, 20)))
    with pytest.raises(InvalidRangeError):
        erdos_blocks(0)
    with pytest.raises(InvalidRangeError, match=r"^3\^60 exceeds the supported integer range$"):
        erdos_blocks(60)


def test_merge_intervals():
    assert merge_intervals([(1, 5), (5, 13)]) == ((1, 13),)
    assert merge_intervals([(10, 20), (1, 3)]) == ((1, 3), (10, 20))
    assert merge_intervals([(1, 3), (4, 6)]) == ((1, 6),)  # adjacent merge


def test_checkpoints():
    cp = Checkpoints(3)
    assert cp.loglogn_peak == 27.0
    assert cp.loglogn_trough == 46.0
    assert all(
        Checkpoints(k).loglogn_trough > Checkpoints(k).loglogn_peak
        for k in range(1, 10)
    )
    with pytest.raises(InvalidRangeError):
        Checkpoints(0)


def test_genericity_defect_hand_values():
    seq = erdos_blocks(2)
    assert genericity_defect(seq, 13) == 1.0
    assert genericity_defect(seq, 26) == 0.5
    empty = BlockSequence(blocks=())
    assert genericity_defect(empty, 1000) == 0.0


def test_genericity_defect_bounded_by_block_count():
    seq = erdos_blocks(6)
    N = 10**5
    assert genericity_defect(seq, N) == seq.count_upto(N) / N


def test_loglog_interval_count_boundary_at_16():
    # log log 15 < 1 <= log log 16
    assert math.log(math.log(15)) < 1.0 <= math.log(math.log(16))
    n = 10**4
    below = loglog_interval_count(n, 1.0, 5.0)
    assert below == n - 15
    # hi crossing an integer boundary changes the count by exactly 1
    x16 = math.log(math.log(16))
    x17 = math.log(math.log(17))
    lo = 0.1
    c_before = loglog_interval_count(10**4, lo, (x16 + x17) / 2)
    c_after = loglog_interval_count(10**4, lo, (x17 + math.log(math.log(18))) / 2)
    assert c_after == c_before + 1


def test_loglog_interval_count_trivial_cases():
    assert loglog_interval_count(10**4, 0.0, 10.0) == 10**4 - 2
    assert loglog_interval_count(10**4, 50.0, 60.0) == 0
    with pytest.raises(InvalidRangeError, match="^need lo < hi$"):
        loglog_interval_count(100, 2.0, 1.0)
    with pytest.raises(InvalidRangeError):
        loglog_interval_count(2, 0.0, 1.0)
    assert loglog_interval_count(10**60, -math.inf, math.inf) == 10**60 - 2
    with pytest.raises(RangeTooLargeError):
        loglog_interval_count(10**60 + 1, 0.0, 1.0)
    for lo, hi in ((math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(InvalidRangeError, match="has a NaN bound$"):
            loglog_interval_count(100, lo, hi)


def test_loglog_interval_count_matches_scan():
    for lo, hi in [(0.5, 1.2), (1.0, 1.5), (0.2, 2.0)]:
        scan = sum(1 for n in range(3, 5001) if lo <= math.log(math.log(n)) <= hi)
        assert loglog_interval_count(5000, lo, hi) == scan


@pytest.mark.parametrize("N", [10**59, 10**60], ids=["1e59", "1e60"])
def test_loglog_interval_count_exact_at_the_cap(N):
    """Boundaries at log log n rounded to a float, and one ulp either side.

    Neighbouring n this large differ in log log n by under 1e-60; a 60-digit
    comparison got 17 of these 24 counts wrong at 10**59 and 20 at 10**60.
    """
    for n in (N // 7, N // 2, N - 10**40, N):
        x = math.log(math.log(n))
        for edge in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)):
            for lo, hi in ((edge, 5.0), (4.0, edge)):
                expect = loglog_interval_count_by_exp(N, lo, hi)
                assert loglog_interval_count(N, lo, hi) == expect, (n, lo, hi)


def test_loglog_interval_count_matches_the_exp_oracle_on_random_intervals():
    rng = random.Random(16)
    for _ in range(60):
        N = rng.randrange(3, 10 ** rng.randrange(2, 61) + 1)
        lo, hi = sorted(rng.uniform(-1.0, 5.0) for _ in range(2))
        assert loglog_interval_count(N, lo, hi) == loglog_interval_count_by_exp(N, lo, hi)


def test_average_along_omega_blocks_two_paths(profile_1e4):
    seq = erdos_blocks(3)
    N = 10**4
    via_profile = average_along_omega_blocks(seq, profile_1e4)
    direct = sum(seq(omega_oracle(n)) for n in range(1, N + 1)) / N
    assert via_profile == pytest.approx(direct, abs=1e-15)


def test_average_along_omega_blocks_trivial(profile_1e4):
    everything = BlockSequence(blocks=((0, 100),))
    assert average_along_omega_blocks(everything, profile_1e4) == 1.0
    empty = BlockSequence(blocks=())
    assert average_along_omega_blocks(empty, profile_1e4) == 0.0


def test_oscillation_profile_contrast():
    seq = erdos_blocks(8)
    cps = [Checkpoints(k) for k in range(3, 7)]
    rows = dict(oscillation_profile(seq, cps))
    for cp in cps:
        assert rows[cp.loglogn_peak] > rows[cp.loglogn_trough]


def test_oscillation_profile_constant_sequence():
    ones = BlockSequence(blocks=((0, 10**6),))
    rows = oscillation_profile(ones, [Checkpoints(4)])
    for _, value in rows:
        assert value == pytest.approx(1.0, abs=0.01)


# Starts anywhere in +-2^70, or near 0 or the int64 limits, so that touching
# and overlapping intervals (merged before use) are frequent.
BLOCK_START = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(-50, 50),
    st.integers(INT64.max - 20, INT64.max + 20),
    st.integers(INT64.min - 20, INT64.min + 20),
)
BLOCK_LENGTH = st.integers(0, 20) | st.integers(0, 2**70)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(BLOCK_START, BLOCK_LENGTH), max_size=50))
def test_block_sequence_matches_scan_oracle(starts_and_lengths):
    seq = BlockSequence(merge_intervals((lo, lo + n) for lo, n in starts_and_lengths))
    probes = {0, 2**62}
    for lo, hi in seq.blocks:
        probes |= {lo - 1, lo, lo + 1, hi - 1, hi, hi + 1}
    probes = sorted(p for p in probes if INT64.min <= p <= INT64.max)
    expect = [block_scan_oracle(seq.blocks, p) for p in probes]
    got = seq(np.array(probes, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == expect
    scalars = [seq(p) for p in probes]
    assert scalars == expect and all(type(v) is int for v in scalars)


def test_block_sequence_rejects_k_outside_int64():
    seq = BlockSequence(blocks=((0, 2**70),))
    assert seq(INT64.max) == 1
    with pytest.raises(OverflowError):
        seq(INT64.max + 1)


@pytest.mark.parametrize("kmax", range(1, 15))
def test_oscillation_profile_bit_identical_to_per_k_oracle(kmax):
    seq = erdos_blocks(kmax)
    cps = [Checkpoints(k) for k in range(1, kmax + 1)]
    got = oscillation_profile(seq, cps)
    expect = oscillation_profile_oracle(seq.blocks, cps)
    assert [(x.hex(), v.hex()) for x, v in got] == [(x.hex(), v.hex()) for x, v in expect]


def test_extrapolated_average_on_many_blocks_bit_identical_to_oracle():
    # 1000 blocks below the window at log log N = 10^6 and 20 inside it.
    rng = random.Random(20261018)
    window = GaussianWindowSpec(loglogn=1e6, C=3.0)
    intervals = []
    for count, lo, hi, longest in ((1000, 1, window.k_lo - 1000, 400),
                                   (20, window.k_lo, window.k_hi, 150)):
        cuts = sorted(rng.sample(range(lo, hi), 2 * count))
        intervals += [(a, min(b, a + longest)) for a, b in zip(cuts[::2], cuts[1::2])]
    seq = BlockSequence(merge_intervals(intervals))
    assert len(seq.blocks) > 1000
    got = extrapolated_average(seq, window)
    expect = extrapolated_average_oracle(lambda k: block_scan_oracle(seq.blocks, k), window)
    assert got.real.hex() == expect.real.hex()
    assert got.real > 0
    assert got.imag == expect.imag == 0.0


def test_oscillation_profile_checks_every_window_before_evaluating(monkeypatch):
    def fail(*args):
        raise AssertionError("a window was evaluated before all were checked")

    monkeypatch.setattr(counterexample, "extrapolated_average", fail)
    # The k = 26 peak window fits (9.6e6 points), its trough does not.
    with pytest.raises(RangeTooLargeError):
        oscillation_profile(erdos_blocks(26), [Checkpoints(k) for k in range(1, 27)])
