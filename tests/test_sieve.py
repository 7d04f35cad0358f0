import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab import (
    FactorCountSegment,
    hardy_ramanujan_tail,
    liouville,
    omega_oracle,
    omega_profile,
    pi_k_histogram,
    residue_class_density,
    sieve_segment,
)
from omegalab.errors import InvalidRangeError, InvalidResidueError, RangeTooLargeError
from omegalab.kernels import omega_segment
from omegalab.sieve import (
    HARD_LIMIT,
    MAX_OMEGA,
    REDUCE_BLOCK,
    _profile_chunk,
    base_primes,
    read_segment_file,
    segment_spans,
    write_segment_file,
)


def bulk_omega_oracle(lo: int, hi: int) -> np.ndarray:
    """Vectorized trial division, independent of the sieve's stepping logic."""
    ns = np.arange(lo, hi, dtype=np.int64)
    rem = ns.copy()
    counts = np.zeros(len(ns), dtype=np.int64)
    for p in base_primes(int(math.isqrt(max(hi - 1, 1)))):
        p = int(p)
        while True:
            mask = rem % p == 0
            if not mask.any():
                break
            counts[mask] += 1
            rem[mask] //= p
    counts[rem > 1] += 1
    counts[ns == 1] = 0
    return counts


def test_first_ten_omega_values():
    seg = sieve_segment(1, 11)
    assert list(seg.counts) == [0, 1, 1, 2, 1, 2, 1, 3, 2, 2]


def test_omega_oracle_small():
    assert omega_oracle(1) == 0
    assert omega_oracle(2) == 1
    assert omega_oracle(12) == 3
    assert omega_oracle(2**10) == 10
    assert omega_oracle(97) == 1


def test_sieve_matches_trial_division_to_one_million():
    for lo, hi in segment_spans(10**6, 1 << 18):
        seg = sieve_segment(lo, hi + 1)
        assert np.array_equal(seg.counts.astype(np.int64), bulk_omega_oracle(lo, hi + 1))


def assert_kernel_matches_oracle(lo, hi):
    counts = omega_segment(lo, hi, base_primes(math.isqrt(hi - 1)))
    assert counts.dtype == np.uint8
    assert np.array_equal(counts.astype(np.int64), bulk_omega_oracle(lo, hi))


@pytest.mark.parametrize(
    "lo, hi",
    [
        (1, 2),
        (1, 5),
        (1, 1 << 12),
        (1, 1000),
        (10**6 - 17, 10**6 + 500),
        # lo just below 2 * sqrt(hi): a short prefix with per-element thresholds
        (2 * math.isqrt(10**6) - 5, 10**6),
        (2**31 - 2**12, 2**31 + 2**12),
        (2**32 - 2**12, 2**32 + 2**12),
        (HARD_LIMIT - 2**14, HARD_LIMIT + 1),
    ],
)
def test_kernel_edge_spans_match_oracle(lo, hi):
    assert_kernel_matches_oracle(lo, hi)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, HARD_LIMIT), st.integers(1, 1 << 12))
def test_kernel_random_spans_match_oracle(lo, length):
    assert_kernel_matches_oracle(lo, min(lo + length, HARD_LIMIT + 1))


@pytest.mark.parametrize(
    "lo, hi",
    [(1, 3 * REDUCE_BLOCK // 2), (10**7 + 3, 10**7 + 3 + 2 * REDUCE_BLOCK + 777)],
)
def test_profile_chunk_matches_whole_segment_bincount(lo, hi):
    counts = sieve_segment(lo, hi).counts
    pik, inv = _profile_chunk((lo, hi))
    ref_pik = np.bincount(counts, minlength=MAX_OMEGA + 1)
    ref_inv = np.bincount(
        counts, weights=1.0 / np.arange(lo, hi, dtype=np.float64), minlength=MAX_OMEGA + 1
    )
    assert np.array_equal(pik, ref_pik)
    assert inv.tobytes() == ref_inv.tobytes()


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
    hist = pi_k_histogram(100)
    brute = {}
    for n in range(1, 101):
        brute[omega_oracle(n)] = brute.get(omega_oracle(n), 0) + 1
    assert hist.counts == brute


def test_residue_density_examples(profile_1e4):
    # n <= 10 with even Omega: 1, 4, 6, 9, 10
    assert residue_class_density(10, 2, 0) == 0.5
    dens = [residue_class_density(10**4, 3, r, profile=profile_1e4) for r in range(3)]
    assert math.isclose(sum(dens), 1.0, rel_tol=1e-12)


def test_residue_density_errors():
    with pytest.raises(InvalidResidueError):
        residue_class_density(100, 3, 3)
    with pytest.raises(InvalidRangeError):
        residue_class_density(0, 3, 1)


def test_hardy_ramanujan_tail_monotone_in_c():
    t1 = hardy_ramanujan_tail(10**6, 1.0)
    t2 = hardy_ramanujan_tail(10**6, 2.0)
    t3 = hardy_ramanujan_tail(10**6, 3.0)
    assert t1 >= t2 >= t3
    assert t3 / 10**6 < 0.05


def test_segment_validation():
    with pytest.raises(InvalidRangeError):
        sieve_segment(10, 10)
    with pytest.raises(InvalidRangeError):
        sieve_segment(0, 5)
    with pytest.raises(RangeTooLargeError):
        sieve_segment(1, 10**10 + 2)


def test_segment_cache_roundtrip(tmp_path):
    seg = sieve_segment(1000, 2000)
    path = tmp_path / "seg.bin"
    write_segment_file(str(path), seg.lo, seg.hi, seg.counts)
    lo, hi, counts = read_segment_file(str(path))
    assert (lo, hi) == (seg.lo, seg.hi)
    assert np.array_equal(counts, seg.counts)


def test_segment_cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("OMEGALAB_CACHE", str(tmp_path))
    seg = sieve_segment(5000, 6000)
    files = os.listdir(tmp_path)
    assert len(files) == 1
    again = sieve_segment(5000, 6000)
    assert np.array_equal(seg.counts, again.counts)


@pytest.mark.parametrize(
    "damage",
    [
        lambda data: data[:-1],  # truncated counts
        lambda data: data[:10],  # truncated header
        lambda data: b"XXXX" + data[4:],  # bad magic
        lambda data: data[:4] + struct.pack("<QQ", 4000, 5000) + data[20:],  # other range
    ],
)
def test_segment_cache_damaged_file_is_a_miss(tmp_path, monkeypatch, damage):
    monkeypatch.setenv("OMEGALAB_CACHE", str(tmp_path))
    fresh = sieve_segment(5000, 6000).counts.copy()
    (path,) = tmp_path.iterdir()
    path.write_bytes(damage(path.read_bytes()))
    assert np.array_equal(sieve_segment(5000, 6000).counts, fresh)
    assert read_segment_file(str(path))[:2] == (5000, 6000)  # rewritten whole
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temporary left


def test_segment_spans_rejects_nonpositive_length():
    assert segment_spans(10) == [(1, 11)]
    assert segment_spans(10, 4) == [(1, 5), (5, 9), (9, 11)]
    for bad in (0, -5):
        with pytest.raises(InvalidRangeError):
            segment_spans(10, bad)
        with pytest.raises(InvalidRangeError):
            omega_profile(10, segment_length=bad)


def test_factor_count_segment_accessor():
    seg = FactorCountSegment(lo=10, hi=20, counts=sieve_segment(10, 20).counts)
    assert seg.omega(12) == 3
    with pytest.raises(InvalidRangeError):
        seg.omega(20)


def test_profile_worker_counts_agree_at_1e6(profile_1e6):
    for workers in (1, 3):
        prof = omega_profile(10**6, workers=workers)
        assert np.array_equal(prof.pik, profile_1e6.pik)
        assert prof.inv_weights.tobytes() == profile_1e6.inv_weights.tobytes()


def test_profile_checks_partition_identity(monkeypatch):
    from omegalab import sieve

    def lossy_chunk(span):
        pik, inv = _profile_chunk(span)
        pik[1] -= 1
        return pik, inv

    monkeypatch.setattr(sieve, "_profile_chunk", lossy_chunk)
    with pytest.raises(InvalidRangeError):
        omega_profile(1000)
