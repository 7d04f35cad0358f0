"""Test oracles that share no stepping logic with the sieve."""

import math

import numpy as np

from omegalab.sieve import base_primes, segment_spans, sieve_segment
from omegalab.weights import GaussianWindowSpec, gaussian_weights


def bulk_omega_oracle(lo: int, hi: int) -> np.ndarray:
    """Omega(n) for lo <= n < hi by vectorized trial division."""
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


def hardy_ramanujan_tail_oracle(N: int, C: float) -> float:
    """hardy_ramanujan_tail by testing every n in [3, N] against the band, per span."""
    sd_n = math.sqrt(math.log(math.log(N)))
    tail = 0
    for lo, hi in segment_spans(N):
        counts = sieve_segment(lo, hi).counts
        ns = np.arange(lo, hi, dtype=np.float64)
        mask = ns >= 3  # log log n undefined/negative below 3
        loglog = np.zeros_like(ns)
        loglog[mask] = np.log(np.log(ns[mask]))
        dev = np.abs(counts.astype(np.float64) - loglog)
        tail += int(np.count_nonzero(mask & (dev > C * sd_n)))
    return tail / N


def block_scan_oracle(blocks, n: int) -> int:
    """a(n) for sorted, disjoint inclusive blocks, by a linear scan."""
    for lo, hi in blocks:
        if lo <= n <= hi:
            return 1
        if n < lo:
            return 0
    return 0


def extrapolated_average_oracle(a, window: GaussianWindowSpec) -> complex:
    """sum_k w_k a(k) with Gaussian weights, calling a once per k."""
    wv = gaussian_weights(window)
    values = [complex(a(int(k))) for k in window.ks()]
    re = math.fsum(w * v.real for w, v in zip(wv.weights, values))
    im = math.fsum(w * v.imag for w, v in zip(wv.weights, values))
    return complex(re, im)


def tn_operator_oracle(indicator, window: GaussianWindowSpec) -> float:
    """sum_k w_k indicator(k) with Gaussian weights, calling indicator once per k."""
    wv = gaussian_weights(window)
    return float(
        math.fsum(
            w * (1.0 if indicator(int(k)) else 0.0)
            for k, w in zip(window.ks(), wv.weights)
        )
    )


def oscillation_profile_oracle(blocks, checkpoints, C: float = 3.0) -> list:
    """(log log N, value) at each checkpoint's peak and trough, per-k scan."""
    rows = []
    for cp in checkpoints:
        for loglogn in (cp.loglogn_peak, cp.loglogn_trough):
            window = GaussianWindowSpec(loglogn=loglogn, C=C)
            value = extrapolated_average_oracle(lambda k: block_scan_oracle(blocks, k), window)
            rows.append((loglogn, value.real))
    return sorted(rows)
