"""Test oracles that share no stepping logic with the sieve."""

import math

import numpy as np

from omegalab.sieve import base_primes


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
