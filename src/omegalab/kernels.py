"""The Omega(n) sieve kernel: one numpy pass per prime power.

This is the segmented Omega/Liouville sieve of Borwein, Ferguson and
Mossinghoff ("Sign changes in sums of the Liouville function", Math. Comp.
77 (2008)), with both per-integer quantities it needs packed into a single
uint32 accumulator so that each prime power costs one strided pass.
"""

import math

import numpy as np

# acc = (scaled log2 of the smooth part << COUNT_BITS) | small-prime count
COUNT_BITS = 6
COUNT_MASK = (1 << COUNT_BITS) - 1
LOG_SCALE = 1 << 20  # units per bit of log2


def active_backend() -> str:
    """Name of the kernel implementation; there is only the numpy one."""
    return "numpy"


def omega_segment(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Omega(n) for lo <= n < hi as uint8, given every prime p with p*p < hi.

    Each hit of a prime power q = p**j on n adds the constant
    ``(round(LOG_SCALE * log2 p) << COUNT_BITS) | 1`` to ``acc[n - lo]``.
    After all primes with p*p < hi, the low COUNT_BITS bits hold the number
    of small prime factors of n with multiplicity, and the high bits hold
    LOG_SCALE * log2 f up to rounding, where f is the smooth part of n (the
    product of the small prime powers found).

    No overflow.  For n <= HARD_LIMIT = 10**10, Omega(n) <= 33 < 2**6, so
    the count never carries into the log field.  Each hit rounds by at most
    1/2 unit, so the log field is within 33/2 < 17 units of
    LOG_SCALE * log2 f <= 2**20 * log2(10**10) < 3.5e7 < 2**26, and the
    whole word stays below 2**32.

    Exactness.  Every prime p with p*p < hi is sieved, so the cofactor n/f
    has only prime factors q with q*q >= hi > n; two of them would exceed
    n, so the cofactor is 1 or a single prime q > sqrt(n).  Either f = n
    (add nothing), or f = n/q < sqrt(n) (add one).  In log units:

    - no cofactor:  field >= LOG_SCALE * log2 n - 17;
    - one cofactor: field <  LOG_SCALE * log2 n / 2 + 17.

    On [m, hi) with m = max(lo, 2*isqrt(hi) + 2) >= 2*sqrt(hi), the
    segment-wide threshold T = LOG_SCALE * (log2 m + log2(hi)/2) / 2 lies
    LOG_SCALE * log2(m / sqrt(hi)) / 2 >= 2**19 units from both cases'
    bounds, far above the 17-unit rounding error.  On the prefix
    [lo, m), which only a segment starting below 2*sqrt(hi) has, the
    per-element threshold LOG_SCALE * 0.75 * log2 n is LOG_SCALE *
    log2(n) / 4 >= 2**18 units from both bounds for n >= 2; n = 1 has
    field 0 = threshold and gets nothing.  The comparison is strict:
    a cofactor is counted iff field < threshold.
    """
    n = hi - lo
    acc = np.zeros(n, dtype=np.uint32)
    for p in primes:
        p = int(p)
        if p * p >= hi:
            break
        step = np.uint32((round(LOG_SCALE * math.log2(p)) << COUNT_BITS) | 1)
        q = p
        while True:
            acc[(-lo) % q :: q] += step
            if q > (hi - 1) // p:
                break
            q *= p
    m = min(max(lo, 2 * math.isqrt(hi) + 2), hi)
    counts = acc.astype(np.uint8)  # keeps the low 8 bits
    counts &= COUNT_MASK
    if m > lo:
        k = m - lo
        ns = np.arange(lo, m, dtype=np.float64)
        field = (acc[:k] >> COUNT_BITS).astype(np.float64)
        counts[:k] += field < (0.75 * LOG_SCALE) * np.log2(ns)
    if hi > m:
        t = int(LOG_SCALE * (math.log2(m) + 0.5 * math.log2(hi)) / 2)
        # acc < t << COUNT_BITS iff field < t, as the count is < 2**COUNT_BITS
        counts[m - lo :] += acc[m - lo :] < np.uint32(t << COUNT_BITS)
    return counts
