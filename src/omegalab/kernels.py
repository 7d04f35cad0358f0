"""The Omega(n) sieve kernel over the odd n: pre-sieved, cache-blocked numpy passes.

This is the segmented Omega/Liouville sieve of Borwein, Ferguson and
Mossinghoff ("Sign changes in sums of the Liouville function", Math. Comp.
77 (2008)), with both per-integer quantities it needs packed into a single
uint16 accumulator (a 6-bit small-prime count below a 10-bit log field of
LOG_SCALE = 30 units per bit of log2) so that each prime power costs one
strided pass.

The kernel holds the odd n only, a wheel of 2 (Pritchard, "Explaining the
wheel sieve", Acta Inf. 17 (1982)): word i of a span [lo, hi) stands for
the odd number (lo | 1) + 2 i.  Omega is completely additive, so
Omega(2**a m) = a + Omega(m) gives every even n from an odd one, and the
prime 2 makes no pass.  The odd multiples of an odd q are q apart in this
index space.

Two steps from segmented prime sieves (Oliveira e Silva's, and Walisch's
primesieve) cut the memory traffic of those passes:

- Pre-sieving.  The prime powers 3, 9, 5, 7 and 11 hit the odd n with
  period PATTERN_PERIOD = 9*5*7*11 = 3465 in odd indices (2 * 3465 in n).
  Their summed steps are built once into a pattern, and a segment starts
  as a rotated copy of it instead of zeros; the strided passes for 3, 5, 7
  and 11 then start at 27, 25, 49 and 121.
- Cache blocking.  The remaining prime powers below BLOCKED_BELOW run over
  sub-blocks of SUB_BLOCK words (1 MB of uint16, which stays in a 2 MiB
  L2) instead of streaming the whole segment once per power.  Powers from
  BLOCKED_BELOW up make at most SUB_BLOCK / BLOCKED_BELOW = 512 hits per
  sub-block, too few to pay for a numpy call per sub-block, so they run
  over the whole segment.

Neither step changes a word of the accumulator (see _accumulate).
"""

import math
from functools import lru_cache

import numpy as np

# acc = (scaled log2 of the smooth part << COUNT_BITS) | small-prime count:
# a 6-bit count below a 10-bit log field (omega_segment proves both fit)
WORD = np.uint16
COUNT_BITS = 6
COUNT_MASK = (1 << COUNT_BITS) - 1
LOG_SCALE = 30  # units per bit of log2

PATTERN_POWERS = {3: 9, 5: 5, 7: 7, 11: 11}  # prime: largest power in the pattern
PATTERN_PERIOD = math.prod(PATTERN_POWERS.values())  # 3465 odd indices
PATTERN_MIN_HI = max(PATTERN_POWERS) ** 2 + 1  # from here every pattern prime has p*p < hi
SUB_BLOCK = 1 << 19
BLOCKED_BELOW = 1024


def active_backend() -> str:
    """Name of the kernel implementation; there is only the numpy one."""
    return "numpy"


def _step(p: int) -> np.uint16:
    """The packed word one hit of a power of p adds."""
    return WORD((round(LOG_SCALE * math.log2(p)) << COUNT_BITS) | 1)


@lru_cache(maxsize=1)
def _pattern() -> np.ndarray:
    """pattern[j]: the summed steps of the pattern powers dividing 2 j + 1 (read-only)."""
    pattern = np.zeros(PATTERN_PERIOD, dtype=WORD)
    for p, top in PATTERN_POWERS.items():
        q = p
        while q <= top:
            pattern[q // 2 :: q] += _step(p)  # 2 j + 1 = q (2 t + 1): j = q // 2 + q t
            q *= p
    pattern.flags.writeable = False
    return pattern


def _presieved(lo: int, n: int) -> np.ndarray:
    """acc[i] = pattern[(lo // 2 + i) % PATTERN_PERIOD] for 0 <= i < n."""
    acc = np.empty(n, dtype=WORD)
    pattern = _pattern()
    start = lo // 2 % PATTERN_PERIOD  # (lo | 1) = 2 (lo // 2) + 1
    rotated = np.concatenate((pattern[start:], pattern[:start]))
    filled = min(n, PATTERN_PERIOD)
    acc[:filled] = rotated[:filled]
    while filled < n:  # filled is a multiple of the period: copy the prefix
        more = min(filled, n - filled)
        acc[filled : filled + more] = acc[:more]
        filled += more
    return acc


def _accumulate(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """The packed words acc[i] for the odd n = (lo | 1) + 2 i in [lo, hi),
    given every prime p with p*p < hi.

    acc[i] is the sum, over every odd prime p with p*p < hi and every
    power q = p**j <= hi - 1 dividing n, of ``_step(p)``: the constant
    ``(round(LOG_SCALE * log2 p) << COUNT_BITS) | 1``.  See omega_segment
    for what the two fields of a word mean.  The odd n with
    n = q (2 t + 1) sit at i = (q // 2 - lo // 2) mod q, then every q-th.

    Every word is the same uint16 sum whether or not the segment is
    pre-sieved or blocked: the pattern holds exactly the steps of the
    pattern powers dividing n, and those powers are then left out of the
    strided passes; blocking only reorders the additions to a word.
    Integer addition is exact and the sum never overflows (omega_segment),
    so the order cannot change a bit.  The pattern is used only when
    hi >= PATTERN_MIN_HI: only there does the sum above include every
    pattern power (11 is a term only when 11 * 11 < hi).  Below that the
    segment starts from zeros and no power is skipped.
    """
    n = hi // 2 - lo // 2  # odd numbers in [lo, hi)
    if hi >= PATTERN_MIN_HI:
        acc = _presieved(lo, n)
        skip = PATTERN_POWERS
    else:
        acc = np.zeros(n, dtype=WORD)
        skip = {}
    j0 = lo // 2
    blocked = []
    for p in primes:
        p = int(p)
        if p * p >= hi:
            break
        if p == 2:  # divides no odd n
            continue
        step = _step(p)
        q = p
        while q <= skip.get(p, 0):
            q *= p
        while q < hi:
            first = (q // 2 - j0) % q
            if q < BLOCKED_BELOW:
                blocked.append((q, first, step))
            else:
                acc[first::q] += step
            q *= p
    for b in range(0, n, SUB_BLOCK):
        block = acc[b : b + SUB_BLOCK]  # a view: the passes write into acc
        for q, first, step in blocked:
            block[(first - b) % q :: q] += step
    return acc


def omega_segment(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Omega(n) for the odd n in [lo, hi) as uint8, given every prime p with p*p < hi.

    counts[i] = Omega((lo | 1) + 2 i), for hi // 2 - lo // 2 odd n.  Each
    hit of an odd prime power q = p**j on n adds the constant
    ``(round(LOG_SCALE * log2 p) << COUNT_BITS) | 1`` to ``acc[i]``
    (_accumulate).  After all odd primes with p*p < hi, the low COUNT_BITS
    bits hold the number h of small prime factors of n with multiplicity,
    and the high bits hold LOG_SCALE * log2 f up to rounding, where f is the
    smooth part of n (the product of the small prime powers found).  Each
    hit rounds by at most 1/2 unit, so the field is within h/2 units of
    LOG_SCALE * log2 f, and h <= Omega(n) <= log3 n for odd n.

    No overflow.  For odd n <= HARD_LIMIT = 10**10, h <= 20 < 2**6, so the
    count never carries into the log field, and the field is at most
    30 * log2(10**10) + 20/2 <= 1007 < 2**10: the whole word stays below
    2**16.  Every partial sum of a word's steps is below its full sum, so
    no order of the additions overflows either.

    Exactness.  Every prime p with p*p < hi is sieved (2 divides no odd n),
    so the cofactor n/f has only prime factors q with q*q >= hi > n; two of
    them would exceed n, so the cofactor is 1 or a single prime
    q > sqrt(n).  Either f = n (add nothing), or f = n/q < sqrt(n) (add
    one).  In log units, with h/2 <= 10:

    - no cofactor:  field >= LOG_SCALE * log2 n - 10;
    - one cofactor: field <  LOG_SCALE * log2 n / 2 + 10.

    On [m, hi) with m = max(lo, 4*isqrt(hi) + 4) > 4*sqrt(hi), the
    segment-wide threshold T = LOG_SCALE * (log2 m + log2(hi)/2) / 2 lies
    LOG_SCALE * log2(m / sqrt(hi)) / 2 > 15 * log2 4 = 30 units from both
    cases' bounds (log2 n >= log2 m and log2 n < log2 hi), above the
    10-unit rounding plus the 1 unit that t = int(T) truncates: a word
    with no cofactor has field > T + 30 - 10 > t, and one with a cofactor
    field < T - 30 + 10 < t.  On the prefix [lo, m), which only a segment
    starting below 4*sqrt(hi) + 4 has, the per-element threshold
    LOG_SCALE * 0.75 * log2 n = 22.5 * log2 n is 7.5 * log2 n units from
    both bounds before rounding, and h/2 <= log2(n)/2 leaves a gap of
    7 * log2 n >= 7 units for n >= 2; n = 1 has field 0 = threshold and
    gets nothing.  The comparison is strict: a cofactor is counted iff
    field < threshold.
    """
    acc = _accumulate(lo, hi, primes)
    m = min(max(lo, 4 * math.isqrt(hi) + 4), hi)
    counts = acc.astype(np.uint8)  # keeps the low 8 bits
    counts &= COUNT_MASK
    k = m // 2 - lo // 2  # odd n below m
    if k:
        ns = np.arange(lo | 1, m, 2, dtype=np.float64)
        field = (acc[:k] >> COUNT_BITS).astype(np.float64)
        counts[:k] += field < (0.75 * LOG_SCALE) * np.log2(ns)
    if k < len(counts):
        t = int(LOG_SCALE * (math.log2(m) + 0.5 * math.log2(hi)) / 2)
        # acc < t << COUNT_BITS iff field < t, as the count is < 2**COUNT_BITS
        threshold = WORD(t << COUNT_BITS)
        for b in range(k, len(counts), SUB_BLOCK):
            counts[b : b + SUB_BLOCK] += acc[b : b + SUB_BLOCK] < threshold
    return counts
