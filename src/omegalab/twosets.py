"""Coupled prime / 2-almost-prime set construction and its diagnostics.

The coupling of a set B is the double logarithmic average of
gcd(m, n) - 1 over B x B; sets with small coupling consist of typically
coprime pairs.  construct_pair builds matched sets B1 (primes) and
B2 (2-almost primes) with equal cardinality in every rho-adic interval,
extending the interval scan until both couplings reach the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .averages import AverageScheme, RealTestFunction, _dot, _ek_weights, _values
from .errors import InvalidRangeError, RangeTooLargeError, SearchExhaustedError
from .sieve import (
    OmegaProfile,
    _check_limit,
    _prime_segments,
    base_primes,
    segment_spans,
    sieve_segment,
)

MAX_SET_SIZE = 50_000  # caps |B1| = |B2|, and so the search's time and output
MAX_RHO_INTERVALS = 10**5  # caps the rho-adic intervals of a search or a validation
MAX_SEARCH_LIMIT = 10**9  # caps the time of the floor's pass over the primes <= the limit
MAX_TK_N = 10**7  # tk_discrepancy peaks at 20 B (Cesaro), 28 B (log) per n: 280 MB (tracemalloc)
_FIRST_TABLE_LIMIT = 2**20  # the search's prime table starts here and doubles
ROW_SEGMENT = 2**17  # the m of the search's 2-almost primes built at once


@dataclass(frozen=True)
class PrimeSetPair:
    """Matched sets B1 (primes) and B2 (2-almost primes) with equal
    cardinality in every rho-adic interval (rho^j, rho^{j+1}]."""

    b1: tuple
    b2: tuple
    rho: float
    epsilon: float
    couplings: tuple | None = field(default=None, compare=False)  # from construct_pair

    def __post_init__(self):
        if not self.b1 or not self.b2:
            raise InvalidRangeError("pair sets must be non-empty")
        if not 0 < self.epsilon < 1:
            raise InvalidRangeError("epsilon must lie in (0, 1)")
        if not 1 < self.rho <= 1 + self.epsilon:
            raise InvalidRangeError("rho must lie in (1, 1 + epsilon]")
        for elems, k, what in ((self.b1, 1, "in B1 is not prime"),
                               (self.b2, 2, "in B2 is not a 2-almost prime")):
            bad = np.flatnonzero(_omega_of(elems) != k)
            if len(bad):
                raise InvalidRangeError(f"{elems[bad[0]]} {what}")
        by_interval_1 = _interval_counts(self.b1, self.rho)
        by_interval_2 = _interval_counts(self.b2, self.rho)
        if by_interval_1 != by_interval_2:
            raise InvalidRangeError("rho-adic interval cardinalities differ")


def _omega_of(elems) -> np.ndarray:
    """Omega(m) for each m in elems, from sieve_segment.

    Each segment span that holds elements is sieved from its smallest to its
    largest element, so memory stays within one segment."""
    if min(elems) < 1:
        raise InvalidRangeError("n must be >= 1")
    _check_limit(max(elems) + 1)
    values, where = np.unique(np.asarray(elems, dtype=np.int64), return_inverse=True)
    omega = np.empty(len(values), dtype=np.uint8)
    for lo, hi in segment_spans(int(values[-1])):
        a, b = np.searchsorted(values, [lo, hi]).tolist()
        if a < b:
            first, last = int(values[a]), int(values[b - 1])
            counts = sieve_segment(first, last + 1)
            omega[a:b] = counts[values[a:b] - first]
    return omega[where]


def rho_index(m: int, rho: float) -> int:
    """Index j with rho^j < m <= rho^{j+1}, resolved by exact comparison."""
    if m < 1:
        raise InvalidRangeError("rho-adic index needs m >= 1")
    j = max(0, int(math.log(m) / math.log(rho)) - 2)
    while rho ** (j + 1) < m:
        j += 1
    while j > 0 and rho**j >= m:
        j -= 1
    return j


def _rho_bounds(rho: float, j_max: int) -> np.ndarray:
    """rho^(j+1) for j = 0..j_max as rho_index computes it; exact against m < 2**53.

    Raises RangeTooLargeError, before allocating, for more than
    MAX_RHO_INTERVALS intervals (rho too close to 1).
    """
    if j_max + 1 > MAX_RHO_INTERVALS:
        raise RangeTooLargeError(
            f"rho {rho!r} needs {j_max + 1} rho-adic intervals, "
            f"over the cap of {MAX_RHO_INTERVALS}; use a larger rho"
        )
    return np.array([rho ** (j + 1) for j in range(j_max + 1)])


def _interval_counts(elems, rho: float) -> dict[int, int]:
    """Number of elements per rho-adic index j, as rho_index assigns them."""
    bounds = _rho_bounds(rho, rho_index(max(elems, default=1), rho))
    js = np.searchsorted(bounds, np.asarray(elems, dtype=np.int64), side="left")
    return dict(zip(*(a.tolist() for a in np.unique(js, return_counts=True))))


class _BatchCoupling:
    """Coupling of a growing set, from sums that batches of elements extend.

    Uses the divisor-grouped form: the coupling is
    (sum_p (p - 1) T_p^2 + sum_{m in B composite} totient(m) / m^2) / H^2,
    where T_p sums 1/m over the m in B that p divides and H over all of B.
    Each batch does the float operations of adding its elements one at a
    time, in order, so the sums do not depend on how elements are batched.
    """

    def __init__(self):
        self.harmonic = 0.0
        self.prime_mass: dict[int, float] = {}  # T_p, kept by add_semiprimes
        self.prime_part = 0.0  # sum_p (p-1) T_p^2
        self.self_part = 0.0  # sum_m totient(m) / m^2 for composite divisors

    def add_primes(self, primes: np.ndarray) -> None:
        """Add ascending primes to a set of primes none of them is in.

        Each p enters with T_p going from 0.0 to 1/p, so its term is
        (p - 1) (1/p)^2; a seeded add.accumulate sums inv and the terms in
        order, as a loop of += would.
        """
        inv = 1.0 / primes
        terms = (primes - 1) * (inv * inv)
        self.harmonic = float(np.add.accumulate(np.concatenate(([self.harmonic], inv)))[-1])
        self.prime_part = float(np.add.accumulate(np.concatenate(([self.prime_part], terms)))[-1])

    def add_semiprimes(self, rows: np.ndarray) -> None:
        """Add 2-almost primes m = p q, given as rows (m, p, q), in order."""
        harmonic, part, self_part = self.harmonic, self.prime_part, self.self_part
        mass = self.prime_mass
        get = mass.get
        for m, p, q in rows.tolist():
            inv = 1.0 / m
            harmonic += inv
            for f in {p, q}:  # a set's order, so that part adds its terms in that order
                t_old = get(f, 0.0)
                t_new = t_old + inv
                mass[f] = t_new
                part += (f - 1) * (t_new * t_new - t_old * t_old)
            # the divisor d = m itself contributes totient(m)/m^2
            tot = (p - 1) * (q - 1) if p != q else p * p - p
            self_part += tot * inv * inv
        self.harmonic, self.prime_part, self.self_part = harmonic, part, self_part

    def value(self) -> float:
        if self.harmonic == 0.0:
            raise InvalidRangeError("coupling of an empty set")
        return (self.prime_part + self.self_part) / (self.harmonic * self.harmonic)


def _almost_primes_2(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """All (m, p, q) with lo < m = p*q <= hi, p <= q prime; sorted by m.

    primes holds every prime <= hi // 2 in ascending order from 2 (base_primes
    of hi // 2 or of any larger limit).  The q of each p run from the first
    prime >= p and > lo // p (so that p*q > lo) to the last <= hi // p.
    """
    small = primes[: np.searchsorted(primes, math.isqrt(hi), side="right")]
    starts = np.maximum(np.arange(len(small)), np.searchsorted(primes, lo // small, side="right"))
    lengths = np.maximum(np.searchsorted(primes, hi // small, side="right") - starts, 0)
    ps = np.repeat(small, lengths)
    shift = np.cumsum(lengths) - lengths - starts  # first row of each p, less its start
    qs = primes[np.arange(len(ps)) - np.repeat(shift, lengths)]
    ms = ps * qs
    order = np.argsort(ms)  # the m are distinct (unique factorisation): no ties to keep
    return np.stack((ms[order], ps[order], qs[order]), axis=1)


def _prime_harmonic_sums(limit: int) -> tuple[float, float]:
    """(sum of 1/p over the primes p <= limit, sum of 1/m over the 2-almost primes m <= limit).

    The second is sum_{p <= sqrt(limit)} (1/p) (S(limit // p) - S(p - 1)),
    where S(x) sums 1/q over the primes q <= x.  Both are read off one pass
    over _prime_segments: S at each cut is the running sum of the segments
    before it plus a prefix of its own, so memory stays within one segment.
    Each segment's running sums are written into one reused buffer, in the
    order a new array would get them, so the bits do not change.
    """
    small = base_primes(math.isqrt(limit))
    cuts = np.concatenate((small - 1, limit // small))
    order = np.argsort(cuts)
    ascending = cuts[order]
    at = np.empty(len(cuts))  # S(cuts[i])
    total = 0.0
    done = 0  # the ascending cuts read so far
    buffer = np.empty(0)
    for chunk in _prime_segments(limit):
        if len(buffer) <= len(chunk):
            buffer = np.empty(len(chunk) + 1)
        sums = buffer[: len(chunk) + 1]  # S before each prime, then after the last
        sums[0] = total
        np.divide(1.0, chunk, out=sums[1:])
        np.add.accumulate(sums, out=sums)
        stop = int(np.searchsorted(ascending, chunk[-1]))
        at[order[done:stop]] = sums[np.searchsorted(chunk, ascending[done:stop], side="right")]
        total, done = float(sums[-1]), stop
    at[order[done:]] = total
    below, quotient = at[: len(small)], at[len(small) :]
    return total, math.fsum(((quotient - below) / small).tolist())


def _scan(epsilon: float, rho: float, search_limit: int):
    """construct_pair's scan: whether it reached epsilon, B1 and B2 as lists
    of int64 chunks, their couplings (None if no element was taken) and their
    harmonic sums.  It stops at the first take that brings both couplings to
    epsilon.

    The intervals are scanned a segment of m at a time.  A segment starts
    at the bound of the last interval scanned and holds the intervals that
    end within ROW_SEGMENT of it, or the next interval alone when that is
    wider; only its own 2-almost primes are built.  The primes cover
    [1, 2**20] and double, up to search_limit, only when an interval ends
    past them.

    The intervals of a segment are scanned as a batch: searchsorted gives
    every interval's end on both sides, and a cumulative sum capped at
    MAX_SET_SIZE every interval's take.  Only the intervals that take
    elements run Python code; each hands its elements to the couplings in
    one call.
    """
    # m <= bound exactly when m <= floor(bound), for m < 2**53; the last
    # interval is cut at search_limit
    ends = np.floor(_rho_bounds(rho, rho_index(search_limit, rho)))
    ends = np.minimum(ends, search_limit).astype(np.int64)
    table_limit = 0  # the first interval sieves the primes <= min(2**20, search_limit)
    b1: list[np.ndarray] = []
    b2: list[np.ndarray] = []
    size = 0  # |B1| = |B2| before interval j
    c1 = _BatchCoupling()
    c2 = _BatchCoupling()
    j = i1 = lo = 0  # the first interval not scanned, the primes before it, and its start
    while j < len(ends):
        while table_limit < ends[j]:
            table_limit = min(max(2 * table_limit, _FIRST_TABLE_LIMIT), search_limit)
            primes = base_primes(table_limit)
        hi = min(max(lo + ROW_SEGMENT, int(ends[j])), table_limit)
        stop = int(np.searchsorted(ends, hi, side="right"))  # intervals j .. stop - 1
        rows = _almost_primes_2(lo, int(ends[stop - 1]), primes)
        n1 = np.searchsorted(primes, ends[j:stop], side="right")
        n2 = np.searchsorted(rows[:, 0], ends[j:stop], side="right")
        start1 = np.concatenate(([i1], n1[:-1]))
        start2 = np.concatenate(([0], n2[:-1]))
        sizes = np.minimum(size + np.cumsum(np.minimum(n1 - start1, n2 - start2)),
                           MAX_SET_SIZE)
        takes = np.diff(sizes, prepend=size)
        capped = int(np.searchsorted(sizes, MAX_SET_SIZE))  # the interval that fills B1
        for k in np.flatnonzero(takes[: capped + 1] > 0).tolist():
            s1, s2, take = int(start1[k]), int(start2[k]), int(takes[k])
            ones, twos = primes[s1 : s1 + take], rows[s2 : s2 + take]
            b1.append(ones)
            b2.append(twos[:, 0].copy())  # a copy, so that no view keeps the rows
            c1.add_primes(ones)
            c2.add_semiprimes(twos)
            if c1.value() <= epsilon and c2.value() <= epsilon:
                return True, b1, b2, (c1.value(), c2.value()), (c1.harmonic, c2.harmonic)
        if capped < len(sizes):
            break
        j, i1, lo, size = stop, int(n1[-1]), int(ends[stop - 1]), int(sizes[-1])
    couplings = (c1.value(), c2.value()) if b1 else None
    return False, b1, b2, couplings, (c1.harmonic, c2.harmonic)


def _joined(chunks: list[np.ndarray]) -> tuple:
    """The chunks' elements, in order, as a tuple of ints."""
    return tuple(np.concatenate(chunks).tolist())


def construct_pair(epsilon: float, rho: float, search_limit: int) -> PrimeSetPair:
    """Scan rho-adic intervals ascending, matching primes with 2-almost primes.

    Within each interval the ascending-smallest min(#primes, #2-almost)
    elements of each side are kept; the scan stops once both couplings are
    at or below epsilon.  The pair carries the couplings, kept up to date
    as elements are added.  Raises SearchExhaustedError (carrying the best
    pair and its couplings, and reporting the floor 1/(2 sum 1/m) that no
    coupling goes below) if the limit or the set-size cap is reached first.

    The scan (_scan) holds a table of primes that doubles from 2**20 and
    the 2-almost primes of one segment of m.  Each holds every element of
    the intervals it serves, so the result is the one a scan element by
    element over whole tables would give.  The scan's arrays and couplings
    are released before the floor's pass, the only part that sieves to
    search_limit.
    """
    if not 0 < epsilon < 1:
        raise InvalidRangeError("epsilon must lie in (0, 1)")
    if not 1 < rho <= 1 + epsilon:
        raise InvalidRangeError("rho must lie in (1, 1 + epsilon]")
    if search_limit < 1:
        raise InvalidRangeError(f"search limit must be >= 1, got {search_limit}")
    if search_limit > MAX_SEARCH_LIMIT:  # before the floor's pass sieves to the limit
        raise RangeTooLargeError(
            f"search limit {search_limit} is over the cap of {MAX_SEARCH_LIMIT}"
        )
    reached, b1, b2, achieved, harmonics = _scan(epsilon, rho, search_limit)
    if reached:
        return PrimeSetPair(_joined(b1), _joined(b2), rho, epsilon, achieved)
    reason = f"best achieved {achieved}"
    if b1:  # the diagonal terms alone give coupling(B) >= 1/(2 sum_{m in B} 1/m)
        own = tuple(0.5 / h for h in harmonics)
        pool = tuple(0.5 / h for h in _prime_harmonic_sums(search_limit))
        reason += (f"; proven floor 1/(2 sum 1/m): ({own[0]:.3g}, {own[1]:.3g}) for these "
                   f"sets, ({pool[0]:.3g}, {pool[1]:.3g}) for any sets <= {search_limit}")
    raise SearchExhaustedError(
        f"coupling target {epsilon} not reached by limit {search_limit}: {reason}",
        best_pair=PrimeSetPair(_joined(b1), _joined(b2), rho, epsilon, achieved) if b1 else None,
        couplings=achieved,
    )


def tk_discrepancy(B, N: int, scheme: AverageScheme = AverageScheme.CESARO) -> float:
    """Scheme-average over n <= N of |E^log_{m in B} (1 - m 1_{m|n})|.

    The inner average collapses to |1 - D_B(n)/H| where D_B(n) counts the
    elements of B dividing n and H is the harmonic sum of B.
    """
    elems = sorted(set(B))
    if not elems:
        raise InvalidRangeError("tk_discrepancy of an empty set")
    if N < 1:
        raise InvalidRangeError("N must be >= 1")
    if N > MAX_TK_N:  # before the arrays of N + 1 entries
        raise RangeTooLargeError(f"tk_discrepancy N = {N} is over the cap of {MAX_TK_N}")
    harmonic = math.fsum(1.0 / m for m in elems)
    divisor_count = np.zeros(N + 1, dtype=np.int32)
    for m in elems:
        if m <= N:
            divisor_count[m::m] += 1
    inner = np.abs(1.0 - divisor_count[1:].astype(np.float64) / harmonic)
    if scheme is AverageScheme.CESARO:
        return float(math.fsum(inner)) / N
    inv = 1.0 / np.arange(1, N + 1, dtype=np.float64)
    return float(math.fsum(inner * inv)) / math.fsum(inv)


def invariance_gap(F: RealTestFunction, a, profile: OmegaProfile) -> float:
    """|E_[N] F(phi(n)) a(Omega(n)) - E_[N] F(phi(n)) a(Omega(n)+1)|."""
    weights = _ek_weights(F, profile)
    step = _values(a, profile.k_max) - _values(lambda k: a(k + 1), profile.k_max)
    return abs(_dot(weights, step)) / profile.N
