"""Coupled prime / 2-almost-prime set construction and its diagnostics.

The coupling of a set B is the double logarithmic average of
gcd(m, n) - 1 over B x B; sets with small coupling consist of typically
coprime pairs.  construct_pair builds matched sets B1 (primes) and
B2 (2-almost primes) with equal cardinality in every rho-adic interval,
extending the interval scan until both couplings reach the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averages import AverageScheme, EKNormalizer, RealTestFunction, _adjusted_pik
from .errors import (
    EmptySetError,
    InvalidPError,
    InvalidRangeError,
    SearchExhaustedError,
)
from .sieve import OmegaProfile, _resolve_profile, base_primes, omega_oracle

MAX_SET_SIZE = 50_000  # keeps the quadratic coupling pass under a minute


def phi(m: int, n: int) -> int:
    """Coupling kernel gcd(m, n) - 1; zero exactly for coprime pairs."""
    if m < 1 or n < 1:
        raise InvalidRangeError("phi needs positive integers")
    return math.gcd(m, n) - 1


def coupling(B) -> float:
    """Double logarithmic average of phi over B x B, by the direct O(|B|^2) sum."""
    elems = sorted(set(B))
    if not elems:
        raise EmptySetError("coupling of an empty set")
    harmonic = math.fsum(1.0 / m for m in elems)
    terms = []
    for i, m in enumerate(elems):
        terms.append((m - 1) / (m * m))  # diagonal
        for n in elems[i + 1 :]:
            g = math.gcd(m, n)
            if g > 1:
                terms.append(2.0 * (g - 1) / (m * n))
    return math.fsum(terms) / (harmonic * harmonic)


def coupling_grouped(B) -> float:
    """Same value via the divisor-grouped rewrite.

    gcd(m, n) - 1 = sum over divisors d > 1 of both, of totient(d), so the
    double sum regroups as sum_d totient(d) (sum_{d | m in B} 1/m)^2.
    Independent computation path used to cross-check `coupling`.
    """
    elems = sorted(set(B))
    if not elems:
        raise EmptySetError("coupling of an empty set")
    harmonic = math.fsum(1.0 / m for m in elems)
    mass_by_divisor: dict[int, list[float]] = {}
    for m in elems:
        for d in _divisors(m):
            if d > 1:
                mass_by_divisor.setdefault(d, []).append(1.0 / m)
    total = math.fsum(
        _totient(d) * math.fsum(masses) ** 2
        for d, masses in mass_by_divisor.items()
    )
    return total / (harmonic * harmonic)


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def _totient(n: int) -> int:
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


@dataclass(frozen=True)
class PrimeSetPair:
    """Matched sets B1 (primes) and B2 (2-almost primes) with equal
    cardinality in every rho-adic interval (rho^j, rho^{j+1}]."""

    b1: tuple
    b2: tuple
    rho: float
    epsilon: float

    def __post_init__(self):
        if not self.b1 or not self.b2:
            raise EmptySetError("pair sets must be non-empty")
        if not 0 < self.epsilon < 1:
            raise InvalidRangeError("epsilon must lie in (0, 1)")
        if not 1 < self.rho <= 1 + self.epsilon:
            raise InvalidRangeError("rho must lie in (1, 1 + epsilon]")
        for p in self.b1:
            if omega_oracle(p) != 1:
                raise InvalidRangeError(f"{p} in B1 is not prime")
        for m in self.b2:
            if omega_oracle(m) != 2:
                raise InvalidRangeError(f"{m} in B2 is not a 2-almost prime")
        by_interval_1 = _interval_counts(self.b1, self.rho)
        by_interval_2 = _interval_counts(self.b2, self.rho)
        if by_interval_1 != by_interval_2:
            raise InvalidRangeError("rho-adic interval cardinalities differ")


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


def _interval_counts(elems, rho: float) -> dict[int, int]:
    counts: dict[int, int] = {}
    for m in elems:
        j = rho_index(m, rho)
        counts[j] = counts.get(j, 0) + 1
    return counts


@dataclass(frozen=True)
class CouplingReport:
    set_id: str
    value: float
    epsilon_target: float


class _IncrementalCoupling:
    """Coupling of a growing set, updated in O(number of prime factors).

    Uses the divisor-grouped form; elements must arrive with their prime
    factorization (1 or 2 prime factors here).
    """

    def __init__(self):
        self.harmonic = 0.0
        self.prime_mass: dict[int, float] = {}
        self.prime_part = 0.0  # sum_p (p-1) T_p^2
        self.self_part = 0.0  # sum_m totient(m) / m^2 for composite divisors

    def add(self, m: int, factors: tuple) -> None:
        inv = 1.0 / m
        self.harmonic += inv
        for p in set(factors):
            t_old = self.prime_mass.get(p, 0.0)
            t_new = t_old + inv
            self.prime_mass[p] = t_new
            self.prime_part += (p - 1) * (t_new * t_new - t_old * t_old)
        if len(factors) == 2:  # divisor d = m itself contributes totient(m)/m^2
            p, q = factors
            tot = (p - 1) * (q - 1) if p != q else p * p - p
            self.self_part += tot * inv * inv

    def value(self) -> float:
        if self.harmonic == 0.0:
            raise EmptySetError("coupling of an empty set")
        return (self.prime_part + self.self_part) / (self.harmonic * self.harmonic)


def _almost_primes_2(limit: int) -> np.ndarray:
    """All (m, p, q) with m = p*q <= limit, p <= q prime; sorted by m."""
    primes = base_primes(limit // 2)
    rows = []
    for p in primes:
        p = int(p)
        if p * p > limit:
            break
        hi = np.searchsorted(primes, limit // p, side="right")
        lo = np.searchsorted(primes, p, side="left")
        qs = primes[lo:hi]
        if len(qs):
            rows.append(np.stack([p * qs, np.full(len(qs), p, dtype=np.int64), qs]))
    if not rows:
        return np.empty((0, 3), dtype=np.int64)
    table = np.concatenate(rows, axis=1).T
    return table[np.argsort(table[:, 0], kind="stable")]


def construct_pair(
    epsilon: float,
    rho: float,
    search_limit: int,
    *,
    max_set_size: int = MAX_SET_SIZE,
) -> PrimeSetPair:
    """Scan rho-adic intervals ascending, matching primes with 2-almost primes.

    Within each interval the ascending-smallest min(#primes, #2-almost)
    elements of each side are kept; the scan stops once both couplings are
    at or below epsilon.  Raises SearchExhaustedError (carrying the best
    pair and its couplings) if the limit or the set-size cap is reached
    first.
    """
    if not 0 < epsilon < 1:
        raise InvalidRangeError("epsilon must lie in (0, 1)")
    if not 1 < rho <= 1 + epsilon:
        raise InvalidRangeError("rho must lie in (1, 1 + epsilon]")
    primes = base_primes(search_limit)
    almost = _almost_primes_2(search_limit)
    b1: list[int] = []
    b2: list[int] = []
    c1 = _IncrementalCoupling()
    c2 = _IncrementalCoupling()
    j_max = rho_index(search_limit, rho)
    i1 = i2 = 0
    for j in range(j_max + 1):
        hi_bound = rho ** (j + 1)
        n1 = i1
        while n1 < len(primes) and primes[n1] <= hi_bound:
            n1 += 1
        n2 = i2
        while n2 < len(almost) and almost[n2, 0] <= hi_bound:
            n2 += 1
        take = min(n1 - i1, n2 - i2)
        if len(b1) + take > max_set_size:
            take = max_set_size - len(b1)
        for t in range(take):
            p = int(primes[i1 + t])
            b1.append(p)
            c1.add(p, (p,))
            m, fp, fq = (int(v) for v in almost[i2 + t])
            b2.append(m)
            c2.add(m, (fp, fq))
        i1, i2 = n1, n2
        if b1 and c1.value() <= epsilon and c2.value() <= epsilon:
            return PrimeSetPair(tuple(b1), tuple(b2), rho, epsilon)
        if len(b1) >= max_set_size:
            break
    best = PrimeSetPair(tuple(b1), tuple(b2), rho, epsilon) if b1 else None
    achieved = (c1.value(), c2.value()) if b1 else None
    raise SearchExhaustedError(
        f"coupling target {epsilon} not reached by limit {search_limit}: "
        f"best achieved {achieved}",
        best_pair=best,
        couplings=achieved,
    )


def tk_discrepancy(B, N: int, scheme: AverageScheme = AverageScheme.CESARO) -> float:
    """Scheme-average over n <= N of |E^log_{m in B} (1 - m 1_{m|n})|.

    The inner average collapses to |1 - D_B(n)/H| where D_B(n) counts the
    elements of B dividing n and H is the harmonic sum of B.
    """
    elems = sorted(set(B))
    if not elems:
        raise EmptySetError("tk_discrepancy of an empty set")
    if N < 1:
        raise InvalidRangeError("N must be >= 1")
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


def invariance_gap(
    F: RealTestFunction,
    a,
    N: int,
    *,
    profile: OmegaProfile | None = None,
) -> float:
    """|E_[N] F(phi(n)) a(Omega(n)) - E_[N] F(phi(n)) a(Omega(n)+1)|."""
    norm = EKNormalizer(N)
    pik = _adjusted_pik(_resolve_profile(N, profile))
    fvals = np.array([F(norm.normalize(k)) for k in range(len(pik))])
    a0 = np.array([complex(a(k)) for k in range(len(pik))])
    a1 = np.array([complex(a(k + 1)) for k in range(len(pik))])
    diff = math.fsum(pik * fvals * (a0.real - a1.real)), math.fsum(
        pik * fvals * (a0.imag - a1.imag)
    )
    return abs(complex(*diff)) / N


@dataclass(frozen=True)
class DilationSensitivity:
    phi_shift: float
    omega_shift: int


def dilation_sensitivity(p: int, N) -> DilationSensitivity:
    """Contrast of prime dilation: phi moves by 1/sqrt(log log N), Omega by 1.

    Omega(pn) = Omega(n) + 1 by complete additivity, so the max shift of
    the normalized value over n <= N/p is exactly 1/sqrt(log log N).
    """
    if p < 2 or omega_oracle(p) != 1:
        raise InvalidPError(f"{p} is not prime")
    loglog = math.log(math.log(N))
    if loglog <= 0:
        raise InvalidRangeError("need log log N > 0")
    return DilationSensitivity(phi_shift=1.0 / math.sqrt(loglog), omega_shift=1)
