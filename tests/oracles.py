"""Test oracles that share no stepping logic with the code they check."""

import heapq
import math
from decimal import Decimal, localcontext

import numpy as np

from omegalab.averages import RealTestFunction
from omegalab.errors import InvalidRangeError
from omegalab.sieve import base_primes
from omegalab.twosets import _prime_harmonic_sums, rho_index
from omegalab.weights import GaussianWindowSpec, gaussian_weights


def eratosthenes(limit: int) -> np.ndarray:
    """Primes <= limit by the plain sieve of Eratosthenes over every integer."""
    flags = np.ones(max(limit + 1, 2), dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags[: limit + 1]).astype(np.int64)


def omega_oracle(n: int) -> int:
    """Omega(n) by naive trial division."""
    if n < 1:
        raise InvalidRangeError("n must be >= 1")
    count = 0
    for d in (2, 3):
        while n % d == 0:
            n //= d
            count += 1
    d = 5
    step = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += step
        step = 6 - step  # 5, 7, 11, 13, ... (6k +- 1)
    if n > 1:
        count += 1
    return count


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


def loglog_interval_count_by_exp(N: int, lo: float, hi: float, digits: int = 400) -> int:
    """Count of n in [3, N] with lo <= log log n <= hi, from e^{e^x} at `digits` digits.

    log log n >= x exactly when n >= e^{e^x}, so the n counted run from
    ceil(e^{e^lo}) to floor(e^{e^hi}).  Only exp is evaluated, never log,
    and the floor and ceiling are taken once, with no stepping.  A boundary
    within 10^(100 - digits) of an integer fails the assertion.
    """
    with localcontext() as ctx:
        ctx.prec = digits

        def boundary(x):  # e^{e^x}, or N + 1 for any that is past N
            inner = Decimal(x).exp()
            return Decimal(N + 1) if inner > Decimal(N + 1).ln() else inner.exp()

        a, b = boundary(lo), boundary(hi)
        for v in (a, b):
            assert v == N + 1 or abs(v - v.to_integral_value()) > Decimal(10) ** (100 - digits)
        return max(0, min(N, math.floor(b)) - max(3, math.ceil(a)) + 1)


def erfc_by_series(x: float, digits: int = 40) -> float:
    """erfc(x) = 1 - erf(x), with erf's Maclaurin series summed in Decimal.

    erf(x) = (2 / sqrt(pi)) sum_n (-1)^n x^(2n+1) / (n! (2n + 1)).  The
    terms and the difference 1 - erf cancel about 2 x^2 / ln 10 digits,
    which the working precision adds on top of `digits`.
    """
    with localcontext() as ctx:
        ctx.prec = digits + int(2 * x * x / math.log(10)) + 20
        eps = Decimal(10) ** -(ctx.prec + 5)

        def atan_inv(m):  # atan(1/m) by its series
            total, power, n = Decimal(0), Decimal(1) / m, 0
            while power > eps:
                total += (-1) ** n * power / (2 * n + 1)
                power /= m * m
                n += 1
            return total

        pi = 16 * atan_inv(5) - 4 * atan_inv(239)  # Machin's formula
        x_d = Decimal(x)
        total, term, n = Decimal(0), x_d, 0  # term = (-1)^n x^(2n+1) / n!
        while n <= x * x or abs(term) > eps:
            total += term / (2 * n + 1)
            n += 1
            term = -term * x_d * x_d / n
        return float(1 - 2 * total / pi.sqrt())


def interval_indicator(lo: float, hi: float) -> RealTestFunction:
    """Exact indicator of [lo, hi], the exact-cell counterpart of smoothed_indicator."""
    return RealTestFunction(fn=lambda x: 1.0, support_lo=lo, support_hi=hi)


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


# The reductions along Omega as they were written before every one went
# through averages._dot: integer sums of pi_k, and fsums written out per site.


def residue_class_density_by_count(profile, m: int, r: int) -> float:
    """|{n <= N : Omega(n) = r mod m}| / N, by an integer sum of pi_k."""
    ks = np.arange(len(profile.pik))
    return int(profile.pik[ks % m == r].sum()) / profile.N


def block_average_by_count(seq, profile) -> float:
    """(1/N) sum seq(Omega(n)) for a 0/1 block sequence, by an integer sum of pi_k."""
    inside = seq(np.arange(profile.k_max + 1, dtype=np.int64)).astype(bool)
    return int(profile.pik[inside].sum()) / profile.N


def _phi_weights(F, profile) -> np.ndarray:
    """pi_k F((k - L) / sqrt(L)), L = log log N, with n = 1 and n = 2 removed."""
    pik = profile.pik.astype(np.float64).copy()
    pik[0] -= 1
    if profile.N >= 2:
        pik[1] -= 1
    mean = math.log(math.log(profile.N))
    return pik * np.array([F((k - mean) / math.sqrt(mean)) for k in range(len(pik))])


def ek_empirical_by_masks(profile, grid) -> list[float]:
    """ek_report's empirical column, one boolean mask per grid cell: the first
    cell [A, B] closed, the others (A, B]."""
    pik = _phi_weights(lambda z: 1.0, profile)
    mean = math.log(math.log(profile.N))
    z = (np.arange(len(pik), dtype=np.float64) - mean) / math.sqrt(mean)
    pts = sorted(grid)
    empirical = []
    for i, (a, b) in enumerate(zip(pts, pts[1:])):
        inside = ((z >= a) if i == 0 else (z > a)) & (z <= b)
        empirical.append(float(pik[inside].sum()) / profile.N)
    return empirical


def ek_weighted_average_fsum(F, profile) -> float:
    """(1/N) sum F(phi(n)) by one fsum of the phi-weights."""
    return float(math.fsum(_phi_weights(F, profile))) / profile.N


def correlation_sum_two_fsums(F, orbit, profile) -> complex:
    """(1/N) sum F(phi(n)) g(T^{Omega(n)} x), one fsum per part."""
    weights = _phi_weights(F, profile)
    values = np.array([orbit.value_at(k) for k in range(len(weights))], dtype=complex)
    re, im = math.fsum(weights * values.real), math.fsum(weights * values.imag)
    return complex(re, im) / profile.N


def invariance_gap_two_fsums(F, a, profile) -> float:
    """|(1/N) sum F(phi(n)) (a(Omega(n)) - a(Omega(n) + 1))|, one fsum per part."""
    weights = _phi_weights(F, profile)
    a0 = np.array([complex(a(k)) for k in range(len(weights))])
    a1 = np.array([complex(a(k + 1)) for k in range(len(weights))])
    re = math.fsum(weights * (a0.real - a1.real))
    im = math.fsum(weights * (a0.imag - a1.imag))
    return abs(complex(re, im)) / profile.N


def extrapolated_average_by_parts(a, window: GaussianWindowSpec) -> complex:
    """sum_k w_k a(k), a called once on the window; one fsum per part, none
    for the imaginary part of a real array."""
    ks = window.ks()
    values = np.broadcast_to(a(ks), ks.shape)
    w = gaussian_weights(window).weights
    re = math.fsum(w * values.real)
    im = math.fsum(w * values.imag) if np.iscomplexobj(values) else 0.0
    return complex(re, im)


def oscillation_profile_oracle(blocks, checkpoints, C: float = 3.0) -> list:
    """(log log N, value) at each checkpoint's peak and trough, per-k scan."""
    rows = []
    for cp in checkpoints:
        for loglogn in (cp.loglogn_peak, cp.loglogn_trough):
            window = GaussianWindowSpec(loglogn=loglogn, C=C)
            value = extrapolated_average_oracle(lambda k: block_scan_oracle(blocks, k), window)
            rows.append((loglogn, value.real))
    return sorted(rows)


def phi(m: int, n: int) -> int:
    """Coupling kernel gcd(m, n) - 1; zero exactly for coprime pairs."""
    if m < 1 or n < 1:
        raise InvalidRangeError("phi needs positive integers")
    return math.gcd(m, n) - 1


def coupling(B) -> float:
    """Double log average of phi over B x B by the direct O(|B|^2) sum."""
    elems = sorted(set(B))
    if not elems:
        raise InvalidRangeError("coupling of an empty set")
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
    Divisors and totients come from one smallest-prime-factor table over
    [1, max B].  Independent computation path used to cross-check
    `coupling`.
    """
    elems = sorted(set(B))
    if not elems:
        raise InvalidRangeError("coupling of an empty set")
    harmonic = math.fsum(1.0 / m for m in elems)
    spf = _smallest_prime_factors(elems[-1])
    mass_by_divisor: dict[int, list[float]] = {}
    totients: dict[int, int] = {}
    for m in elems:
        for d, tot in _divisors_with_totients(m, spf):
            if d > 1:
                mass_by_divisor.setdefault(d, []).append(1.0 / m)
                totients[d] = tot
    total = math.fsum(
        totients[d] * math.fsum(masses) ** 2
        for d, masses in mass_by_divisor.items()
    )
    return total / (harmonic * harmonic)


def _smallest_prime_factors(limit: int) -> list[int]:
    """spf[n] = the smallest prime factor of n, for 2 <= n <= limit."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    unset = np.flatnonzero(spf == 0)
    spf[unset] = unset  # primes, and 0 and 1
    return spf.tolist()


def _divisors_with_totients(n: int, spf: list[int]) -> list[tuple[int, int]]:
    """Every (d, totient(d)) with d | n, from n's factorization."""
    pairs = [(1, 1)]
    while n > 1:
        p = spf[n]
        powers = [(1, 1)]
        while n % p == 0:
            n //= p
            q, _ = powers[-1]
            powers.append((q * p, q * (p - 1)))
        pairs = [(d * q, t * u) for d, t in pairs for q, u in powers]
    return pairs


class IncrementalCoupling:
    """Coupling of a growing set, updated one element at a time.

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
            raise InvalidRangeError("coupling of an empty set")
        return (self.prime_part + self.self_part) / (self.harmonic * self.harmonic)


def almost_primes_2_by_rows(limit: int, primes: np.ndarray) -> np.ndarray:
    """All (m, p, q) with m = p*q <= limit, p <= q prime, sorted by m: one
    row block per prime p, then a stable sort of the stacked table."""
    primes = primes[: np.searchsorted(primes, limit // 2, side="right")]
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


def _products(primes: list[int], i: int, end: int):
    """(p * q, p, q) for p = primes[i] and q = primes[i], ..., primes[end - 1]."""
    p = primes[i]
    for k in range(i, end):
        yield p * primes[k], p, primes[k]


def two_sets_scan_oracle(epsilon: float, rho: float, search_limit: int, max_set_size: int):
    """construct_pair's (b1, b2, couplings, exhaustion message or None), by one
    rho-adic interval and one element at a time.

    The primes come from eratosthenes, and the 2-almost primes, with their
    factors, from a heap merge of the ascending rows p * q (q >= p prime), so
    no table is built.  Each kept element goes to an IncrementalCoupling on
    its own.  The floor over all sets <= search_limit in the message is
    computed as construct_pair computes it; its tests are separate.
    """
    primes = eratosthenes(search_limit)
    plist = primes.tolist()
    rows = [_products(plist, i, int(np.searchsorted(primes, search_limit // p, side="right")))
            for i, p in enumerate(plist) if p * p <= search_limit]
    semiprimes = heapq.merge(*rows)
    pending = next(semiprimes, None)
    b1, b2 = [], []
    c1, c2 = IncrementalCoupling(), IncrementalCoupling()
    k1 = 0
    for j in range(rho_index(search_limit, rho) + 1):
        bound = rho ** (j + 1)
        ones, twos = [], []
        while k1 < len(plist) and plist[k1] <= bound:
            ones.append(plist[k1])
            k1 += 1
        while pending is not None and pending[0] <= bound:
            twos.append(pending)
            pending = next(semiprimes, None)
        take = max(0, min(len(ones), len(twos), max_set_size - len(b1)))
        for p in ones[:take]:
            b1.append(p)
            c1.add(p, (p,))
        for m, p, q in twos[:take]:
            b2.append(m)
            c2.add(m, (p, q))
        if b1 and c1.value() <= epsilon and c2.value() <= epsilon:
            return tuple(b1), tuple(b2), (c1.value(), c2.value()), None
        if len(b1) >= max_set_size:
            break
    achieved = (c1.value(), c2.value()) if b1 else None
    reason = f"best achieved {achieved}"
    if b1:
        own = (0.5 / c1.harmonic, 0.5 / c2.harmonic)
        pool = tuple(0.5 / h for h in _prime_harmonic_sums(search_limit))
        reason += (f"; proven floor 1/(2 sum 1/m): ({own[0]:.3g}, {own[1]:.3g}) for these "
                   f"sets, ({pool[0]:.3g}, {pool[1]:.3g}) for any sets <= {search_limit}")
    message = f"coupling target {epsilon} not reached by limit {search_limit}: {reason}"
    return tuple(b1) or None, tuple(b2) or None, achieved, message
