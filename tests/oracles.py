"""Test oracles that share no stepping logic with the code they check."""

import heapq
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from omegalab.averages import RealTestFunction
from omegalab.errors import InvalidRangeError
from omegalab.sieve import TUPLE_CHUNK, _harmonic_minus_one, base_primes
from omegalab.twosets import rho_index
from omegalab.weights import GaussianWindowSpec, gaussian_weights


def eratosthenes(limit: int) -> np.ndarray:
    """Primes <= limit by the plain sieve of Eratosthenes over every integer."""
    flags = np.ones(max(limit + 1, 2), dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags[: limit + 1]).astype(np.int64)


def prime_counts_one_prime_at_a_time(N: int, reciprocal: bool = False):
    """(small, large) of sieve.prime_counts_at_quotients, or with reciprocal
    those of the prime reciprocal sums omega_profile reads, from
    Lucy_Hedgehog's sieve with every prime <= isqrt(N) applied alone, in
    order.  The reciprocal tables start from the library's H(v) - 1."""
    r = math.isqrt(N)
    small = np.arange(-1, r, dtype=np.int64)  # small[v] = v - 1
    large = np.zeros(r + 1, dtype=np.int64)
    large[1:] = N // np.arange(1, r + 1, dtype=np.int64) - 1
    if reciprocal:
        small = _harmonic_minus_one(np.arange(r + 1))
        large = np.concatenate(([0.0], _harmonic_minus_one(large[1:] + 1)))
    for p in base_primes(r).tolist():
        weight = (lambda d: d / p) if reciprocal else (lambda d: d)  # f(p) = 1/p or 1
        below = small[p - 1]  # S(p - 1)
        m = min(r, N // (p * p))  # large[i] with N // i >= p * p
        q = min(m, r // p)  # i <= q: S(N // (i p)) = large[i p]
        large[1 : q + 1] -= weight(large[p : q * p + 1 : p] - below)
        large[q + 1 : m + 1] -= weight(small[N // (p * np.arange(q + 1, m + 1))] - below)
        if p * p <= r:
            small[p * p :] -= weight(np.repeat(small[p : r // p + 1], p)[: r + 1 - p * p] - below)
    return small, large


def harmonic_table_by_temporaries(cut: int) -> np.ndarray:
    """sieve._harmonic_table's entries for v <= cut, from whole-array
    expressions: each TwoSum step and error is a fresh array."""
    terms = np.zeros(cut + 1)
    np.divide(1.0, np.arange(2, cut + 1), out=terms[2:])
    sums = np.cumsum(terms)
    step = sums[1:] - sums[:-1]  # TwoSum of sums[v - 1] + terms[v]
    errors = np.zeros_like(terms)
    errors[1:] = (sums[:-1] - (sums[1:] - step)) + (terms[1:] - step)
    return sums + np.cumsum(errors)


def harmonic_masses_by_fractions(checkpoints, omega) -> dict:
    """{N: [the exact sum of 1/n over n <= N with Omega(n) = k, for k <= log2 N]}
    for each N in checkpoints, with omega[n - 1] = Omega(n) for n <= max N.

    Each 1/n is (L // n) / L over L = lcm(1..max N), so the sums are integer
    sums; only the values at the checkpoints become fractions.
    """
    n_max = max(checkpoints)
    L = math.lcm(*range(1, n_max + 1))
    numerators = [0] * (n_max.bit_length() + 1)
    wanted, masses = set(checkpoints), {}
    for n, k in enumerate(omega[:n_max].tolist(), start=1):
        numerators[k] += L // n
        if n in wanted:
            masses[n] = [Fraction(a, L) for a in numerators[: n.bit_length()]]
    return masses


def harmonic_mass_bound(N: int, inv: np.ndarray) -> np.ndarray:
    """omega_profile's bound on |inv_k - the sum of 1/n over Omega(n) = k|,
    for each k, as its docstring states it."""
    u, lam = 2.0**-53, math.log(N)
    primes = eratosthenes(math.isqrt(N)).tolist()
    M = math.prod(p / (p - 1) for p in primes)
    G = math.prod(1 + 2 / p for p in primes)
    E = 2 * u * lam * (len(primes) + 4) * G
    return 2 * M * (E + u * lam) + TUPLE_CHUNK * u * inv


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
    math.fsum of 1/m over every prime and every 2-almost prime.
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
        semiprimes = almost_primes_2_by_rows(search_limit, primes)[:, 0]
        pool = (0.5 / math.fsum((1.0 / primes).tolist()),
                0.5 / math.fsum((1.0 / semiprimes).tolist()))
        reason += (f"; proven floor 1/(2 sum 1/m): ({own[0]:.3g}, {own[1]:.3g}) for these "
                   f"sets, ({pool[0]:.3g}, {pool[1]:.3g}) for any sets <= {search_limit}")
    message = f"coupling target {epsilon} not reached by limit {search_limit}: {reason}"
    return tuple(b1) or None, tuple(b2) or None, achieved, message
