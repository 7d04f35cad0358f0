"""Cesaro/logarithmic averaging engines and the averages along Omega(n).

Every average over [1, N] is a fold over sieve segments, reduced through the
per-k totals of an OmegaProfile; the value of any bounded a(Omega(n)) over
[N] is exactly sum_k pi_k(N) a(k) / N, so no pass ever materializes all
Omega values at once.  That sum is one dot product, _dot, and every average
along Omega in the package reduces through it.  The Erdos-Kac normalizer
always uses log log N with the outer N (not log log n), and n in {1, 2} are
skipped in every phi-normalized sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .dynamics import ObservableOrbit, exponential_orbit, residue_indicator_orbit
from .errors import InvalidRangeError, require_finite
from .sieve import OmegaProfile


class AverageScheme(Enum):
    CESARO = "cesaro"
    LOGARITHMIC = "logarithmic"


def _values(a: Callable[[int], complex], k_max: int) -> np.ndarray:
    return np.array([a(k) for k in range(k_max + 1)], dtype=complex)


def _dot(weights: np.ndarray, values: np.ndarray) -> complex:
    """sum_k weights[k] values[k], each part rounded once by fsum.

    fsum rounds the exact sum of the products, so the result does not
    depend on their order.  A real values array skips the imaginary fsum.
    """
    im = math.fsum(weights * values.imag) if np.iscomplexobj(values) else 0.0
    return complex(math.fsum(weights * values.real), im)


def average_along_omega(
    orbit: ObservableOrbit,
    profile: OmegaProfile,
    scheme: AverageScheme = AverageScheme.CESARO,
) -> complex:
    """Scheme-average of n -> g(T^{Omega(n)} x) over [1, N]."""
    return _scheme_average(profile, _values(orbit.value_at, profile.k_max), scheme)


def _scheme_average(prof: OmegaProfile, values: np.ndarray, scheme: AverageScheme) -> complex:
    """Scheme-average over [1, prof.N] of n -> values[Omega(n)]."""
    if scheme is AverageScheme.CESARO:
        return _dot(prof.pik.astype(np.float64), values) / prof.N
    mass = prof.harmonic_sum()  # raises on a counted profile, which has no harmonic mass
    return _dot(prof.inv_weights, values) / mass


def weyl_sum(beta: float, profile: OmegaProfile) -> complex:
    """(1/N) sum_{n<=N} e^{2 pi i beta Omega(n)}."""
    return average_along_omega(exponential_orbit(beta), profile)


def residue_class_density(profile: OmegaProfile, m: int, r: int) -> float:
    """|{n <= N : Omega(n) = r mod m}| / N."""
    return average_along_omega(residue_indicator_orbit(m, r), profile).real


# ---------------------------------------------------------------------------
# Erdos-Kac machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EKNormalizer:
    """phi(n) = (Omega(n) - log log N) / sqrt(log log N), N fixed."""

    N: int

    def __post_init__(self):
        if self.N < 3:
            raise InvalidRangeError("EK normalizer needs N >= 3")

    @property
    def mean(self) -> float:
        return math.log(math.log(self.N))

    @property
    def sd(self) -> float:
        return math.sqrt(self.mean)

    def normalize(self, omega_value: float) -> float:
        return (omega_value - self.mean) / self.sd


@dataclass(frozen=True)
class RealTestFunction:
    """Continuous real test function of compact support."""

    fn: Callable[[float], float]
    support_lo: float
    support_hi: float

    def __post_init__(self):
        if self.support_lo >= self.support_hi:
            raise InvalidRangeError("empty support")

    def __call__(self, x: float) -> float:
        if x < self.support_lo or x > self.support_hi:
            return 0.0
        return self.fn(x)


def smoothed_indicator(lo: float, hi: float, ramp: float = 1.0) -> RealTestFunction:
    """Indicator of [lo, hi] with linear ramps of the given width outside.

    Equals 1 on [lo, hi], falls linearly to 0 over [lo - ramp, lo] and
    [hi, hi + ramp]; compactly supported and continuous.
    """
    require_finite(lo=lo, hi=hi, ramp=ramp, support_lo=lo - ramp, support_hi=hi + ramp)
    if ramp <= 0:
        raise InvalidRangeError("ramp width must be positive")
    if hi < lo:  # fn would be a sawtooth, neither an indicator nor continuous
        raise InvalidRangeError(f"plateau [{lo}, {hi}] needs lo <= hi")

    def fn(x: float) -> float:
        if lo <= x <= hi:
            return 1.0
        if x < lo:
            return (x - (lo - ramp)) / ramp
        return ((hi + ramp) - x) / ramp

    return RealTestFunction(fn=fn, support_lo=lo - ramp, support_hi=hi + ramp)


def _adjusted_pik(prof: OmegaProfile) -> np.ndarray:
    """pi_k with n = 1 (k=0) and n = 2 (k=1) removed, for phi-normalized sums."""
    pik = prof.pik.astype(np.float64).copy()
    pik[0] -= 1
    if prof.N >= 2:
        pik[1] -= 1
    return pik


def _ek_weights(F: RealTestFunction, profile: OmegaProfile) -> np.ndarray:
    """The phi-weights pi_k F(phi(k)), with n in {1, 2} removed.

    (1/N) sum_{n<=N} F(phi(n)) b(Omega(n)) is _dot(weights, b(k)) / N.
    """
    norm = EKNormalizer(profile.N)
    pik = _adjusted_pik(profile)
    return pik * np.array([F(norm.normalize(k)) for k in range(len(pik))])


@dataclass(frozen=True)
class EKReport:
    """Empirical vs Gaussian interval masses of the normalized Omega values."""

    N: int
    pairs: tuple  # (A, B) pairs
    empirical: tuple
    gaussian: tuple
    sup_discrepancy: float


def grid_cells(points: Sequence[float]) -> list[tuple[float, float]]:
    """Consecutive cells (A, B) of a grid; the cells partition its span."""
    pts = sorted(points)
    if len(pts) < 2:
        raise InvalidRangeError("grid needs at least two points")
    return [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]


def normal_mass(a: float, b: float) -> float:
    """P(a <= Z <= b) for a standard normal Z; 0 for an empty interval.

    Differences of erfc keep the precision of whichever tail dominates.
    """
    return 0.0 if b < a else 0.5 * (math.erfc(a / math.sqrt(2)) - math.erfc(b / math.sqrt(2)))


def ek_report(profile: OmegaProfile, grid: Sequence[float]) -> EKReport:
    """K_N(A, B)/N against the Gaussian mass, per consecutive grid cell (A, B).

    Cells are half-open (A, B] (first cell closed), so the empirical column
    is a valid sub-probability distribution over the grid span.  Each z is
    placed by one binary search over the cell edges: z lies in the cell
    that ends at the first edge >= z.  The cell sums add integer-valued
    floats below 2**53, so they are exact in any order.
    """
    N = profile.N
    norm = EKNormalizer(N)
    pik = _adjusted_pik(profile)
    z = norm.normalize(np.arange(len(pik), dtype=np.float64))
    pairs = grid_cells(grid)
    edges = np.array([pairs[0][0], *(b for _, b in pairs)])
    cell = np.searchsorted(edges, z, side="left") - 1
    cell[z == edges[0]] = 0  # the first cell is closed
    inside = (cell >= 0) & (cell < len(pairs))
    mass = np.bincount(cell[inside], weights=pik[inside], minlength=len(pairs))
    empirical = (mass / N).tolist()
    gaussian = [normal_mass(a, b) for a, b in pairs]
    sup = max(abs(e - g) for e, g in zip(empirical, gaussian))
    return EKReport(N, tuple(pairs), tuple(empirical), tuple(gaussian), sup)


def ek_weighted_average(F: RealTestFunction, profile: OmegaProfile) -> float:
    """(1/N) sum F(phi(n)); tends to the Gaussian integral of F."""
    return _dot(_ek_weights(F, profile), np.ones(profile.k_max + 1)).real / profile.N


def correlation_sum(
    F: RealTestFunction, orbit: ObservableOrbit, profile: OmegaProfile
) -> complex:
    """(1/N) sum F(phi(n)) g(T^{Omega(n)} x); limit is (Gaussian integral of F) * space mean."""
    return _dot(_ek_weights(F, profile), _values(orbit.value_at, profile.k_max)) / profile.N
