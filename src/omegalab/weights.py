"""Weighted-sum reformulation of averages along Omega(n).

Exact weights pi_k(N)/N, the factorial product-form estimate, the Gaussian
window approximation, and extrapolation of averages to virtual N far beyond
any sievable range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidRangeError, RangeTooLargeError, require_finite
from .sieve import OmegaProfile

MAX_WINDOW_POINTS = 10**7  # k values in one Gaussian window: bounds its time
MAX_WINDOW_K = 2**62  # largest k of a window (k is an int64)
WINDOW_CHUNK = 2**12  # k values evaluated at once: bounds a window's memory, not its result


@dataclass(frozen=True)
class WeightVector:
    """Weights w_k over the inclusive k-window [k_lo, k_hi]."""

    k_lo: int
    k_hi: int
    weights: np.ndarray

    def __post_init__(self):
        if self.k_hi < self.k_lo:
            raise InvalidRangeError("empty weight window")
        if len(self.weights) != self.k_hi - self.k_lo + 1:
            raise InvalidRangeError("weights length does not match window")

    def weight(self, k: int) -> float:
        if not self.k_lo <= k <= self.k_hi:
            return 0.0
        return float(self.weights[k - self.k_lo])


@dataclass(frozen=True)
class GaussianWindowSpec:
    """k-window [ceil(L - C sqrt L), floor(L + C sqrt L)] around L = log log N.

    L is virtual: it may lie far beyond any sievable N, since the Gaussian
    weights need no sieve data.
    """

    loglogn: float
    C: float = 3.0

    def __post_init__(self):
        require_finite(loglogn=self.loglogn, C=self.C)
        if self.loglogn <= 1.0:
            raise InvalidRangeError("log log N must exceed 1")
        if self.C <= 0:
            raise InvalidRangeError("window half-width C must be positive")
        half_width = self.C * math.sqrt(self.loglogn)
        if 2 * half_width >= MAX_WINDOW_POINTS or self.loglogn + half_width >= MAX_WINDOW_K:
            raise RangeTooLargeError(
                f"the window of C = {self.C} at log log N = {self.loglogn} exceeds "
                f"{MAX_WINDOW_POINTS} points or k = {MAX_WINDOW_K}"
            )
        if self.k_hi < self.k_lo:
            raise InvalidRangeError(
                f"the window of C = {self.C} at log log N = {self.loglogn} holds no integer k"
            )

    @property
    def k_lo(self) -> int:
        return max(0, math.ceil(self.loglogn - self.C * math.sqrt(self.loglogn)))

    @property
    def k_hi(self) -> int:
        return math.floor(self.loglogn + self.C * math.sqrt(self.loglogn))

    def ks(self) -> np.ndarray:
        return np.arange(self.k_lo, self.k_hi + 1, dtype=np.int64)


def window_for(N: int, C: float = 3.0) -> GaussianWindowSpec:
    if N < 16:
        raise InvalidRangeError("need N >= 16 so that log log N > 1")
    return GaussianWindowSpec(loglogn=math.log(math.log(N)), C=C)


def exact_weights(profile: OmegaProfile) -> WeightVector:
    """w_k = pi_k(N)/N over the full realized k-range; sums to 1 exactly."""
    return WeightVector(
        k_lo=0,
        k_hi=profile.k_max,
        weights=profile.pik.astype(np.float64) / profile.N,
    )


def erdos_weights(window: GaussianWindowSpec) -> WeightVector:
    """Product-form estimate (1/log N) L^{k-1} / (k-1)! on the window, k >= 1.

    L = log log N is the window's centre.  The window is not empty and
    k_hi >= L > 1, so it holds some k >= 1.  Anchored in log-space at
    k0 = round(L) and extended by the exact recurrence w_{k+1}/w_k = L/k,
    so the ratio identity holds to rounding and nothing overflows for
    virtual L.
    """
    L = window.loglogn
    k_lo = max(1, window.k_lo)
    k_hi = window.k_hi
    k0 = min(max(k_lo, round(L)), k_hi)
    # log w_k0 = -L + (k0 - 1) log L - log (k0 - 1)!
    log_anchor = -L + (k0 - 1) * math.log(L) - math.lgamma(k0)
    weights = np.empty(k_hi - k_lo + 1, dtype=np.float64)
    weights[k0 - k_lo] = math.exp(log_anchor)
    for k in range(k0 + 1, k_hi + 1):
        weights[k - k_lo] = weights[k - 1 - k_lo] * (L / (k - 1))
    for k in range(k0 - 1, k_lo - 1, -1):
        weights[k - k_lo] = weights[k + 1 - k_lo] * (k / L)
    return WeightVector(k_lo=k_lo, k_hi=k_hi, weights=weights)


def _gaussian(ks: np.ndarray, L: float) -> np.ndarray:
    """gaussian_weights' w_k at each k of an int64 array."""
    z = (ks.astype(np.float64) - L) / math.sqrt(L)
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi * L)


def gaussian_weights(window: GaussianWindowSpec) -> WeightVector:
    """w_k = (2 pi L)^{-1/2} exp(-(k - L)^2 / (2L)) on the window.

    Raw, not rescaled to total mass 1 (the averaging-operator convention).
    """
    return WeightVector(k_lo=window.k_lo, k_hi=window.k_hi,
                        weights=_gaussian(window.ks(), window.loglogn))


def extrapolated_average(a, window: GaussianWindowSpec) -> complex:
    """sum_k w_k a(k) over the window with Gaussian weights.

    Interpreted as the approximate value of (1/N) sum a(Omega(n)) at the
    virtual N with the window's log log N; needs no sieve data.  a is called
    on int64 arrays of at most WINDOW_CHUNK consecutive k, and returns an
    array of values (or one value, broadcast over the chunk).  Each part is
    one fsum of every product, which rounds their exact sum, so the result
    does not depend on the chunks; the imaginary part is summed, in a second
    pass, only if some chunk's values are complex.
    """
    complex_seen = False

    def products(part):
        nonlocal complex_seen
        for lo in range(window.k_lo, window.k_hi + 1, WINDOW_CHUNK):
            ks = np.arange(lo, min(lo + WINDOW_CHUNK, window.k_hi + 1), dtype=np.int64)
            values = np.broadcast_to(a(ks), ks.shape)
            complex_seen |= np.iscomplexobj(values)
            yield (_gaussian(ks, window.loglogn) * part(values)).tolist()

    re = math.fsum(chain.from_iterable(products(np.real)))
    im = math.fsum(chain.from_iterable(products(np.imag))) if complex_seen else 0.0
    return complex(re, im)


@dataclass(frozen=True)
class ApproximationReport:
    """Distance between exact and Gaussian weights on a window."""

    N: int
    C: float
    tv_distance: float
    max_rel_err_in_window: float


def approximation_report(profile: OmegaProfile, C: float = 3.0) -> ApproximationReport:
    """Total-variation and max relative error of the Gaussian weights vs exact."""
    window = window_for(profile.N, C)
    exact = exact_weights(profile)
    gauss = gaussian_weights(window)
    tv = 0.0
    max_rel = 0.0
    for k in range(window.k_lo, window.k_hi + 1):
        e = exact.weight(k)
        g = gauss.weight(k)
        tv += abs(e - g)
        if e > 0:
            max_rel = max(max_rel, abs(e - g) / e)
    return ApproximationReport(N=profile.N, C=C, tv_distance=tv, max_rel_err_in_window=max_rel)
