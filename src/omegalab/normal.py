"""Standard normal interval masses via an in-house complementary error function.

The Gaussian column of the Erdos-Kac report must be correct to 1e-12
absolute without leaning on any particular math library's guarantees, so
erfc is computed here: a positive-term power series on [0, 2) and a
continued fraction (modified Lentz) on [2, inf).
"""

import math

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2 = math.sqrt(2.0)
_TINY = 1e-300


def _erf_series(x: float) -> float:
    # erf(x) = 2x e^{-x^2}/sqrt(pi) * sum_{n>=0} (2x^2)^n / (1*3*...*(2n+1));
    # all terms positive, so no cancellation.
    t = 2.0 * x * x
    term = 1.0
    total = 1.0
    n = 0
    while term > 1e-18 * total:
        n += 1
        term *= t / (2 * n + 1)
        total += term
    return 2.0 * x * math.exp(-x * x) / _SQRT_PI * total


def _erfc_cf(x: float) -> float:
    # erfc(x) = e^{-x^2}/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    f = x if x != 0 else _TINY
    c = f
    d = 0.0
    for n in range(1, 200):
        a = n / 2.0
        d = x + a * d
        if d == 0.0:
            d = _TINY
        c = x + a / c
        if c == 0.0:
            c = _TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(-x * x) / _SQRT_PI / f


def erfc(x: float) -> float:
    """Complementary error function, absolute error <= 1e-12."""
    if x < 0:
        return 2.0 - erfc(-x)
    if x < 2.0:
        return 1.0 - _erf_series(x)
    if x > 30.0:
        return 0.0  # below 1e-300; absolute target met trivially
    return _erfc_cf(x)


def normal_mass(a: float, b: float) -> float:
    """P(a <= Z <= b); 0 for an empty interval."""
    if b < a:
        return 0.0
    # erfc keeps precision in whichever tail dominates
    return 0.5 * (erfc(a / _SQRT_2) - erfc(b / _SQRT_2))
