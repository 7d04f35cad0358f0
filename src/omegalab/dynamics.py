"""Concrete dynamical systems exposed as sampled orbit observables.

A system enters the averaging engines only through k -> g(T^k x) together
with its declared space mean; no measure-space machinery is modeled.
All evaluation is pure and safe to call from concurrent workers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import InvalidRangeError, require_finite


class ObservableOrbit:
    """Sampled observable g(T^k x) with declared space mean."""

    space_mean: complex

    def value_at(self, k: int) -> complex:
        raise NotImplementedError


@dataclass(frozen=True)
class CircleRotation(ObservableOrbit):
    """Rotation of the circle by alpha full turns, observed through e^{2 pi i x}."""

    alpha: float
    start: float = 0.0
    space_mean = 0.0

    def __post_init__(self):
        require_finite(alpha=self.alpha, start=self.start)

    def value_at(self, k: int) -> complex:
        # alpha % 1.0 is alpha itself on [0, 1), and keeps k * alpha finite
        return cmath.exp(2j * math.pi * ((self.start + k * (self.alpha % 1.0)) % 1.0))


@dataclass(frozen=True)
class ExponentialOrbit(ObservableOrbit):
    """value_at(k) = e^{2 pi i beta k}."""

    beta: float

    def __post_init__(self):
        require_finite(beta=self.beta)

    @property
    def space_mean(self) -> complex:
        return 1.0 + 0.0j if float(self.beta) == int(self.beta) else 0.0j

    def value_at(self, k: int) -> complex:
        # beta % 1.0 is beta itself on [0, 1), and keeps the phase finite
        return cmath.exp(2j * math.pi * (self.beta % 1.0) * k)


class Parity(ObservableOrbit):
    """Rotation on two points seen through g = (+1, -1): value_at(k) = (-1)^k."""

    space_mean = 0.0

    def value_at(self, k: int) -> int:
        return 1 - 2 * (k % 2)


def rotation_two_points_liouville() -> Parity:
    return Parity()


@dataclass(frozen=True)
class ResidueIndicator(ObservableOrbit):
    """Rotation on m points seen through the indicator of r; holds no table of m values."""

    m: int
    r: int

    def __post_init__(self):
        if self.m < 1 or not 0 <= self.r < self.m:
            raise InvalidRangeError(f"residue {self.r} mod {self.m} is invalid")

    @property
    def space_mean(self) -> float:
        return 1 / self.m

    def value_at(self, k: int) -> int:
        return int(k % self.m == self.r)


def residue_indicator_orbit(m: int, r: int) -> ResidueIndicator:
    """Indicator of the residue class r mod m; space mean 1/m."""
    return ResidueIndicator(m=m, r=r)


def exponential_orbit(beta: float) -> ExponentialOrbit:
    return ExponentialOrbit(beta=beta)


# The keys each system spec takes; circle's start is optional.
SYSTEM_KEYS = {"liouville": (), "rot": ("m", "r"), "exp": ("beta",), "circle": ("alpha", "start")}


def parse_system(spec: str) -> ObservableOrbit:
    """Build an orbit from a CLI string spec.

    Supported: ``liouville``, ``rot:m=3,r=1``, ``exp:beta=0.5``,
    ``circle:alpha=0.618`` (observable e^{2 pi i x}, space mean 0).
    A missing or non-numeric argument, or a key the system does not take
    or that is given twice, raises InvalidRangeError.
    """
    name, _, args = spec.partition(":")
    if name not in SYSTEM_KEYS:
        raise InvalidRangeError(f"unknown system spec: {spec!r}")
    kv = {}
    for key, value in (part.partition("=")[::2] for part in args.split(",") if part):
        if key not in SYSTEM_KEYS[name] or key in kv:
            raise InvalidRangeError(f"system spec {spec!r} has an unknown or repeated key {key!r}")
        kv[key] = value

    def number(key, kind=float):
        try:
            return kind(kv[key])
        except (KeyError, ValueError):
            raise InvalidRangeError(f"system spec {spec!r} needs a numeric {key}") from None

    if name == "liouville":
        return rotation_two_points_liouville()
    if name == "rot":
        return residue_indicator_orbit(number("m", int), number("r", int))
    if name == "exp":
        return exponential_orbit(number("beta"))
    return CircleRotation(number("alpha"), number("start") if "start" in kv else 0.0)
