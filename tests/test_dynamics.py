import re

import pytest

from omegalab.dynamics import (
    CircleRotation,
    ExponentialOrbit,
    exponential_orbit,
    parse_system,
    residue_indicator_orbit,
    rotation_two_points_liouville,
)
from omegalab.errors import InvalidRangeError


def test_two_point_rotation_is_parity():
    orb = rotation_two_points_liouville()
    values = [orb.value_at(k) for k in range(4)]
    assert values == [1, -1, 1, -1] and all(type(v) is int for v in values)
    assert repr(orb.space_mean) == "0.0"  # pnt and correlate print its products


def test_residue_indicator_orbit():
    orb = residue_indicator_orbit(3, 1)
    assert [orb.value_at(k) for k in range(6)] == [0, 1, 0, 0, 1, 0]
    assert orb.space_mean == pytest.approx(1 / 3)
    huge = residue_indicator_orbit(10**12, 5)  # holds no table of 10^12 values
    assert [huge.value_at(k) for k in (4, 5, 6, 10**12 + 5)] == [0, 1, 0, 1]
    assert huge.space_mean == 1e-12


def test_exponential_orbit_unit_modulus():
    orb = exponential_orbit(0.37)
    for k in range(10):
        assert abs(abs(orb.value_at(k)) - 1.0) < 1e-15
    assert orb.value_at(0) == 1.0
    assert exponential_orbit(0.0).space_mean == 1.0
    assert exponential_orbit(0.5).space_mean == 0.0


def test_exponential_half_is_parity():
    orb = exponential_orbit(0.5)
    for k in range(8):
        assert abs(orb.value_at(k) - (-1) ** k) < 1e-14


def test_circle_rotation_orbit():
    orb = CircleRotation(alpha=0.25, start=0.0)
    assert abs(orb.value_at(2) - (-1.0)) < 1e-14
    assert orb.space_mean == 0.0


def test_parse_system_variants():
    assert parse_system("liouville").value_at(1) == -1
    rot = parse_system("rot:m=3,r=1")
    assert rot.value_at(1) == 1 and rot.value_at(2) == 0
    exp = parse_system("exp:beta=0.5")
    assert abs(exp.value_at(1) + 1.0) < 1e-14
    circ = parse_system("circle:alpha=0.5")
    assert abs(circ.value_at(1) + 1.0) < 1e-14
    assert parse_system("circle:alpha=0.25,start=0.25").value_at(1) == parse_system(
        "circle:alpha=0.5").value_at(1)


def test_parse_system_unknown():
    with pytest.raises(InvalidRangeError, match="^unknown system spec: 'torus:dim=2'$"):
        parse_system("torus:dim=2")


@pytest.mark.parametrize("spec, key", [
    ("liouville:x=1", "x"), ("rot:m=3,r=1,beta=2", "beta"),
    ("rot:m=3,r=1,m=5", "m"), ("exp:beta=0.5,beta=0.5", "beta"), ("exp:alpha=0.5", "alpha"),
    ("circle:alpha=0.25,garbage", "garbage"), ("circle:start=0.1,alpha=0.2,start=0.1", "start"),
])
def test_parse_system_rejects_unknown_and_repeated_keys(spec, key):
    message = f"^system spec {re.escape(repr(spec))} has an unknown or repeated key '{key}'$"
    with pytest.raises(InvalidRangeError, match=message):
        parse_system(spec)


@pytest.mark.parametrize(
    "spec", ["rot:m=3", "rot:m=x,r=1", "rot:m", "exp:", "exp:beta=", "circle:alpha=0.1,start=y"]
)
def test_parse_system_bad_arguments(spec):
    message = f"^system spec {re.escape(repr(spec))} needs a numeric "
    with pytest.raises(InvalidRangeError, match=message):
        parse_system(spec)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_orbits_reject_non_finite_parameters(bad):
    with pytest.raises(InvalidRangeError):
        parse_system(f"exp:beta={bad}")
    with pytest.raises(InvalidRangeError):
        parse_system(f"circle:alpha={bad}")
    with pytest.raises(InvalidRangeError):
        parse_system(f"circle:alpha=0.5,start={bad}")


def test_huge_rotation_parameters_stay_finite():
    # every float of magnitude >= 2**53 is an integer: a whole number of turns
    assert exponential_orbit(1e308).value_at(64) == 1
    circle, still = parse_system("circle:alpha=1e308"), parse_system("circle:alpha=0")
    assert circle.value_at(64) == still.value_at(64)
