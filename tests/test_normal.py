import math

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import erfc_by_series

from omegalab.averages import normal_mass


def test_erfc_against_decimal_series_tail():
    # normal_mass leans on math.erfc: absolute error well inside 1e-12 on [0, 29.9]
    for i in range(300):
        x = i / 10
        exact = erfc_by_series(x)
        assert abs(math.erfc(x) - exact) <= 1e-13 + 1e-10 * exact


def test_erfc_anchor_values():
    assert math.erfc(0.0) == 1.0
    assert abs(math.erfc(1.0) - 0.15729920705028513) < 1e-14
    assert math.erfc(31.0) == 0.0


@settings(max_examples=300, deadline=None)
@given(st.floats(-25, 25, allow_nan=False))
def test_erfc_reflection(x):
    assert abs(math.erfc(x) + math.erfc(-x) - 2.0) < 1e-12


def test_normal_mass_95_percent():
    assert abs(normal_mass(-1.96, 1.96) - 0.9500042097035591) < 1e-12


def test_normal_mass_empty_and_full():
    assert normal_mass(1.0, 0.0) == 0.0
    assert abs(normal_mass(-40.0, 40.0) - 1.0) < 1e-12


def test_normal_mass_additive():
    total = normal_mass(-2.0, 2.0)
    split = normal_mass(-2.0, 0.3) + normal_mass(0.3, 2.0)
    assert abs(total - split) < 1e-13
