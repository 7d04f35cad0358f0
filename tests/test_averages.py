import ast
import cmath
import math
import random
from pathlib import Path

import numpy as np
import oracles
import pytest

import omegalab
from omegalab import omega_profile, pi_k_profile, residue_class_density
from omegalab.averages import (
    AverageScheme,
    EKNormalizer,
    RealTestFunction,
    _dot,
    average_along_omega,
    correlation_sum,
    ek_report,
    ek_weighted_average,
    grid_cells,
    smoothed_indicator,
    weyl_sum,
)
from omegalab.counterexample import BlockSequence, average_along_omega_blocks, erdos_blocks
from omegalab.dynamics import (
    ObservableOrbit,
    exponential_orbit,
    parse_system,
    residue_indicator_orbit,
    rotation_two_points_liouville,
)
from omegalab.errors import InvalidRangeError, OmegalabError

from omegalab.twosets import invariance_gap
from omegalab.weights import GaussianWindowSpec, extrapolated_average

GRID = [-3 + 0.25 * i for i in range(25)]


def brute_liouville_average(N: int) -> float:
    return math.fsum((-1) ** oracles.omega_oracle(n) for n in range(1, N + 1)) / N


def test_liouville_average_small_oracle():
    # n <= 10: lambda = +,-,-,+,-,+,-,-,+,+  ->  sum = 0
    assert brute_liouville_average(10) == 0.0
    orb = rotation_two_points_liouville()
    assert average_along_omega(orb, omega_profile(10)).real == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("N", [100, 1000])
def test_average_along_omega_matches_brute_force(N):
    orb = rotation_two_points_liouville()
    got = average_along_omega(orb, omega_profile(N))
    assert got.real == pytest.approx(brute_liouville_average(N), abs=1e-12)
    assert got.imag == 0.0


def test_logarithmic_average_matches_brute_force():
    orb = residue_indicator_orbit(3, 1)
    N = 1000
    num = math.fsum(
        (1.0 if oracles.omega_oracle(n) % 3 == 1 else 0.0) / n for n in range(1, N + 1)
    )
    den = math.fsum(1.0 / n for n in range(1, N + 1))
    got = average_along_omega(orb, omega_profile(N), AverageScheme.LOGARITHMIC)
    assert got.real == pytest.approx(num / den, abs=1e-12)


def test_constant_orbit_average_is_constant():
    class Constant(ObservableOrbit):
        space_mean = 0.7

        def value_at(self, k):
            return 0.7

    got = average_along_omega(Constant(), omega_profile(12345))
    assert got.real == pytest.approx(0.7, abs=1e-12)


def test_weyl_sum_trivial_and_half():
    assert weyl_sum(0.0, omega_profile(999)) == pytest.approx(1.0, abs=1e-15)
    assert weyl_sum(0.5, omega_profile(10)).real == pytest.approx(
        brute_liouville_average(10), abs=1e-12
    )


def test_weyl_sum_rational_identity(profile_1e4):
    # two computation paths: exponential sum vs residue-class densities
    for p, q in [(1, 3), (2, 5)]:
        direct = weyl_sum(p / q, profile_1e4)
        via_density = sum(
            cmath.exp(2j * math.pi * p * r / q)
            * residue_class_density(profile_1e4, q, r)
            for r in range(q)
        )
        assert abs(direct - via_density) < 1e-12


def test_residue_density_examples(profile_1e4):
    # n <= 10 with even Omega: 1, 4, 6, 9, 10
    assert residue_class_density(omega_profile(10), 2, 0) == 0.5
    dens = [residue_class_density(profile_1e4, 3, r) for r in range(3)]
    assert math.isclose(sum(dens), 1.0, rel_tol=1e-12)


def test_residue_density_errors():
    with pytest.raises(InvalidRangeError, match="^residue 3 mod 3 is invalid$"):
        residue_class_density(omega_profile(100), 3, 3)
    with pytest.raises(InvalidRangeError):
        residue_class_density(omega_profile(0), 3, 1)


def test_ek_normalizer():
    norm = EKNormalizer(10**8)
    assert norm.mean == pytest.approx(math.log(math.log(10**8)), abs=1e-15)
    assert norm.normalize(norm.mean) == 0.0
    with pytest.raises(InvalidRangeError):
        EKNormalizer(2)


def test_grid_cells_partition():
    cells = grid_cells(GRID)
    assert len(cells) == 24
    assert cells[0] == (-3.0, -2.75)
    with pytest.raises(InvalidRangeError, match="^grid needs at least two points$"):
        grid_cells([1.0])


def test_ek_report_wide_cell_counts_everything(profile_1e4):
    N = 10**4
    rep = ek_report(profile_1e4, [-50.0, 50.0])
    assert rep.empirical[0] == pytest.approx((N - 2) / N, abs=1e-12)
    assert rep.gaussian[0] == pytest.approx(1.0, abs=1e-12)


def test_ek_report_sub_probability(profile_1e4):
    rep = ek_report(profile_1e4, GRID)
    assert all(0.0 <= e <= 1.0 for e in rep.empirical)
    assert math.fsum(rep.empirical) <= 1.0 + 1e-12
    assert math.fsum(rep.gaussian) == pytest.approx(
        0.5 * (math.erf(3 / math.sqrt(2)) - math.erf(-3 / math.sqrt(2))), abs=1e-12
    )
    assert rep.sup_discrepancy == max(
        abs(e - g) for e, g in zip(rep.empirical, rep.gaussian)
    )


def _seeded_grids(profile, seed):
    """Grids over and past the z range, each holding some z values exactly, some
    points twice, or lying wholly below or above every z."""
    rng = np.random.default_rng(seed)
    mean = math.log(math.log(profile.N))
    z = (np.arange(profile.k_max + 1, dtype=np.float64) - mean) / math.sqrt(mean)
    for _ in range(40):
        points = rng.uniform(z[0] - 1.0, z[-1] + 1.0, rng.integers(2, 60)).tolist()
        points += rng.choice(z, rng.integers(0, 6)).tolist()  # exactly on a z
        points += rng.choice(points, rng.integers(0, 3)).tolist()  # repeated points
        yield points
    yield [float(z[0]), float(z[0]), float(z[1])]
    yield [float(z[2]), 5.0]
    yield [-100.0, float(z[0]) - 1.0]
    yield [float(z[-1]) + 0.5, 100.0]


@pytest.mark.parametrize("profile", ["profile_1e4", "profile_1e6"])
def test_ek_report_bins_like_one_mask_per_cell(request, profile):
    prof = request.getfixturevalue(profile)
    for grid in _seeded_grids(prof, seed=len(profile)):
        rep = ek_report(prof, grid)
        assert list(rep.empirical) == oracles.ek_empirical_by_masks(prof, grid), grid


def test_ek_report_is_the_same_on_a_counted_profile(profile_1e6):
    for grid in _seeded_grids(profile_1e6, seed=6):
        assert ek_report(pi_k_profile(10**6), grid) == ek_report(profile_1e6, grid)


def test_log_average_of_a_counted_profile_raises():
    orbit = rotation_two_points_liouville()
    counted = pi_k_profile(1000)
    assert average_along_omega(orbit, counted) == average_along_omega(orbit, omega_profile(1000))
    with pytest.raises(OmegalabError, match="no harmonic mass"):
        average_along_omega(orbit, counted, AverageScheme.LOGARITHMIC)


def test_ek_weighted_average_trivial(profile_1e4):
    N = 10**4
    zero = smoothed_indicator(-1, 1)
    zero = type(zero)(fn=lambda x: 0.0, support_lo=-2, support_hi=2)
    assert ek_weighted_average(zero, profile_1e4) == 0.0
    proxy = oracles.interval_indicator(-100, 100)
    assert ek_weighted_average(proxy, profile_1e4) == pytest.approx(
        (N - 2) / N, abs=1e-12
    )


def test_ek_weighted_average_matches_report_cell(profile_1e6):
    # smoothed indicator vs the exact-cell mass: difference bounded by the
    # empirical mass of the two ramp strips
    lo, hi, ramp = -1.0, 1.0, 0.5
    smooth = ek_weighted_average(smoothed_indicator(lo, hi, ramp), profile_1e6)
    exact = ek_weighted_average(oracles.interval_indicator(lo, hi), profile_1e6)
    wide = ek_weighted_average(oracles.interval_indicator(lo - ramp, hi + ramp), profile_1e6)
    strips = wide - exact
    assert abs(smooth - exact) <= strips + 1e-12


def test_correlation_sum_trivial_and_degenerate(profile_1e4):
    N = 10**4
    zero = RealTestFunction(fn=lambda x: 0.0, support_lo=-1, support_hi=1)
    orb = residue_indicator_orbit(3, 1)
    assert correlation_sum(zero, orb, profile_1e4) == 0.0
    # F == 1 on all realized phi values reduces to the plain average along
    # Omega(n) once the n in {1, 2} exclusion is undone
    proxy = oracles.interval_indicator(-100, 100)
    got = correlation_sum(proxy, orb, profile_1e4)
    full = average_along_omega(orb, profile_1e4)
    excluded = (orb.value_at(0) + orb.value_at(1)) / N
    assert abs(got - (full - excluded)) < 1e-12


def test_log_average_stream_matches_brute_force():
    N = 1000
    got = average_along_omega(
        rotation_two_points_liouville(), omega_profile(N), AverageScheme.LOGARITHMIC
    )
    num = math.fsum((-1) ** oracles.omega_oracle(n) / n for n in range(1, N + 1))
    den = math.fsum(1.0 / n for n in range(1, N + 1))
    assert got.real == pytest.approx(num / den, abs=1e-12)


def test_smoothed_indicator_shape():
    F = smoothed_indicator(-1, 1, 0.5)
    assert F(0.0) == 1.0
    assert F(-1.25) == pytest.approx(0.5)
    assert F(1.25) == pytest.approx(0.5)
    assert F(-1.6) == 0.0
    assert F(2.0) == 0.0
    with pytest.raises(InvalidRangeError):
        smoothed_indicator(-1, 1, 0.0)


def test_smoothed_indicator_needs_lo_at_most_hi():
    """hi < lo would give a sawtooth, not an indicator; lo == hi is a peak."""
    with pytest.raises(InvalidRangeError, match=r"plateau \[1.0, 0.0\] needs lo <= hi"):
        smoothed_indicator(1.0, 0.0)
    F = smoothed_indicator(0.5, 0.5, 0.5)
    assert (F(0.5), F(0.25), F(0.75), F(1.0)) == (1.0, 0.5, 0.5, 0.0)


def test_reductions_match_the_formulas_they_replaced(profile_1e4, profile_1e6):
    """Every average along Omega, bit for bit (by repr) against its pre-_dot formula."""
    tests = [smoothed_indicator(-1, 1, 0.5), oracles.interval_indicator(-0.5, 2.0),
             RealTestFunction(lambda x: -x, -3.0, 3.0)]  # negative: signed zeros
    orbits = [rotation_two_points_liouville(), residue_indicator_orbit(3, 1),
              exponential_orbit(0.3), parse_system("circle:alpha=0.618")]
    arith = [lambda k: (-1) ** k, lambda k: 0.5, lambda k: cmath.exp(0.7j * k)]
    blocks = [erdos_blocks(3), BlockSequence(((0, 0),)), BlockSequence(((2, 5), (9, 30)))]
    for prof in (omega_profile(3), omega_profile(10), profile_1e4, profile_1e6):
        for m in (1, 2, 3, 7, 40):
            for r in {0, 1 % m, m - 1}:
                assert repr(residue_class_density(prof, m, r)) == repr(
                    oracles.residue_class_density_by_count(prof, m, r))
        for seq in blocks:
            assert repr(average_along_omega_blocks(seq, prof)) == repr(
                oracles.block_average_by_count(seq, prof))
        for F in tests:
            assert repr(ek_weighted_average(F, prof)) == repr(
                oracles.ek_weighted_average_fsum(F, prof))
            for orbit in orbits:
                assert repr(correlation_sum(F, orbit, prof)) == repr(
                    oracles.correlation_sum_two_fsums(F, orbit, prof))
            for a in arith:
                assert repr(invariance_gap(F, a, prof)) == repr(
                    oracles.invariance_gap_two_fsums(F, a, prof))
    values = [erdos_blocks(18), lambda ks: ks % 3 == 1, lambda ks: np.exp(0.3j * ks),
              lambda ks: 1.0, lambda ks: (ks % 5) - 2.5, lambda ks: True, lambda ks: ks % 2]
    for loglogn in (2.5, 27.0, 1e4, 1e6):
        window = GaussianWindowSpec(loglogn=loglogn)
        for a in values:
            assert repr(extrapolated_average(a, window)) == repr(
                oracles.extrapolated_average_by_parts(a, window))


def test_parity_invariance_gap_is_twice_the_liouville_correlation():
    """a(k) - a(k + 1) = 2 (-1)^k for a = parity, and scaling by 2 is exact in
    fsum, so the gap is 2 |correlation_sum| bit for bit; for a = 1 it is 0."""
    rng = random.Random(24)
    tests = [smoothed_indicator(lo, lo + rng.uniform(0.0, 4.0), rng.uniform(0.05, 2.0))
             for lo in (rng.uniform(-4.0, 2.0) for _ in range(6))]
    liouville = rotation_two_points_liouville()
    for prof in map(pi_k_profile, (3, 10**3, 10**6, 10**8)):
        for F in tests:
            assert invariance_gap(F, lambda k: (-1) ** k, prof) == 2 * abs(
                correlation_sum(F, liouville, prof))
            assert invariance_gap(F, lambda k: 1.0, prof) == 0.0


def test_dot_skips_the_imaginary_fsum_of_a_real_array(monkeypatch):
    calls = []
    real_fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or real_fsum(xs))
    weights = np.array([0.5, 0.25, -0.125])
    assert repr(_dot(weights, np.array([1, 2, 3]))) == repr(complex(0.625, 0.0))
    assert len(calls) == 1
    assert repr(_dot(weights, np.array([1, 2j, -1]))) == repr(complex(0.625, 0.5))
    assert len(calls) == 3


def _mentions():
    """{module.top-level name: every name and .attribute it mentions} in src/omegalab."""
    found = {}
    for path in sorted(Path(omegalab.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            names = found.setdefault(f"{path.stem}.{getattr(top, 'name', '<module>')}", set())
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add("." + node.attr)
    return found


def test_every_average_along_omega_reduces_through_dot():
    """The averages along Omega reduce through _dot and build no sum of their own;
    only _ek_weights builds phi-weights, and pi_k and the harmonic masses are
    read outside sieve.py and averages.py only where a table needs them.
    (extrapolated_average, at virtual N, sums its window's chunks by fsum.)"""
    found = _mentions()
    assert "sieve.residue_class_density" not in found
    through = {
        "averages.residue_class_density": "average_along_omega",
        "counterexample.average_along_omega_blocks": "_scheme_average",
        "averages.ek_weighted_average": "_dot",
        "averages.correlation_sum": "_dot",
        "twosets.invariance_gap": "_dot",
    }
    for owner, via in through.items():
        assert via in found[owner], owner
        assert not found[owner] & {".fsum", ".sum", "sum", ".pik"}, owner

    def owners(name):
        return {owner for owner, names in found.items() if name in names}

    assert owners("_ek_weights") == {
        "averages.ek_weighted_average", "averages.correlation_sum", "twosets.invariance_gap"}
    assert owners("_adjusted_pik") == {"averages._ek_weights", "averages.ek_report"}
    assert owners(".normalize") == {"averages._ek_weights", "averages.ek_report"}
    outside = {"sieve", "averages"}
    assert {o for o in owners(".pik") if o.split(".")[0] not in outside} == {
        "cli._cmd_pik", "weights.exact_weights"}
    # OmegaProfile.harmonic_sum is the profile's own method; the two-sets floor
    # reads the sums of 1/p and of 1/m over the 2-almost primes, inv_1 and inv_2
    assert {o for o in owners(".inv_weights") if not o.startswith("averages.")} == {
        "sieve.OmegaProfile", "twosets.construct_pair"}


def test_erfc_and_harmonic_sum_are_defined_once():
    """src/omegalab defines no erfc of its own (normal_mass uses math.erfc),
    and A_N = sum 1/n has one source, the profile's own harmonic_sum."""
    names = {"erfc", "_erf_series", "_erfc_cf", "harmonic_sum"}
    found = set()
    for path in sorted(Path(omegalab.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                found.update((owner, name) for name in defined if name in names)
    assert found == {("sieve.OmegaProfile", "harmonic_sum")}
