import math
import random

import numpy as np
import pytest
from oracles import (
    block_scan_oracle,
    extrapolated_average_by_parts,
    extrapolated_average_oracle,
)

from omegalab import weights
from omegalab.counterexample import erdos_blocks
from omegalab.errors import InvalidRangeError, RangeTooLargeError
from omegalab.weights import (
    MAX_WINDOW_POINTS,
    GaussianWindowSpec,
    WeightVector,
    approximation_report,
    erdos_weights,
    exact_weights,
    extrapolated_average,
    gaussian_weights,
    window_for,
)


def test_window_bounds():
    w = GaussianWindowSpec(loglogn=4.0, C=1.0)
    assert (w.k_lo, w.k_hi) == (2, 6)
    assert list(w.ks()) == [2, 3, 4, 5, 6]
    big = GaussianWindowSpec(loglogn=27.0, C=3.0)
    assert (big.k_lo, big.k_hi) == (12, 42)


def test_window_clamps_at_zero():
    w = GaussianWindowSpec(loglogn=1.5, C=3.0)
    assert w.k_lo == 0


def test_window_validation():
    with pytest.raises(InvalidRangeError, match="^log log N must exceed 1$"):
        GaussianWindowSpec(loglogn=0.5)
    with pytest.raises(InvalidRangeError, match="^window half-width C must be positive$"):
        GaussianWindowSpec(loglogn=4.0, C=-1.0)
    with pytest.raises(InvalidRangeError):
        window_for(10)
    with pytest.raises(InvalidRangeError, match="holds no integer k"):
        GaussianWindowSpec(loglogn=1.5, C=0.01)  # [ceil(1.488), floor(1.512)] = [2, 1]
    with pytest.raises(InvalidRangeError, match="holds no integer k"):
        window_for(10**8, C=0.01)  # log log 1e8 = 2.913: [3, 2]


@pytest.mark.parametrize("loglogn, C", [(math.nan, 3.0), (math.inf, 3.0), (4.0, math.nan),
                                        (4.0, math.inf)])
def test_window_rejects_non_finite_parameters(loglogn, C):
    with pytest.raises(InvalidRangeError):
        GaussianWindowSpec(loglogn=loglogn, C=C)


def test_window_size_limits():
    C = (MAX_WINDOW_POINTS / 2 - 1) / 2.0  # just inside, at log log N = 4
    assert GaussianWindowSpec(loglogn=4.0, C=C).k_hi < MAX_WINDOW_POINTS
    for loglogn, C in [(4.0, 2 * C), (4.0, 1e308), (1e20, 1e-12), (1e300, 3.0)]:
        with pytest.raises(RangeTooLargeError):
            GaussianWindowSpec(loglogn=loglogn, C=C)


def test_weight_vector_lookup():
    wv = WeightVector(k_lo=2, k_hi=4, weights=np.array([0.1, 0.2, 0.3]))
    assert wv.weight(3) == pytest.approx(0.2)
    assert wv.weight(1) == 0.0
    assert wv.weight(5) == 0.0
    with pytest.raises(InvalidRangeError, match="^empty weight window$"):
        WeightVector(k_lo=2, k_hi=1, weights=np.array([]))


def test_exact_weights_sum_to_one(profile_1e4):
    wv = exact_weights(profile_1e4)
    assert math.fsum(wv.weights) == pytest.approx(1.0, abs=1e-15)


def test_erdos_weights_recurrence_identity():
    N = 10**8
    window = window_for(N)
    wv = erdos_weights(window)
    L = math.log(math.log(N))
    for k in range(wv.k_lo, wv.k_hi):
        assert wv.weight(k + 1) == pytest.approx(wv.weight(k) * L / k, rel=1e-12)


def test_erdos_weights_closed_form_anchor():
    N = 10**8
    window = window_for(N)
    wv = erdos_weights(window)
    L = math.log(math.log(N))
    for k in range(max(1, window.k_lo), window.k_hi + 1):
        closed = L ** (k - 1) / math.factorial(k - 1) / math.log(N)
        assert wv.weight(k) == pytest.approx(closed, rel=1e-10)


@pytest.mark.parametrize("loglogn", [1.0001, 1.5, 2.5, 4.0, 1e6])
def test_erdos_weights_start_at_k_1_and_follow_the_window(loglogn):
    window = GaussianWindowSpec(loglogn=loglogn, C=3.0)
    wv = erdos_weights(window)
    assert (wv.k_lo, wv.k_hi) == (max(1, window.k_lo), window.k_hi)
    assert np.all(np.isfinite(wv.weights)) and np.all(wv.weights > 0)


def test_gaussian_weights_formula():
    window = GaussianWindowSpec(loglogn=4.0, C=2.0)
    wv = gaussian_weights(window)
    for k in window.ks():
        expect = math.exp(-((k - 4.0) ** 2) / 8.0) / math.sqrt(8.0 * math.pi)
        assert wv.weight(int(k)) == pytest.approx(expect, rel=1e-12)


def test_gaussian_total_mass_near_one_for_wide_window():
    window = GaussianWindowSpec(loglogn=100.0, C=3.0)
    assert extrapolated_average(lambda ks: 1.0, window).real == pytest.approx(1.0, abs=0.01)


def test_extrapolated_average_constant():
    window = GaussianWindowSpec(loglogn=50.0, C=3.0)
    mass = math.fsum(gaussian_weights(window).weights)
    got = extrapolated_average(lambda k: 1.0, window)
    assert got.real == pytest.approx(mass, abs=1e-15)
    assert got.imag == 0.0


def test_extrapolated_average_calls_a_once_on_the_window():
    window = GaussianWindowSpec(loglogn=1000.0, C=3.0)  # 190 k: one chunk
    calls = []

    def a(ks):
        calls.append(ks)
        return (ks % 2) + 0.5 * (ks % 3)  # exact, so both paths form the same products

    got = extrapolated_average(a, window)
    (ks,) = calls  # real values: no pass for the imaginary part
    assert ks.dtype == np.int64
    assert ks.tolist() == window.ks().tolist()
    expect = extrapolated_average_oracle(lambda k: (k % 2) + 0.5 * (k % 3), window)
    assert (got.real.hex(), got.imag.hex()) == (expect.real.hex(), expect.imag.hex())


@pytest.mark.parametrize("chunk", [1, 7])
def test_extrapolated_average_in_small_chunks_matches_the_oracles(monkeypatch, chunk):
    """Chunks change only which products are formed together: fsum rounds the
    exact sum of all of them, so every value is the whole window's, bit for bit."""
    monkeypatch.setattr(weights, "WINDOW_CHUNK", chunk)
    rng = random.Random(chunk)
    seq = erdos_blocks(5)
    values = [seq, lambda ks: ks % 3 == 1, lambda ks: np.exp(0.3j * ks), lambda ks: 1.0,
              lambda ks: (ks % 5) - 2.5]
    for _ in range(10):
        window = GaussianWindowSpec(loglogn=rng.uniform(1.01, 400.0), C=rng.uniform(0.5, 4.0))
        for a in values:
            assert repr(extrapolated_average(a, window)) == repr(
                extrapolated_average_by_parts(a, window))
        assert repr(extrapolated_average(seq, window)) == repr(
            extrapolated_average_oracle(lambda k: block_scan_oracle(seq.blocks, k), window))
        for a, passes in ((lambda ks: 1.0, 1), (lambda ks: 1j, 2)):  # one pass per part
            calls = []
            extrapolated_average(lambda ks: calls.append(ks) or a(ks), window)
            assert all(ks.dtype == np.int64 and 1 <= len(ks) <= chunk for ks in calls)
            assert np.concatenate(calls).tolist() == window.ks().tolist() * passes


def test_approximation_report_fields(profile_1e6):
    rep = approximation_report(profile_1e6, 3.0)
    assert rep.N == 10**6
    assert 0.0 < rep.tv_distance < 2.0
    assert rep.max_rel_err_in_window > 0.0
