"""Closed forms, Wilson intervals (vs. exact enumeration), tail bound."""

import math
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbcsim import rng as streams
from qbcsim.kernel import run_sessions
from qbcsim.protocol import Decision, SessionConfig, run_honest_session
from qbcsim.stats import (
    ConfidenceInterval,
    binomial_ci,
    decode_error_bound,
    expected_raw_correlation,
    expected_sifted_correlation,
)


# -- closed forms ------------------------------------------------------------

def test_expected_raw_correlation_values():
    assert expected_raw_correlation(0.0) == 0.75
    assert expected_raw_correlation(0.5) == 0.625
    assert expected_raw_correlation(1.0) == 0.5
    with pytest.raises(ValueError):
        expected_raw_correlation(1.2)
    with pytest.raises(ValueError):
        expected_raw_correlation(-0.1)


def test_expected_sifted_correlation_values():
    assert expected_sifted_correlation(0.0) == 1.0
    assert expected_sifted_correlation(0.5) == 0.75
    assert expected_sifted_correlation(1.0) == 0.5
    with pytest.raises(ValueError):
        expected_sifted_correlation(2.0)


def test_closed_forms_affine_decreasing_and_coincide_at_one():
    grid = np.linspace(0.0, 1.0, 21)
    raw = [expected_raw_correlation(e) for e in grid]
    sifted = [expected_sifted_correlation(e) for e in grid]
    assert all(a > b for a, b in zip(raw, raw[1:]))
    assert all(a > b for a, b in zip(sifted, sifted[1:]))
    # affine: second differences vanish
    assert np.allclose(np.diff(raw, 2), 0.0)
    assert np.allclose(np.diff(sifted, 2), 0.0)
    assert raw[-1] == sifted[-1] == 0.5


def test_sifted_law_against_monte_carlo():
    # 1 - e/2 at e=0.5 -> 0.75 on sifted positions, n=100000.
    report = run_honest_session(
        SessionConfig(n=100000, committed_bit=0, error_fraction=0.5, seed=91)
    )
    assert abs(report.alignment.direct_rate - 0.75) < 0.01


def test_analytic_empirical_agreement_both_laws():
    for e in (0.0, 0.25, 0.5, 0.75, 1.0):
        report = run_honest_session(
            SessionConfig(
                n=100000, committed_bit=0, error_fraction=e,
                seed=streams.derive_seed(92, round(e * 100)),
            )
        )
        raw_bound = 3 * math.sqrt(0.25 / 100000) + 0.002
        assert abs(report.raw_direct_correlation - expected_raw_correlation(e)) < raw_bound
        s = report.alignment.sift_size
        sifted_bound = 3 * math.sqrt(0.25 / s) + 0.002
        assert abs(report.alignment.direct_rate - expected_sifted_correlation(e)) < sifted_bound


# -- Wilson intervals ----------------------------------------------------------

def test_wilson_values_frozen_from_closed_form():
    ci = binomial_ci(50, 100, 0.95)
    assert ci.contains(0.5)
    assert abs((ci.high - ci.low) - 0.19) < 0.02
    assert ci.low == pytest.approx(0.403832, abs=1e-5)
    assert ci.high == pytest.approx(0.596168, abs=1e-5)

    full = binomial_ci(100, 100, 0.95)
    assert full.high == 1.0
    assert full.low > 0.95

    boundary = binomial_ci(0, 1, 0.95)
    assert boundary.low == 0.0


@given(
    trials=st.integers(1, 2000),
    data=st.data(),
    level=st.sampled_from([0.8, 0.9, 0.95, 0.99]),
)
def test_wilson_always_brackets_the_point_estimate(trials, data, level):
    successes = data.draw(st.integers(0, trials))
    ci = binomial_ci(successes, trials, level)
    assert 0.0 <= ci.low <= ci.high <= 1.0
    assert ci.contains(successes / trials)


def test_wilson_rejects_bad_inputs():
    with pytest.raises(ValueError):
        binomial_ci(5, 0)
    with pytest.raises(ValueError):
        binomial_ci(5, 4)
    with pytest.raises(ValueError):
        binomial_ci(1, 2, 1.0)
    with pytest.raises(ValueError, match=r"^invalid interval \[0.6, 0.4\]$"):
        ConfidenceInterval(0.6, 0.4, 0.95)


def _exact_coverage(n: int, p: float, level: float) -> float:
    """Enumeration oracle: true coverage of the Wilson interval."""
    total = 0.0
    for k in range(n + 1):
        if binomial_ci(k, n, level).contains(p):
            total += comb(n, k) * p**k * (1 - p) ** (n - k)
    return total


def test_wilson_exact_coverage_near_nominal():
    # The oracle, not sampling: coverage at p=0.75, n=100 draws/interval.
    coverage = _exact_coverage(100, 0.75, 0.95)
    assert 0.93 <= coverage <= 0.97


def test_wilson_sampled_coverage_950_of_1000():
    coverage_hits = 0
    rng = streams.substream(404, 0)
    for _ in range(1000):
        k = int(rng.binomial(100, 0.75))
        coverage_hits += binomial_ci(k, 100, 0.95).contains(0.75)
    assert abs(coverage_hits - 950) <= 25


# -- decode failure bound ------------------------------------------------------

def test_decode_error_bound_formula_and_edges():
    # t = (1 - e/2 - 1/2 - delta)/2; bound = 2*exp(-2*s*t^2) clamped.
    t = (0.75 - 0.5 - 0.10) / 2
    assert decode_error_bound(128, 0.5, 0.10) == pytest.approx(
        2 * math.exp(-2 * 128 * t * t)
    )
    assert decode_error_bound(10, 1.0, 0.10) == 1.0  # gap closed
    assert decode_error_bound(10, 0.8, 0.10) == 1.0  # t <= 0 exactly at e=0.8
    assert decode_error_bound(3, 0.0, 0.0) <= 1.0
    with pytest.raises(ValueError):
        decode_error_bound(0, 0.5)


def test_decode_error_bound_monotone_in_sift_size():
    values = [decode_error_bound(s, 0.5, 0.10) for s in (8, 32, 128, 512, 2048)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_decode_error_bound_is_conservative_empirically():
    # Wrong-bit decode failures at n=256, e=0.5 over seeded trials never
    # exceed the mean per-trial bound.
    trials = 2000
    seeds = [streams.derive_seed(505, t) for t in range(trials)]
    _bits, scores = run_sessions(seeds, 256, 0.5, 0.0, bit=1)
    failures = np.count_nonzero(scores.decisions == Decision.BIT0)
    bounds = [decode_error_bound(int(s), 0.5, 0.10) for s in scores.sift]
    assert failures / trials <= float(np.mean(bounds))
