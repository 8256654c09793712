"""Closed-form expectations, estimators, and bounds for session statistics.

The two agreement laws, for a result-randomization fraction e:

* Raw (all positions, correct pairing): an untouched result agrees with
  the sent bit with probability 3/4 (bases match half the time and then
  agree surely, else a coin), a randomized one with probability 1/2, so
  the agreement is (1-e)*(3/4) + e*(1/2) = 3/4 - e/4.
* Sifted (matching-basis positions): untouched results agree surely,
  randomized ones are coins, so the agreement is (1-e)*1 + e*(1/2)
  = 1 - e/2.

Both are affine and decreasing in e and meet at e = 1 (value 1/2, pure
noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .rng import check_count, check_fraction


@dataclass(frozen=True)
class ConfidenceInterval:
    low: float
    high: float
    level: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.low <= self.high <= 1.0:
            raise ValueError(f"invalid interval [{self.low}, {self.high}]")

    def contains(self, p: float) -> bool:
        return self.low <= p <= self.high


def expected_raw_correlation(error_fraction: float) -> float:
    """Expected correct-pairing agreement over all positions: 3/4 - e/4."""
    check_fraction("error_fraction", error_fraction)
    return 0.75 - 0.25 * error_fraction


def expected_sifted_correlation(error_fraction: float) -> float:
    """Expected correct-pairing agreement on sifted positions: 1 - e/2."""
    check_fraction("error_fraction", error_fraction)
    return 1.0 - 0.5 * error_fraction


def binomial_ci(successes: int, trials: int, level: float = 0.95) -> ConfidenceInterval:
    """Two-sided Wilson score interval for a binomial proportion.

    Chosen over the normal approximation for its sane behaviour at small
    counts and at the 0/1 boundaries; the interval always contains the
    point estimate successes/trials.
    """
    check_count("trials", trials, 1)
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, {trials}], got {successes}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)
    )
    # The interval contains p in exact arithmetic; the min/max repair the
    # one-ulp float drift at the 0 and 1 boundaries.
    return ConfidenceInterval(
        low=max(0.0, min(center - margin, p)),
        high=min(1.0, max(center + margin, p)),
        level=level,
    )


def decode_error_bound(
    sift_size: int, error_fraction: float, separation_delta: float = 0.10
) -> float:
    """Hoeffding-style upper bound on honest decode failure probability.

    With the correct pairing expected at c = 1 - e/2 and the wrong pairing
    at 1/2, splitting the usable gap gives t = (c - 1/2 - delta) / 2; the
    decode can only fail if one of the two empirical rates deviates by at
    least t, so by the union of two Hoeffding tails the failure probability
    is at most 2*exp(-2*s*t^2), clamped to [0, 1].  Returns 1 when the gap
    is closed (t <= 0).
    """
    check_count("sift_size", sift_size, 1)
    check_fraction("error_fraction", error_fraction)
    t = (expected_sifted_correlation(error_fraction) - 0.5 - separation_delta) / 2.0
    if t <= 0.0:
        return 1.0
    return min(1.0, 2.0 * math.exp(-2.0 * sift_size * t * t))
