"""Closed-form security quantities for the impersonation attack.

The attack succeeds silently only when Eve's discrimination works, so
its footprint in the sifted key is governed by the Poisson photon
statistics of the pulse she intercepts. This module evaluates the exact
series for her success probability, the induced error rate, and a Monte
Carlo cross-check that samples the rounds class by class: how many fall
in each photon-number class, then how many of those Eve's guess flips.
It is exact in distribution and never sums the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adversary import impersonate_round, usd_success

# Poisson tail mass below which the discrimination series and the Monte Carlo's
# class loop are truncated.
_TAIL_EPS = 1e-12
# Fewest Monte Carlo rounds whose error rate the standard error describes well.
MIN_TRIALS = 10_000


@dataclass(frozen=True, slots=True)
class ErrorCurvePoint:
    mu_t: float
    p_e: float
    p_error: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_e <= 1.0:
            raise ValueError(f"p_e out of range: {self.p_e}")
        if not 0.0 <= self.p_error <= 0.5:
            raise ValueError(f"p_error out of range: {self.p_error}")


@dataclass(frozen=True, slots=True)
class McEstimate:
    mean: float
    std_error: float
    trials: int

    def sigma_distance(self, reference: float) -> float:
        """Distance from a reference value in standard-error units."""
        if self.std_error == 0.0:
            return 0.0 if self.mean == reference else math.inf
        return abs(self.mean - reference) / self.std_error


def poisson_pmf(n: int, lam: float) -> float:
    """P[N = n] for N ~ Poisson(lam), stable for large n via log space."""
    if n < 0:
        raise ValueError(f"count must be >= 0, got {n}")
    if lam < 0.0:
        raise ValueError(f"rate must be >= 0, got {lam}")
    if lam == 0.0:
        return 1.0 if n == 0 else 0.0
    if n <= 20:
        return math.exp(-lam) * lam**n / math.factorial(n)
    return math.exp(n * math.log(lam) - lam - math.lgamma(n + 1))


def p_e_closed_form(mu: float, transmission: float) -> float:
    """Probability that Eve's discrimination succeeds on a pulse of mean
    mu sent through transmission t: sum over n >= 3 of the Poisson
    weight times the n-photon discrimination probability.

    The series is cut off once the remaining Poisson tail is below
    1e-12, which bounds the truncation error by the same amount.
    """
    if mu < 0.0:
        raise ValueError(f"mean photon number must be >= 0, got {mu}")
    if not 0.0 < transmission <= 1.0:
        raise ValueError(f"transmission must be in (0, 1], got {transmission}")
    lam = mu * transmission
    if lam == 0.0:
        return 0.0
    cutoff = int(lam + 20.0 * math.sqrt(lam) + 20.0)
    total = 0.0
    mass = 0.0
    for n in range(cutoff + 1):
        p = poisson_pmf(n, lam)
        mass += p
        if n >= 3:
            total += p * usd_success(n)
            if 1.0 - mass < _TAIL_EPS:
                break
    return total


def p_error_closed_form(mu: float, transmission: float) -> float:
    """Sifted-key error rate induced by the impersonation attack.

    A successful discrimination is silent; a failed one leaves Eve
    guessing uniformly, which flips the decoded bit half the time. Hence
    (1 - p_e) / 2.
    """
    return (1.0 - p_e_closed_form(mu, transmission)) / 2.0


def error_curve(mu_t_values: Sequence[float]) -> list[ErrorCurvePoint]:
    """Evaluate the closed forms on a grid of intercepted mean photon numbers."""
    points = []
    for value in mu_t_values:
        if value < 0.0:
            raise ValueError(f"mu*t grid values must be >= 0, got {value}")
        p_e = p_e_closed_form(value, 1.0) if value > 0.0 else 0.0
        points.append(ErrorCurvePoint(mu_t=value, p_e=p_e, p_error=(1.0 - p_e) / 2.0))
    return points


def monte_carlo_p_error(
    mu: float, transmission: float, trials: int, rng: np.random.Generator
) -> McEstimate:
    """Estimate the impersonation error rate over independent rounds.

    The rounds are sampled by photon-number class: how many of those left
    hold exactly n photons is one binomial draw at pmf(n) / P[N >= n], and
    ``impersonate_round`` counts the bits that class flips. This is exact
    in distribution, costs O(classes) whatever ``trials`` is, and keeps
    memory O(1). Reports the sample mean with its standard error, so a
    caller can express the gap to the closed form in sigma units.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"at least {MIN_TRIALS} trials are required, got {trials}")
    if mu < 0.0:
        raise ValueError(f"mean photon number must be >= 0, got {mu}")
    if not 0.0 < transmission <= 1.0:
        raise ValueError(f"transmission must be in (0, 1], got {transmission}")
    lam = mu * transmission
    errors, remaining, tail, n = 0, trials, 1.0, 0
    while remaining:
        pmf = poisson_pmf(n, lam)
        # the last class, or the tail mass is lost to rounding: take every round left
        if pmf >= tail or tail < _TAIL_EPS:
            count = remaining
        else:
            count = int(rng.binomial(remaining, pmf / tail))
        errors += impersonate_round(n, count, rng)
        remaining -= count
        tail -= pmf
        n += 1
    mean = errors / trials
    variance = mean * (1.0 - mean) * trials / (trials - 1)
    return McEstimate(mean=mean, std_error=math.sqrt(variance / trials), trials=trials)
