"""Closed-form security quantities for the impersonation attack.

The attack succeeds silently only when Eve's discrimination works, so
its footprint in the sifted key is governed by the Poisson photon
statistics of the pulse she intercepts. This module evaluates the exact
closed form of her success probability, the induced error rate, and a
Monte Carlo cross-check that samples the rounds by runs of photon-number
classes that share one USD success: one draw per run of equal success
counts how many rounds Eve's guess flips there and how many fall in a
later run, up to the class where her success stops changing, which takes
every round left: at most 54 draws at any mean. It is exact in
distribution and never reads the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adversary import USD_RUNS, USD_SATURATION, impersonate_round

# Poisson tail mass below which the Monte Carlo's run loop takes every round left.
_TAIL_EPS = 1e-12
# Fewest Monte Carlo rounds whose error rate the standard error describes well.
MIN_TRIALS = 10_000
MAX_TRIALS = 2**63 - 1  # numpy's binomial draw takes counts up to int64 max
_R = 1.0 / math.sqrt(2.0)


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

    @classmethod
    def from_counts(cls, hits: int, trials: int) -> McEstimate:
        """The rate of ``hits`` over ``trials`` with its binomial standard error
        sqrt(mean (1 - mean) / trials); both are NaN over no trial."""
        if not trials:
            return cls(mean=math.nan, std_error=math.nan, trials=0)
        mean = hits / trials
        return cls(mean=mean, std_error=math.sqrt(mean * (1.0 - mean) / trials), trials=trials)

    def sigma_distance(self, reference: float) -> float:
        """Distance from a reference value in standard-error units."""
        if self.std_error == 0.0:
            return 0.0 if self.mean == reference else math.inf
        return abs(self.mean - reference) / self.std_error


def poisson_pmf(n: int, lam: float) -> float:
    """P[N = n] for N ~ Poisson(lam), in log space so nothing overflows at any n or lam."""
    if n < 0:
        raise ValueError(f"count must be >= 0, got {n}")
    if lam < 0.0:
        raise ValueError(f"rate must be >= 0, got {lam}")
    if lam == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(lam) - lam - math.lgamma(n + 1))


def _intercepted(mu: float, transmission: float) -> float:
    """The checked intercepted mean mu*T."""
    if mu < 0.0:
        raise ValueError(f"mean photon number must be >= 0, got {mu}")
    if not 0.0 < transmission <= 1.0:
        raise ValueError(f"transmission must be in (0, 1], got {transmission}")
    if not math.isfinite(mu * transmission):
        raise ValueError(f"mu*T must be finite, got {mu * transmission}")
    return mu * transmission


def p_e_closed_form(mu: float, transmission: float) -> float:
    """Probability that Eve's discrimination succeeds on a pulse of mean
    mu sent through transmission t: the Poisson average, at lam = mu*t,
    of the n-photon discrimination probability 1 - 2^-floor((n-1)/2).

    Pairing each odd count n = 2m+1 with the even count 2m+2, both fail
    with 2^-m, and the two sums of lam^n / (n! 2^m) are sqrt(2)*sinh(r)
    and 2*(cosh(r) - 1) at r = lam/sqrt(2). So

        P_e = 1 + e^-lam - (1 + 1/sqrt(2)) e^-(1-1/sqrt(2)) lam
                         - (1 - 1/sqrt(2)) e^-(1+1/sqrt(2)) lam,

    evaluated with expm1: the two weights sum to 2, so the constants cancel.
    """
    lam = _intercepted(mu, transmission)
    p_e = (math.expm1(-lam) - (1.0 + _R) * math.expm1(-(1.0 - _R) * lam)
           - (1.0 - _R) * math.expm1(-(1.0 + _R) * lam))
    # rounding near lam = 0 can dip below zero, and far out reach one
    return min(max(p_e, 0.0), math.nextafter(1.0, 0.0))


def p_error_closed_form(mu: float, transmission: float) -> float:
    """Sifted-key error rate induced by the impersonation attack.

    A successful discrimination is silent; a failed one leaves Eve
    guessing uniformly, which flips the decoded bit half the time. Hence
    (1 - p_e) / 2.
    """
    return (1.0 - p_e_closed_form(mu, transmission)) / 2.0


def error_curve(mu_t_values: Sequence[float]) -> list[ErrorCurvePoint]:
    """Evaluate the closed forms on a grid of intercepted mean photon numbers."""
    return [ErrorCurvePoint(mu_t=value, p_e=p_e_closed_form(value, 1.0),
                            p_error=p_error_closed_form(value, 1.0)) for value in mu_t_values]


def monte_carlo_p_error(
    mu: float, transmission: float, trials: int, rng: np.random.Generator
) -> McEstimate:
    """Estimate the impersonation error rate over independent rounds.

    The rounds are sampled by runs of photon-number classes that share one
    USD success (``USD_RUNS``): each round left falls in the run starting at
    n with probability its summed pmf / P[N >= n], and ``impersonate_round``
    draws the bits the run flips and the rounds it leaves to the next, as one
    class, since every round in it has the same outcome law. The run at
    ``USD_SATURATION`` stands for every larger class, whose law it shares: it
    takes every round left. This is exact in distribution, costs one draw per
    run, at most 54, whatever ``trials`` and the mean are, and keeps memory
    O(1). Reports the sample mean with its standard error, so a caller can
    express the gap to the closed form in sigma units.
    """
    if not MIN_TRIALS <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in {MIN_TRIALS}..{MAX_TRIALS}, got {trials}")
    lam = _intercepted(mu, transmission)
    errors, remaining, tail, pmf = 0, trials, 1.0, math.exp(-lam)
    for run in USD_RUNS:
        mass = 0.0
        for n in run:
            mass += pmf
            pmf *= lam / (n + 1)
        # the saturation or last run, or a tail lost to rounding, takes every round left
        share = 1.0 if run[0] == USD_SATURATION or mass >= tail or tail < _TAIL_EPS else mass / tail
        flipped, remaining = impersonate_round(run[0], remaining, share, rng)
        errors += flipped
        if not remaining:
            break
        tail -= mass
    return McEstimate.from_counts(errors, trials)
