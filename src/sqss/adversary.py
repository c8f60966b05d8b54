"""Eavesdropping strategies and their closed-form building blocks.

Three attacks on the ring are modeled. Photon-number splitting taps one
fiber segment with a quantum non-demolition counter and skims a photon
from multiphoton pulses. Photon tagging marks the pulse so it can be
recognized after the sender's encoding; the sender's beam-splitter
countermeasure destroys the tag probabilistically. Impersonation sits
between the sender and the ring, feeds the receivers a substitute
pulse, and unambiguously discriminates the encoding on the real one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optics import QUARTER_TURN, malus, uniform_z4


@dataclass(frozen=True, slots=True)
class EveSummary:
    """Eve's tally over a session: the rounds her strategy is scored on (the
    kept ones under ``tag``, every one otherwise), the bits she recovered
    there, and her events (surviving tags, stored photons or USD successes)."""

    strategy: str
    trials: int
    recovered_bits: int
    events: int

    @property
    def rate(self) -> float | None:
        return self.recovered_bits / self.trials if self.trials else None


def eve_mean_photons(mu: float, transmission: float, channel_index: int) -> float:
    """Mean photon number Eve can skim per pulse from one tapped channel.

    The pulse reaching channel c has been attenuated c-1 times, and the
    tap collects the fraction the fiber would have lost on that hop:
    mu * T**(c-1) * (1 - T).
    """
    if mu <= 0.0:
        raise ValueError(f"mean photon number must be positive, got {mu}")
    if not 0.0 < transmission <= 1.0:
        raise ValueError(f"transmission must be in (0, 1], got {transmission}")
    if channel_index not in (1, 3, 4):
        raise ValueError(f"tappable channels are 1, 3 and 4, got {channel_index}")
    return mu * transmission ** (channel_index - 1) * (1.0 - transmission)


# the first photon count at usd_success's cap of 53 halvings, past which it is constant
USD_SATURATION = 2 * 53 + 1


def usd_success(n):
    """Probability that unambiguous discrimination of the four key angles
    succeeds on an n-photon pulse, for one count or an array of them:
    zero below three photons, then 1 - (1/2)**floor((n-1)/2).
    """
    # np.any would cost microseconds on the Monte Carlo's Python ints
    if n < 0 if isinstance(n, int) else np.any(n < 0):
        raise ValueError(f"photon counts must be >= 0, got {np.min(n)}")
    halvings = (n - 1) // 2 * (n >= 3)
    # discrimination always keeps a failure channel, so the probability
    # stays strictly below one: past 53 halvings the subtraction would round up
    return 1.0 - 0.5 ** (halvings - (halvings > 53) * (halvings - 53))


# the runs of consecutive photon counts that share one usd_success: {0, 1, 2},
# {3, 4}, ..., {105, 106} and {USD_SATURATION}, which stands for every count from it on
_RUN_STARTS = [0] + [n for n in range(1, USD_SATURATION + 1)
                     if usd_success(n) != usd_success(n - 1)]
USD_RUNS = tuple(map(range, _RUN_STARTS, _RUN_STARTS[1:] + [USD_SATURATION + 1]))


# 1/(n+2)! for n = 29 down to 0: Horner's order for the series of e^x P2(x) / x^2,
# taken below x = 2, where its last term is under 2^29 / 31!, 7e-26
_SKIM_SERIES = [1.0 / math.factorial(n + 2) for n in reversed(range(30))]


def _skim_weight(x: float) -> float:
    """P2(x) / x^2, where P2(x) = 1 - e^-x (1 + x) is the probability that
    a Poisson pulse of mean x holds two or more photons. Below x = 2 it
    sums the series e^-x (1/2! + x/3! + x^2/4! + ...), with no cancellation
    at small x; from 2 on, the closed form stays finite at any mean the
    config takes."""
    if x >= 2.0:
        return (-math.expm1(-x) - x * math.exp(-x)) / (x * x)
    series = 0.0
    for coefficient in _SKIM_SERIES:
        series = series * x + coefficient
    return math.exp(-x) * series


def pns_intercept(mean: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """QND-count ``size`` coherent pulses of Poisson ``mean`` at the tapped
    hop and skim one photon where there are two or more: Eve keeps it in
    quantum memory, sharing the pulse's polarization, and forwards the rest.
    No count is drawn: one uniform per pulse against P2(mean), the
    probability of two or more photons, reads her event, and Rec-1 reads
    the law it leaves (``pns_dark``). Returns the mask of rounds where she
    kept a photon.
    """
    return rng.random(size) < mean * mean * _skim_weight(mean)


def pns_dark(mean: float, share: float) -> list[list[float]]:
    """Rec-1's dark table (``optics.rec1_measure``) after Eve's reading of
    pulses of Poisson ``mean`` at her hop, each photon she forwards reaching
    Rec-1's splitter with probability ``share`` (q), in Python floats.

    Column 0 holds the pulses she kept nothing from (n <= 1, forwarded
    whole), column 1 those she kept a photon from (n >= 2, forwarding
    n - 1): a pulse's column is her event, ``stored`` viewed as int8.
    g_k is the forwarded photons' generating function at y_k = 1 - kq/4,
    k = 1..4, where each photon stays dark with probability y_k:
    (1 + mean y) / (1 + mean), as 1 - kd with d = q mean / (4 (1 + mean))
    rounded to a multiple of 2^-53, so that every cell that needs two
    photons is empty, and e^(-mean (1 - y)) P2(mean y) / (y P2(mean)),
    which is 0 at y = 0.
    """
    weight = _skim_weight(mean)
    d = round(share * mean / (4.0 * (1.0 + mean)) * 2**53) / 2**53
    ys = (1.0 - k * share / 4 for k in range(1, 5))
    return [[1.0 - k * d, y * math.exp(-mean * (1.0 - y)) * _skim_weight(mean * y) / weight]
            for k, y in enumerate(ys, start=1)]


def tag_attack_rounds(size: int, bs_ratio: float, rng: np.random.Generator) -> np.ndarray:
    """The idealized tagging attack on a chunk of rounds: where the tag survives.

    A surviving tag reveals the key angle once the basis is public. The
    sender's countermeasure beam splitter (ratio < 1) passes it with
    probability equal to the ratio.
    """
    return rng.random(size) < bs_ratio if bs_ratio < 1.0 else np.ones(size, dtype=bool)


def intercepted_mean(mu: float, bs_ratio: float, t: float) -> float:
    """Mean photon number of the encoded pulse where the impersonator catches it.

    Alice's pulse leaves her storage splitter (transmitted ratio
    ``bs_ratio``) and Eve takes it after the first backward hop, the
    one from Alice toward Rec-N, which passes the ring's hop
    transmission ``t``.
    """
    return mu * bs_ratio * t


def impersonate_round(
    n: int, pulses: int, share: float, rng: np.random.Generator
) -> tuple[int, int]:
    """Over ``pulses`` rounds, each in the n-photon class with probability
    ``share``: how many receivers' bits Eve flips, and how many rounds fall
    outside the class.

    In each round of the class she attempts unambiguous discrimination, which
    succeeds with the n-dependent probability and then hits the true angle; on
    failure she guesses uniformly among the four angles. A guess off by nothing
    keeps the receivers' bit, one off by half a turn flips it, and one off by an
    odd number of quarter turns lands in the wrong basis, where the bit is a
    fair coin: a failed round flips with 1/4 + 2/4 * 1/2. The rounds are
    i.i.d., so two binomial draws give both counts: the rounds inside the class
    (every one at share 1, with no draw), and the flips among them.
    """
    success = usd_success(n)
    inside = pulses if share == 1.0 else rng.binomial(pulses, share)
    # 1 - success is a power of two, so the flip probability is exact
    return rng.binomial(inside, (1.0 - success) * (1 / 4 + 2 / 4 * 1 / 2)), pulses - inside


def impersonate_rounds(
    mean: float, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Eve's USD event on ``size`` intercepted pulses of Poisson ``mean``.

    Her pulse is independent of the substitute she sends on, so its photon
    count is a draw of its own. Returns Eve's guess offsets in quarter
    turns, as int8 (0 where she succeeded, a uniform guess on Z4 from
    ``optics.uniform_z4`` elsewhere), and the mask of rounds where her
    discrimination succeeded.
    """
    counts = rng.poisson(mean, size)
    success = rng.random(size) < usd_success(counts)
    return uniform_z4(size, rng) * ~success, success


def _malus_float32(polarization: np.ndarray, aligned: np.ndarray) -> np.ndarray:
    """Malus' p (``optics.malus``) in float32, in place after the cast: within
    about 4e-7 of the float64 p, most of it from rounding the polarization."""
    p = polarization.astype(np.float32)
    p -= aligned * np.float32(QUARTER_TURN)
    np.cos(p, out=p)
    return np.square(p, out=p)


# A uniform this close to the float32 p is read against the float64 p:
# 2^-16 is over 60 times float32's error
_FLOAT32_SCREEN = 2.0**-16


def ml_single_photon_estimator(
    stored: np.ndarray, polarization: np.ndarray, basis_choice: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Eve's PNS bit guesses: measure each stored photon, at its
    ``polarization``, in the announced basis.

    ``stored`` marks the rounds where she kept a photon; elsewhere the
    guess is a fair coin. One photon always clicks one detector: the
    aligned one, which reads bit 0 the way the receivers read theirs,
    with Malus' p, else the orthogonal one, bit 1. One uniform per round
    picks the guess, bit 1 where it is at least p (1/2 with no photon).

    p is taken in float32, several times faster than float64 here, and
    decides every round whose uniform lies more than 2^-16 from it; the
    rest are read against the float64 p (``optics.malus``), so every
    guess is the float64 read.
    """
    # family j reads in RECTILINEAR (0) or DIAGONAL (1)
    d = _malus_float32(polarization, basis_choice - 1)
    d[np.logical_not(stored)] = 0.5
    u = rng.random(len(stored))  # drawn once the temporaries above are gone
    np.subtract(u, d, out=d, dtype=np.float32)  # u - p
    guess = d >= 0.0
    near = np.abs(d, out=d) <= _FLOAT32_SCREEN
    if near.any():  # the float64 read
        near = np.flatnonzero(near)
        guess[near] = u[near] >= np.where(
            stored[near], malus(polarization[near], basis_choice[near] - 1), 0.5)
    return guess
