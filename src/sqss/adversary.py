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
from typing import Sequence

import numpy as np

from .optics import MeasurementBasis, PhotonBatch, pbs_measure


@dataclass(frozen=True, slots=True)
class NoAttack:
    pass


@dataclass(frozen=True, slots=True)
class PnsSplit:
    """Tap the given channel (travel-order hop index) with a QND counter."""

    channel_index: int = 1


@dataclass(frozen=True, slots=True)
class TagPhoton:
    pass


@dataclass(frozen=True, slots=True)
class Impersonate:
    pass


EveStrategy = NoAttack | PnsSplit | TagPhoton | Impersonate


@dataclass(frozen=True, slots=True)
class EveSummary:
    strategy: str
    rounds: int
    sifted_rounds: int
    recovered_bits: int
    recovery_rate: float | None = None
    guess_accuracy: float | None = None
    usd_success_rate: float | None = None
    stored_photons: int | None = None


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


def usd_success(n: int) -> float:
    """Probability that unambiguous discrimination of the four key angles
    succeeds on an n-photon pulse: zero below three photons, then
    1 - (1/2)**floor((n-1)/2).
    """
    if n < 0:
        raise ValueError(f"photon count must be >= 0, got {n}")
    if n < 3:
        return 0.0
    # discrimination always keeps a failure channel, so the probability
    # stays strictly below one even where the subtraction would round up
    return min(1.0 - 0.5 ** ((n - 1) // 2), math.nextafter(1.0, 0.0))


def pns_intercept(batch: PhotonBatch) -> tuple[PhotonBatch, np.ndarray]:
    """QND-count every pulse at the tapped hop and skim one photon where possible.

    A count of two or more lets Eve keep one photon in quantum memory
    and forward the remainder; otherwise the pulse passes untouched.
    Either way the count she read is the one later hops carry on.
    Returns the forwarded pulses and the mask of rounds where she kept a
    photon, which shares the pulse's polarization.
    """
    stored = batch.count >= 2
    return PhotonBatch(batch.count - stored, batch.polarization), stored


def tag_attack_rounds(size: int, bs_ratio: float, rng: np.random.Generator) -> np.ndarray:
    """The idealized tagging attack on a chunk of rounds: where the tag survives.

    A surviving tag reveals the key angle once the basis is public. The
    sender's countermeasure beam splitter (ratio < 1) passes it with
    probability equal to the ratio.
    """
    return rng.random(size) < bs_ratio if bs_ratio < 1.0 else np.ones(size, dtype=bool)


def intercepted_mean(mu: float, bs_ratio: float, hop_t: Sequence[float]) -> float:
    """Mean photon number of the encoded pulse where the impersonator catches it.

    Alice's pulse leaves her storage splitter (transmitted ratio
    ``bs_ratio``) and Eve takes it after the first backward hop, the
    one from Alice toward Rec-N, which is hop N+2 in travel order.
    """
    return mu * bs_ratio * hop_t[len(hop_t) // 2 + 1]


def impersonate_round(n: int, pulses: int, rng: np.random.Generator) -> int:
    """How many receivers' bits Eve flips over ``pulses`` rounds of n photons each.

    In each round she attempts unambiguous discrimination, which succeeds
    with the n-dependent probability and then hits the true angle; on
    failure she guesses uniformly among the four angles. A guess off by
    half a turn flips the receivers' bit, and one off by an odd number of
    quarter turns lands in the wrong basis, where the bit is a fair coin.
    The rounds are i.i.d., so each outcome is counted with one binomial
    draw over the whole class.
    """
    failed = pulses - int(rng.binomial(pulses, usd_success(n)))
    flips = int(rng.binomial(failed, 0.25))
    odd = int(rng.binomial(failed - flips, 2.0 / 3.0))
    return flips + int(rng.binomial(odd, 0.5))


def impersonate_rounds(
    counts: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Eve's USD event on a chunk of intercepted pulses with these photon counts.

    Returns Eve's guess offsets in quarter turns and the mask of rounds
    where her discrimination succeeded. The success probability of each
    count is read from a table of ``usd_success``.
    """
    success_of = np.array([usd_success(n) for n in range(int(counts.max(initial=0)) + 1)])
    success = rng.random(len(counts)) < success_of[counts]
    return np.where(success, 0, rng.integers(4, size=len(counts))), success


def ml_single_photon_estimator(
    stored: PhotonBatch, basis_choice: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Eve's PNS bit guesses: measure each stored photon in the announced basis.

    ``stored`` holds one photon in the rounds where she kept one and none
    elsewhere; there the guess is a fair coin. One photon always produces
    a definite click, whose angle maps to a bit the same way the
    receivers map theirs.
    """
    guesses = rng.integers(2, size=len(basis_choice))
    for j, basis in ((1, MeasurementBasis.RECTILINEAR), (2, MeasurementBasis.DIAGONAL)):
        rows = np.flatnonzero((basis_choice == j) & (stored.count > 0))
        codes = pbs_measure(PhotonBatch(stored.count[rows], stored.polarization[rows]), basis, rng)
        guesses[rows] = codes // 2
    return guesses
