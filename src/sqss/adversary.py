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

from dataclasses import dataclass

import numpy as np

from .optics import malus


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


def pns_intercept(count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QND-count every pulse at the tapped hop and skim one photon where possible.

    A count of two or more lets Eve keep one photon in quantum memory
    and forward the remainder; otherwise the pulse passes untouched.
    Either way the count she read is the one later hops carry on.
    Returns the forwarded photon counts and the mask of rounds where she
    kept a photon, which shares the pulse's polarization.
    """
    stored = count >= 2
    return count - stored, stored


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
    failure she guesses uniformly among the four angles. A guess off by half a
    turn flips the receivers' bit, and one off by an odd number of quarter
    turns lands in the wrong basis, where the bit is a fair coin. The rounds
    are i.i.d., so one multinomial draw counts every outcome at once: success,
    a failed guess off by nothing, by a half turn, or by an odd quarter turn
    with the bit flipped or kept, and a round outside the class.
    """
    success = usd_success(n)
    # 1 - success is a power of two, so at share 1 the five class cells sum
    # to exactly one and no round is left
    quarter = share * (1.0 - success) / 4.0
    _, _, half, odd_flipped, _, left = rng.multinomial(
        pulses, [share * success, quarter, quarter, quarter, quarter, 1.0 - share]).tolist()
    return half + odd_flipped, left


def impersonate_rounds(
    counts: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Eve's USD event on a chunk of intercepted pulses with these photon counts.

    Returns Eve's guess offsets in quarter turns, as int8, and the mask of
    rounds where her discrimination succeeded.
    """
    success = rng.random(len(counts)) < usd_success(counts)
    return np.where(success, 0, rng.integers(4, size=len(counts))).astype(np.int8), success


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
    """
    # family j reads in RECTILINEAR (0) or DIAGONAL (1)
    p = np.where(stored, malus(polarization, basis_choice - 1), 0.5)
    return rng.random(len(stored)) >= p
