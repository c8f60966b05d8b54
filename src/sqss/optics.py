"""Polarization optics for the classical-pulse simulator.

The physical model is deliberately minimal: a pulse is classically
polarized light with Poisson photon statistics. Polarization lives on
the half-circle [0, pi) because every protocol state and both
measurement bases are invariant under a pi shift. A lossy hop or a beam
splitter passes each photon independently (binomial thinning), and a
Poisson count thinned binomially is again Poisson with the product of
the transmissions. So the round engine draws the count once, at the
first point that observes it, and fuses the losses and rotations
between two observers into one call of ``thin_batch`` and
``rotate_batch``; this is exact for coherent light. A count read by an
eavesdropper (photon-number splitting) carries on to every later hop.

Detection follows Malus' law photon by photon: a photon polarized at
theta meets a polarizing beam splitter aligned with basis angle beta and
clicks the aligned detector with probability p = cos^2(theta - beta),
otherwise the orthogonal one. A pulse of k photons is read from one
uniform draw against p^k and (1 - p)^k. A pulse that nothing counted
needs no count at all: a coherent pulse of mean m splits into two
independent coherent pulses of means m*p and m*(1 - p), one per
detector, so ``coherent_measure`` reads it from one uniform draw
against e^(-m), e^(-m(1 - p)) - e^(-m) and e^(-m p) - e^(-m). The round
engine reads Rec-1's detectors that way whenever no one observed the
pulse before Rec-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

QUARTER_TURN = math.pi / 4

_ANGLE_LABELS = ("0", "pi/4", "pi/2", "-pi/4")


@dataclass(frozen=True, slots=True)
class DecisionAngle:
    """One of the four discrete protocol angles {0, pi/4, pi/2, -pi/4}.

    Encoded as quarter turns of pi/4: angle arithmetic is integer
    arithmetic mod 4, done on arrays of these counts by the round engine.
    """

    quarter_turns: int

    def __post_init__(self) -> None:
        if self.quarter_turns not in (0, 1, 2, 3):
            raise ValueError(f"quarter_turns must be in 0..3, got {self.quarter_turns}")

    @property
    def radians(self) -> float:
        return self.quarter_turns * QUARTER_TURN

    @property
    def label(self) -> str:
        return _ANGLE_LABELS[self.quarter_turns]

    def __neg__(self) -> "DecisionAngle":
        return DecisionAngle((-self.quarter_turns) % 4)


@dataclass(frozen=True, slots=True)
class PhotonBatch:
    """The pulses of a chunk of rounds, one entry per round: each pulse's
    photon count, all of its photons sharing one polarization in [0, pi)."""

    count: np.ndarray
    polarization: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.count < 0):
            raise ValueError(f"counts must be >= 0, got {np.min(self.count)}")


# Each basis, named by the quarter turns of its aligned detector; the
# orthogonal detector reads two quarter turns further on.
RECTILINEAR = 0  # distinguishes {0, pi/2}
DIAGONAL = 1     # distinguishes {pi/4, -pi/4}

# Codes of an array of measurement outcomes: 0..3 read that angle in quarter turns.
VACUUM = 4
AMBIGUOUS = 5


def rotate_batch(batch: PhotonBatch, delta: np.ndarray | float) -> PhotonBatch:
    """Rotate each polarization by ``delta`` (one angle, or one per pulse);
    the photon counts are untouched."""
    turned = np.mod(batch.polarization + delta, math.pi)
    # a tiny negative sum can round up to exactly pi
    return PhotonBatch(batch.count, np.where(turned < math.pi, turned, 0.0))


def split_batch(
    batch: PhotonBatch, ratio: float, rng: np.random.Generator
) -> tuple[PhotonBatch, PhotonBatch]:
    """Split every pulse on a beam splitter: each photon independently takes
    the first port with probability ``ratio``. Polarization is shared."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"split ratio must be in [0, 1], got {ratio}")
    first = rng.binomial(batch.count, ratio)
    return (
        PhotonBatch(first, batch.polarization),
        PhotonBatch(batch.count - first, batch.polarization),
    )


def _detector_codes(vacuum, aligned_only, orthogonal_only, aligned, u: np.ndarray) -> np.ndarray:
    """Outcome codes of a polarizing beam splitter whose aligned detector sits at
    ``aligned`` quarter turns (an int, or one per pulse), from each pulse's
    probabilities of no click, of clicks on the aligned detector only and on
    the orthogonal one only (the rest is ambiguous), and one uniform per pulse.
    """
    below = vacuum + aligned_only
    # the intervals of u: vacuum, aligned only, orthogonal only, ambiguous;
    # int8 arithmetic keeps the per-pulse temporaries at one byte
    codes = aligned + 2 * (u >= below).view(np.int8)
    codes[u >= below + orthogonal_only] = AMBIGUOUS
    codes[u < vacuum] = VACUUM
    return codes


def pbs_measure(
    batch: PhotonBatch, aligned: int | np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Measure every pulse on a polarizing beam splitter in the basis whose
    aligned detector sits at ``aligned`` quarter turns (RECTILINEAR or
    DIAGONAL, one for all pulses or one per pulse).

    Every photon clicks the aligned detector with probability
    p = cos^2(theta - beta) and the orthogonal one otherwise. A pulse of
    k photons is therefore vacuum with probability 0^k, reads out the
    aligned angle with probability p^k and the orthogonal angle with
    probability (1 - p)^k, and is ambiguous otherwise; one uniform per
    pulse picks among the four. Returns one outcome code per pulse
    (quarter turns, VACUUM or AMBIGUOUS).
    """
    p_aligned = np.cos(batch.polarization - aligned * QUARTER_TURN) ** 2
    u = rng.random(len(p_aligned))
    vacuum = batch.count == 0  # 0^k
    return _detector_codes(
        vacuum, p_aligned**batch.count, (1.0 - p_aligned) ** batch.count, aligned, u
    )


def coherent_measure(
    polarization: np.ndarray, mean: float, aligned: int, rng: np.random.Generator
) -> np.ndarray:
    """Measure coherent pulses of ``mean`` photons whose number nothing has
    counted, on the polarizing beam splitter of ``pbs_measure``.

    The aligned and orthogonal detectors receive independent Poisson
    numbers of photons, of means m*p and m*(1 - p) with
    p = cos^2(theta - beta), so a pulse is vacuum with probability
    e^(-m), reads out the aligned angle with probability
    e^(-m(1 - p)) - e^(-m), the orthogonal angle with e^(-m p) - e^(-m),
    and is ambiguous otherwise. ``polarization`` need not be reduced
    into [0, pi). Returns one outcome code per pulse, as ``pbs_measure``.
    """
    p_aligned = np.cos(polarization - aligned * QUARTER_TURN) ** 2
    vacuum = math.exp(-mean)
    no_orthogonal = np.exp(-mean * (1.0 - p_aligned))
    no_aligned = np.exp(-mean * p_aligned)
    u = rng.random(len(p_aligned))
    return _detector_codes(vacuum, no_orthogonal - vacuum, no_aligned - vacuum, aligned, u)
