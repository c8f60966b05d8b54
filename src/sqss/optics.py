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
uniform draw against p^k and (1 - p)^k.
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


def pbs_measure(batch: PhotonBatch, aligned: int, rng: np.random.Generator) -> np.ndarray:
    """Measure every pulse on a polarizing beam splitter in the basis whose
    aligned detector sits at ``aligned`` quarter turns (RECTILINEAR or DIAGONAL).

    Every photon clicks the aligned detector with probability
    p = cos^2(theta - beta) and the orthogonal one otherwise. A pulse of
    k photons therefore reads out the aligned angle with probability
    p^k, the orthogonal angle with probability (1 - p)^k, and is
    ambiguous otherwise; one uniform per pulse picks among the three. An
    empty pulse is vacuum. Returns one outcome code per pulse (quarter
    turns, VACUUM or AMBIGUOUS).
    """
    p_aligned = np.cos(batch.polarization - aligned * QUARTER_TURN) ** 2
    all_aligned = p_aligned**batch.count
    u = rng.random(len(p_aligned))
    codes = np.full(len(u), AMBIGUOUS, dtype=np.int8)
    codes[u < all_aligned + (1.0 - p_aligned) ** batch.count] = aligned + 2
    codes[u < all_aligned] = aligned
    codes[batch.count == 0] = VACUUM
    return codes
