"""Polarization optics for the classical-pulse simulator.

The physical model is deliberately minimal: a pulse is classically
polarized light with Poisson photon statistics. The round engine's light
is an array of photon counts, one per round. Polarization is kept apart:
no loss, splitter or counter turns a photon and no rotation changes a
count, so a pulse's polarization after any stage is the sum of the
parties' rotations up to there, folded with ``rotate`` only where
something reads it. It lives on the half-circle [0, pi) because every
protocol state and both measurement bases are invariant under a pi
shift. A lossy hop or a beam splitter passes each photon independently
(binomial thinning), and a Poisson count thinned binomially is again
Poisson with the product of the transmissions. So the round engine
draws the count once, at the first point that observes it, and fuses
the losses between two observers into one ``thin_batch`` call; this is
exact for coherent light. A count read by an eavesdropper
(photon-number splitting) carries on to every later hop.

Detection follows Malus' law photon by photon: a photon polarized at
theta meets a polarizing beam splitter aligned with basis angle beta and
clicks the aligned detector with probability p = cos^2(theta - beta)
(``malus``), otherwise the orthogonal one. A pulse of k photons is read
from one uniform draw against p^k and (1 - p)^k (``pbs_measure``). A
pulse that nothing counted needs no count at all: a coherent pulse of
mean m splits into two independent coherent pulses of means m*p and
m*(1 - p), one per detector, so ``coherent_measure`` reads it from one
uniform draw against e^(-m), e^(-m(1 - p)) - e^(-m) and e^(-m p) - e^(-m).

The readers take p, not an angle. Rec-1's detector law depends only on
the exact angle it receives, a whole number of quarter turns (the
hiding angles theta and phi_i cancel around the ring), so the round
engine looks p up in ``MALUS`` and never evaluates a cosine there;
only Eve's stored photons carry a float polarization into ``malus``.
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


# Each basis, named by the quarter turns of its aligned detector; the
# orthogonal detector reads two quarter turns further on.
RECTILINEAR = 0  # distinguishes {0, pi/2}
DIAGONAL = 1     # distinguishes {pi/4, -pi/4}

# Codes of an array of measurement outcomes: 0..3 read that angle in quarter turns.
VACUUM = 4
AMBIGUOUS = 5


def rotate(polarization: np.ndarray, delta: np.ndarray | float) -> np.ndarray:
    """Turn each polarization by ``delta`` (one angle, or one per pulse),
    reduced into [0, pi)."""
    turned = np.mod(polarization + delta, math.pi)
    # a tiny negative sum can round up to exactly pi
    return np.where(turned < math.pi, turned, 0.0)


# Malus' p at 0, 1, 2 and 3 quarter turns off the aligned detector, exactly.
MALUS = np.array([1.0, 0.5, 0.0, 0.5])


def malus(polarization: np.ndarray, aligned: int | np.ndarray) -> np.ndarray:
    """Malus' p = cos^2(theta - beta): the probability that a photon at
    ``polarization`` clicks the detector aligned at ``aligned`` quarter turns."""
    return np.cos(polarization - aligned * QUARTER_TURN) ** 2


def _detector_codes(vacuum, below, above, aligned, u: np.ndarray) -> np.ndarray:
    """Outcome codes of a polarizing beam splitter whose aligned detector sits at
    ``aligned`` quarter turns (an int, or one per pulse), from one uniform per
    pulse and each pulse's cumulative probabilities: ``vacuum`` of no click,
    ``below`` of no click or clicks on the aligned detector only, ``above``
    of those or clicks on the orthogonal one only (the rest is ambiguous).
    """
    # the intervals of u: vacuum, aligned only, orthogonal only, ambiguous;
    # int8 arithmetic keeps the per-pulse temporaries at one byte
    codes = aligned + 2 * (u >= below).view(np.int8)
    codes[u >= above] = AMBIGUOUS
    codes[u < vacuum] = VACUUM
    return codes


def pbs_measure(
    count: np.ndarray, p_aligned: np.ndarray, aligned: int | np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Measure pulses of ``count`` photons each on a polarizing beam splitter
    in the basis whose aligned detector sits at ``aligned`` quarter turns
    (RECTILINEAR or DIAGONAL, one for all pulses or one per pulse).

    Every photon of a pulse clicks the aligned detector with its Malus
    probability ``p_aligned`` and the orthogonal one otherwise. A pulse of
    k photons is therefore vacuum with probability 0^k, reads out the
    aligned angle with probability p^k and the orthogonal angle with
    probability (1 - p)^k, and is ambiguous otherwise; one uniform per
    pulse picks among the four. Returns one outcome code per pulse
    (quarter turns, VACUUM or AMBIGUOUS).
    """
    u = rng.random(len(count))
    vacuum = count == 0  # 0^k
    below = vacuum + p_aligned**count
    return _detector_codes(vacuum, below, below + (1.0 - p_aligned) ** count, aligned, u)


def coherent_measure(
    mean: float, p_aligned: np.ndarray, index: np.ndarray, aligned: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Measure coherent pulses of ``mean`` photons whose number nothing has
    counted, on the polarizing beam splitter of ``pbs_measure``.

    ``p_aligned`` holds the Malus probability of each distinct
    polarization and ``index`` picks one per pulse. The aligned and
    orthogonal detectors receive independent Poisson numbers of photons,
    of means m*p and m*(1 - p), so a pulse is vacuum with probability
    e^(-m), reads out the aligned angle with probability
    e^(-m(1 - p)) - e^(-m), the orthogonal angle with e^(-m p) - e^(-m),
    and is ambiguous otherwise. The law is evaluated once per distinct
    polarization. Returns one outcome code per pulse, as ``pbs_measure``.
    """
    vacuum = math.exp(-mean)
    below = np.exp(-mean * (1.0 - p_aligned))  # the orthogonal detector stays dark
    above = below + np.exp(-mean * p_aligned) - vacuum
    u = rng.random(len(index))
    return _detector_codes(vacuum, below[index], above[index], aligned, u)
