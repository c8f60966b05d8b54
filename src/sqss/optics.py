"""Polarization optics for the classical-pulse simulator.

The physical model is deliberately minimal: a pulse is classically
polarized light with Poisson photon statistics, and the round engine's
light is the law of its photon count. Polarization is kept apart: no
loss, splitter or counter turns a photon and no rotation changes a
count, so a pulse's polarization after any stage is the sum of the
parties' rotations up to there, folded with ``rotate`` only where
something reads it. It lives on [0, pi) because every protocol state and
both measurement bases are invariant under a pi shift. Losses and
splitters thin the count (``channel``). The four discrete protocol
angles, and the outcomes that read them, are ints 0..3.

Detection follows Malus' law photon by photon: a photon polarized at
theta meets a polarizing beam splitter aligned with basis angle beta and
clicks the aligned detector with probability p = cos^2(theta - beta)
(``malus``), otherwise the orthogonal one. Eve reads her one stored
photon this way, from one uniform draw against p
(``adversary.ml_single_photon_estimator``).

Rec-1 reads both arms of its 50:50 splitter from one uniform per pulse
(``rec1_measure``): at the whole quarter turns it receives, ``MALUS``
gives each of its four detectors a fixed share of the photons, so the
uniform reads their joint law from a table of four dark probabilities
per class of light, with no draw of the split or of the last loss in
front of Rec-1. The definite arm alone, which sifting keeps unless an
impersonator turned the pulse by an odd quarter turn, reads from the
same uniform with one comparison (``rec1_definite``).
"""

from __future__ import annotations

import math

import numpy as np

# The protocol angles {0, pi/4, pi/2, -pi/4} are ints 0..3 counting these quarter
# turns, named by ANGLE_LABELS: angle arithmetic is integer arithmetic mod 4.
QUARTER_TURN = math.pi / 4
ANGLE_LABELS = ("0", "pi/4", "pi/2", "-pi/4")

# Each basis, named by the quarter turns of its aligned detector; the
# orthogonal detector reads two quarter turns further on.
RECTILINEAR = 0  # distinguishes {0, pi/2}
DIAGONAL = 1     # distinguishes {pi/4, -pi/4}

# Codes of an array of measurement outcomes: 0..3 read that angle in quarter turns.
VACUUM = 4
AMBIGUOUS = 5


def uniform_z4(shape: int | tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Independent uniform values on Z4, as int8 0..3, of ``shape``.

    Each value is the low two bits of one byte of the generator's raw
    64-bit words, ceil(count / 8) of them, read as little-endian bytes so
    that every host gives the same values; a value's low bit alone is a
    fair bit. This is several times faster than ``rng.integers``.
    """
    count = math.prod(shape) if isinstance(shape, tuple) else shape
    words = rng.bit_generator.random_raw(-(-count // 8))
    return (np.asarray(words, "<u8").view(np.int8)[:count] & 3).reshape(shape)


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


def _rec1_codes() -> np.ndarray:
    """Rec-1's rect and diag codes (rows) by 8 * arrived + cell, a cell being
    4 * definite + 2 * orthogonal + aligned, the ``rec1_measure`` detectors
    that clicked. Malus' p of 1 or 0 makes an arm's aligned or orthogonal
    detector the definite one; 1/2 puts its two on the split pair."""
    aligned = np.array([RECTILINEAR, DIAGONAL])[:, None, None]
    p, cell = MALUS[(np.arange(4)[:, None] - aligned) & 3], np.arange(8)
    aligned_lit = np.where(p == 0.5, cell & 1, (p == 1.0) & (cell >= 4)).astype(bool)
    orthogonal_lit = np.where(p == 0.5, cell & 2, (p == 0.0) & (cell >= 4)).astype(bool)
    codes = np.select([aligned_lit & orthogonal_lit, aligned_lit, orthogonal_lit],
                      [AMBIGUOUS, aligned, aligned + 2], VACUUM)
    return codes.astype(np.int8).reshape(2, 32)


_REC1_CODES = _rec1_codes()


def dark_points(share: float) -> np.ndarray:
    """The column of y_k = 1 - kq/4, k = 1..4, for photons that each reach
    Rec-1's splitter with probability ``share`` (q): g_k is the generating
    function of the photons sent on toward the splitter, taken at y_k."""
    return 1.0 - np.arange(1, 5)[:, None] * share / 4


def coherent_dark(mean: float) -> tuple[np.ndarray, np.ndarray]:
    """Rec-1's dark table for the coherent pulse, of ``mean`` photons at its
    splitter: one class, g_k = e^(-k mean/4); returns it and its one column."""
    return np.array([[math.exp(-k * mean / 4)] for k in range(1, 5)]), np.zeros(1, np.intp)


def _rec1_bounds(dark: np.ndarray) -> np.ndarray:
    """The seven bounds ``rec1_measure`` ranks a uniform against, per class
    of the dark table: g4, g3, 2g3 - g4, g2, 2g2 - g4 and then o more twice,
    o = g1 - g2 - g3 + g4. A uniform's cell is the number of bounds at or
    below it, so cell c has the probability of the step from bound c - 1
    (0 before the first) to bound c (1 after the last). Rounding can put
    a step of zero width one ulp either side of zero, so the bounds are
    returned as their running maximum: in order, with no step below zero."""
    g1, g2, g3, g4 = dark
    o = g1 - g2 - g3 + g4
    top = 2 * g2 - g4
    return np.maximum.accumulate(np.array([g4, g3, 2 * g3 - g4, g2, top, top + o, top + o + o]),
                                 axis=0)


def rec1_measure(
    arrived: np.ndarray, dark: np.ndarray, column: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split 50:50 and measure one arm per basis; returns both arms' outcome codes.

    ``dark`` holds g_k, the probability that k quarters of a pulse's
    photons stay dark, for k = 1..4 (rows) and each class of light
    (columns); ``column`` gives each pulse's class, or one class for all.
    The classes are the coherent pulse (``coherent_dark``) and Eve's
    reading of it (``adversary.pns_dark``).

    At ``arrived`` quarter turns one arm is definite: all its photons hit
    the detector that reads ``arrived`` (the rect arm when even). The
    other arm's two detectors take half of its photons each. In quarters
    of the photons reaching the splitter the four detectors take 2, 0, 1
    and 1, so the law needs only g_k. Its eight cells, {definite dark,
    lit} x {other arm dark, aligned only, orthogonal only, both}, end at
    the bounds of ``_rec1_bounds``; each pulse's uniform ``u`` picks a
    cell by counting the bounds at or below it.
    """
    cell = arrived * 8
    for bound in _rec1_bounds(dark):
        cell += u >= bound.take(column)
    rect, diag = np.take(_REC1_CODES, cell, axis=1)
    return rect, diag


def rec1_definite(
    arrived: np.ndarray, dark: np.ndarray, column: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """The definite arm's code (``rec1_measure``) from the same uniforms:
    ``arrived`` where its detector is lit, ``VACUUM`` elsewhere. It is lit
    in cells 4 to 7, where ``u`` is at or above bound 3, the running
    maximum of g2, so the one comparison matches the ranking bit for bit."""
    lit = u >= _rec1_bounds(dark)[3].take(column)
    return VACUUM + (arrived - VACUUM) * lit  # np.where is several times slower here
