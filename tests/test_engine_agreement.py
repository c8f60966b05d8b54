"""The array round engine against a scalar reference round.

The reference below walks one pulse around the ring at a time with plain
Python draws (``random.Random``): a Poisson count at the source, a
Bernoulli trial per photon at every lossy hop and splitter, and a
Bernoulli trial per photon at each detector. It shares no random
stream and no array code with the engine. Each scenario sorts every
round of both into the same categories, the sifted outcome (kept with
the right bit, kept with the wrong bit, vacuum, ambiguous) split by
Eve's event where there is one (photon stored, tag survived, USD
success), and a chi-square test of homogeneity compares the two
histograms.
"""

import math
import random

import numpy as np
import pytest
from scipy import stats
from session_records import _poisson, recorded

from sqss.adversary import intercepted_mean, usd_success
from sqss.config import SimConfig
from sqss.optics import AMBIGUOUS, QUARTER_TURN, VACUUM

CATEGORIES = ("kept_correct", "kept_wrong", "vacuum", "ambiguous")


def _binomial(r: random.Random, n: int, p: float) -> int:
    return sum(r.random() < p for _ in range(n))


def _measure(r: random.Random, photons: int, polarization: float, aligned: int) -> int:
    """Outcome code of a polarizing beam splitter whose aligned angle is ``aligned`` quarter turns."""
    if photons == 0:
        return VACUUM
    clicks = _binomial(r, photons, math.cos(polarization - aligned * QUARTER_TURN) ** 2)
    if clicks == photons:
        return aligned
    return aligned + 2 if clicks == 0 else AMBIGUOUS


def reference_round(r: random.Random, config: SimConfig, hop_t: list[float]) -> tuple[str, bool]:
    """One round, pulse by pulse; returns its category and whether Eve's event happened."""
    n = config.receivers
    pns_hop = config.pns_channel if config.adversary == "pns" else 0
    event = False

    def hop_to(hop: int, photons: int) -> int:
        nonlocal event
        photons = _binomial(r, photons, hop_t[hop - 1])
        if hop == pns_hop and photons >= 2:
            event = True
            photons -= 1
        return photons

    theta = r.random() * math.pi
    photons, polarization = _poisson(r, config.mean_photons), theta
    phis, shuffles = [], []
    for i in range(1, n + 1):
        photons = hop_to(i, photons)
        phis.append(r.random() * math.pi)
        shuffles.append(r.randrange(4))
        polarization += phis[-1] + shuffles[-1] * QUARTER_TURN
    photons = hop_to(n + 1, photons)

    bit, j = r.randrange(2), r.randrange(1, 3)
    polarization += (2 * bit + j - 1) * QUARTER_TURN - theta
    if config.bs_ratio < 1.0:
        photons = _binomial(r, photons, config.bs_ratio)
    if config.adversary == "tag":
        event = config.bs_ratio == 1.0 or r.random() < config.bs_ratio
    if config.adversary == "impersonate":
        intercepted = _poisson(r, intercepted_mean(config.mean_photons, config.bs_ratio, hop_t[n + 1]))
        event = r.random() < usd_success(intercepted)
        polarization += (0 if event else r.randrange(4)) * QUARTER_TURN

    for i in range(n, 0, -1):
        photons = hop_to(2 * n + 2 - i, photons)
        polarization -= phis[i - 1]
    rect_photons = _binomial(r, photons, 0.5)
    rect = _measure(r, rect_photons, polarization, 0)
    diag = _measure(r, photons - rect_photons, polarization, 1)

    outcome = rect if (j - 1 + sum(shuffles)) % 2 == 0 else diag
    if outcome == VACUUM:
        return "vacuum", event
    if outcome == AMBIGUOUS:
        return "ambiguous", event
    decoded = (outcome - sum(shuffles)) % 4
    return ("kept_correct" if decoded // 2 == bit else "kept_wrong"), event


def reference_histogram(config: SimConfig, rounds: int, seed: int) -> np.ndarray:
    r = random.Random(seed)
    hop_t = config.hop_transmissions()
    counts = np.zeros((len(CATEGORIES), 2), dtype=np.int64)
    for _ in range(rounds):
        category, event = reference_round(r, config, hop_t)
        counts[CATEGORIES.index(category), int(event)] += 1
    return counts.ravel()


def engine_histogram(config: SimConfig) -> np.ndarray:
    _, table = recorded(config)
    kept = table.sifted < VACUUM
    category = np.select(
        [kept & (table.decoded // 2 == table.bit), kept, table.sifted == VACUUM],
        [0, 1, 2], 3,
    )
    event = np.zeros(len(table), dtype=np.int64) if table.eve_event is None else table.eve_event
    return np.bincount(category * 2 + event, minlength=2 * len(CATEGORIES))


# (scenario, config, reference rounds); the engine runs config.rounds rounds.
SCENARIOS = [
    ("honest_n2", SimConfig(receivers=2, rounds=20_000, parity_block=0, seed=61), 2_000),
    ("lossless_n5", SimConfig(receivers=5, rounds=20_000, parity_block=0, seed=62), 2_000),
    ("pns_n5_t09", SimConfig(receivers=5, transmission=0.9, adversary="pns", rounds=80_000,
                             parity_block=0, seed=63), 8_000),
    ("tag_bs05", SimConfig(receivers=2, adversary="tag", bs_ratio=0.5, rounds=20_000,
                           parity_block=0, seed=64), 2_000),
    ("impersonate_t05", SimConfig(receivers=2, transmission=0.5, adversary="impersonate",
                                  rounds=200_000, parity_block=0, seed=65), 40_000),
]


@pytest.mark.parametrize("config, rounds", [s[1:] for s in SCENARIOS], ids=[s[0] for s in SCENARIOS])
def test_engine_matches_scalar_reference(config, rounds):
    engine = engine_histogram(config)
    reference = reference_histogram(config, rounds, seed=config.seed)
    # categories neither engine ever produced carry no information
    seen = (engine + reference) > 0
    table = np.array([engine[seen], reference[seen]])
    chi2, p, _, expected = stats.chi2_contingency(table)
    assert expected.min() >= 20, f"expected cell counts too small: {expected.min():.1f}"
    assert p > 1e-4, f"chi2 = {chi2:.1f}, p = {p:.2e}\nengine    {table[0]}\nreference {table[1]}"
