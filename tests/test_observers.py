"""A traced session against an untraced one: the same law from two light paths.

A photon count is drawn only where the trace records it. Without
``trace`` the engine draws none: Eve's PNS hop reads her event from one
uniform against the chance of two or more photons, and Rec-1 reads its
detectors from the law her reading leaves or, with no PNS hop, from the
uncounted coherent pulse. With ``trace`` every stage is an observer, so
the source draws a count and each hop and splitter thins it. Both must
sort the rounds into the same histogram of sifted outcome by Eve's
event, and of both of Rec-1's arms jointly; a chi-square test of
homogeneity compares them.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from session_records import recorded
from test_engine_agreement import engine_histogram

from sqss.config import SimConfig
from sqss.optics import VACUUM
from sqss.protocol import _key_angle

ROUNDS = 200_000

SCENARIOS = [
    ("pns_n5_t09_channel1", SimConfig(receivers=5, transmission=0.9, adversary="pns",
                                      pns_channel=1, rounds=ROUNDS, parity_block=0, seed=81)),
    ("pns_n5_t09_channel3", SimConfig(receivers=5, transmission=0.9, adversary="pns",
                                      pns_channel=3, rounds=ROUNDS, parity_block=0, seed=82)),
    ("honest_n2_bs05", SimConfig(receivers=2, bs_ratio=0.5, rounds=ROUNDS, parity_block=0,
                                 seed=83)),
    # Eve reads on the last hop, so nothing is lost between her reading and Rec-1 (q = 1)
    ("pns_n1_t09_channel3", SimConfig(receivers=1, transmission=0.9, adversary="pns",
                                      pns_channel=3, rounds=ROUNDS, parity_block=0, seed=87)),
]


@pytest.mark.parametrize("config", [s[1] for s in SCENARIOS], ids=[s[0] for s in SCENARIOS])
def test_traced_and_untraced_sessions_follow_one_law(config):
    untraced = engine_histogram(config)
    traced = engine_histogram(replace(config, trace=True, seed=config.seed + 100))
    # categories neither run ever produced carry no information
    seen = (untraced + traced) > 0
    table = np.array([untraced[seen], traced[seen]])
    chi2, p, _, expected = stats.chi2_contingency(table)
    assert expected.min() >= 20, f"expected cell counts too small: {expected.min():.1f}"
    assert p > 1e-4, f"chi2 = {chi2:.1f}, p = {p:.2e}\nuntraced {table[0]}\ntraced   {table[1]}"


# Untraced, Rec-1 is the first observer of each of these and reads the
# coherent pulse; traced, it reads a photon count.
ARM_SCENARIOS = [
    ("honest_n2", SimConfig(receivers=2, rounds=ROUNDS, parity_block=0, seed=84)),
    ("tag_bs05", SimConfig(receivers=2, adversary="tag", bs_ratio=0.5, rounds=ROUNDS,
                           parity_block=0, seed=85)),
    ("impersonate_t05", SimConfig(receivers=2, transmission=0.5, adversary="impersonate",
                                  rounds=ROUNDS, parity_block=0, seed=86)),
]


def arms_histogram(config: SimConfig) -> np.ndarray:
    """Rounds binned by Rec-1's (rect, diag) outcome codes jointly, and Eve's event.

    An angle is binned as its offset in quarter turns from the honest
    angle the pulse carries into Rec-1, the key angle plus every shuffle.
    """
    _, table = recorded(config)
    carried = (_key_angle(table.bit, table.basis_choice) + table.shuffle_sum) % 4

    def arm(codes):
        return np.where(codes < VACUUM, (codes - carried) % 4, codes)

    event = np.zeros(len(table), dtype=np.int64) if table.eve_event is None else table.eve_event
    return np.bincount((arm(table.rect) * 6 + arm(table.diag)) * 2 + event, minlength=72)


@pytest.mark.parametrize("config", [s[1] for s in ARM_SCENARIOS], ids=[s[0] for s in ARM_SCENARIOS])
def test_traced_and_untraced_arms_follow_one_law(config):
    untraced = arms_histogram(config)
    traced = arms_histogram(replace(config, trace=True, seed=config.seed + 100))
    # cells too rare to test on their own are pooled into one
    rare = (untraced + traced) < 100
    table = np.array([np.append(h[~rare], h[rare].sum()) for h in (untraced, traced)])
    table = table[:, table.sum(axis=0) > 0]
    chi2, p, _, expected = stats.chi2_contingency(table)
    assert expected.min() >= 20, f"expected cell counts too small: {expected.min():.1f}"
    assert p > 1e-4, f"chi2 = {chi2:.1f}, p = {p:.2e}\nuntraced {table[0]}\ntraced   {table[1]}"


# Lossy or split traced rings: every hop, splitter and tap only removes photons.
SHRINK_ROUNDS = 20_000
SHRINK_SCENARIOS = [
    ("honest_n3_t08_bs05", SimConfig(receivers=3, transmission=0.8, bs_ratio=0.5, seed=88)),
    ("pns_n2_t09_channel3", SimConfig(transmission=0.9, adversary="pns", pns_channel=3, seed=89)),
    ("pns_n2_t09_channel4", SimConfig(transmission=0.9, adversary="pns", pns_channel=4, seed=90)),
    ("impersonate_t05", SimConfig(transmission=0.5, adversary="impersonate", seed=91)),
    ("tag_bs05", SimConfig(adversary="tag", bs_ratio=0.5, seed=92)),
]


@pytest.mark.parametrize("config", [s[1] for s in SHRINK_SCENARIOS],
                         ids=[s[0] for s in SHRINK_SCENARIOS])
def test_traced_counts_never_grow(config):
    traced = replace(config, rounds=SHRINK_ROUNDS, parity_block=0, trace=True)
    photons = recorded(traced)[1].trace_photons
    assert photons[:, 0].any()
    grown = np.flatnonzero((np.diff(photons, axis=1) > 0).any(axis=1))
    assert len(grown) == 0, f"{len(grown)} rounds gained photons, first {photons[grown[0]]}"
