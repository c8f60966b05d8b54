"""A traced session against an untraced one: the same law from two light paths.

Without ``trace`` the engine draws light only where it is observed, Eve's
PNS hop and Rec-1, and fuses every loss and rotation in between. With
``trace`` every stage is an observer, so each hop and splitter thins the
pulse on its own. Both must sort the rounds into the same histogram of
sifted outcome by Eve's event; a chi-square test of homogeneity compares
them.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from test_engine_agreement import engine_histogram

from sqss.config import SimConfig

ROUNDS = 200_000

SCENARIOS = [
    ("pns_n5_t09_channel1", SimConfig(receivers=5, transmission=0.9, adversary="pns",
                                      pns_channel=1, rounds=ROUNDS, parity_block=0, seed=81)),
    ("pns_n5_t09_channel3", SimConfig(receivers=5, transmission=0.9, adversary="pns",
                                      pns_channel=3, rounds=ROUNDS, parity_block=0, seed=82)),
    ("honest_n2_bs05", SimConfig(receivers=2, bs_ratio=0.5, rounds=ROUNDS, parity_block=0,
                                 seed=83)),
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
