"""The trace against a counted walk of the light: the same law from two light paths.

The engine draws no photon count. A traced session draws each stage's
count behind the chunk, from its law given what the physics read: Eve's
event and the detectors Rec-1 lit. The reference here is the counted
walk a traced session used to run, with no code from the trace: a
Poisson count at the source, thinned binomially by every step's share,
Eve keeping one photon where her hop holds two or more, and Rec-1
reading the count at its splitter with g_k = y_k^m. The traced and the
untraced session must end alike, and both paths must sort the rounds
into the same classes, Eve's event by Rec-1's cell, with the same
histogram of each stage's count in every class. Chi-square tests of
homogeneity compare them.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from session_records import recorded

from sqss.config import SimConfig
from sqss.optics import AMBIGUOUS, VACUUM, dark_points, rec1_measure
from sqss.protocol import _key_angle, _route, run_session

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


def rec1_classes(rect, diag, arrived, stored):
    """Each round's class: 8 * Eve's event + 4 * the definite arm lit + the
    other arm's outcome (0 dark, 1 its aligned detector, 2 its orthogonal
    one, 3 both)."""
    odd = arrived & 1
    definite, other = np.where(odd, diag, rect), np.where(odd, rect, diag)
    state = np.select([other == VACUUM, other == AMBIGUOUS, other == 1 - odd], [0, 3, 1], 2)
    return stored * 8 + (definite != VACUUM) * 4 + state


def counted_walk(config: SimConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``ROUNDS`` rounds of the counted walk: each stage's count (columns)
    and each round's class."""
    rng = np.random.default_rng(seed)
    count = rng.poisson(config.mean_photons, ROUNDS)
    stored = np.zeros(ROUNDS, dtype=np.int64)
    stages = []
    for step, share in _route(config):
        count = rng.binomial(count, share)
        if config.adversary == "pns" and step == config.pns_channel:
            stored = (count >= 2).astype(np.int64)
            count = count - stored
        if isinstance(step, str):
            stages.append(count)
    # the last stage is Rec-1's, so every photon it holds reaches the splitter
    arrived = rng.integers(4, size=ROUNDS)
    counts, column = np.unique(count, return_inverse=True)
    u = rng.random(ROUNDS)
    rect, diag = rec1_measure(arrived, np.power(dark_points(1.0), counts), column, u)
    return np.column_stack(stages), rec1_classes(rect, diag, arrived, stored)


def traced_session(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """The engine's traced session: each stage's count and each round's
    class; its result must be the untraced session's."""
    result, table = recorded(replace(config, trace=True))
    assert result == run_session(config)
    arrived = (_key_angle(table.bit, table.basis_choice) + table.shuffle_sum
               + (0 if table.eve_offset is None else table.eve_offset)) & 3
    stored = table.eve_event if config.adversary == "pns" else np.zeros(len(table), dtype=bool)
    return table.trace_photons, rec1_classes(table.rect, table.diag, arrived, stored.astype(np.int64))


def homogeneity_pvalue(engine: np.ndarray, reference: np.ndarray) -> float | None:
    """A chi-square test of homogeneity of two samples' histograms; None
    when fewer than two cells are common enough to test."""
    top = max(engine.max(), reference.max()) + 1
    table = np.array([np.bincount(engine, minlength=top), np.bincount(reference, minlength=top)])
    # cells too rare to test on their own are pooled into one, and left
    # out when even the pool is too rare
    rare = table.sum(axis=0) < 100
    table = np.column_stack((table[:, ~rare], table[:, rare].sum(axis=1)))
    table = table[:, table.sum(axis=0) >= 100]
    if table.shape[1] < 2:
        return None
    chi2, p, _, expected = stats.chi2_contingency(table)
    assert expected.min() >= 20, f"expected cell counts too small: {expected.min():.1f}"
    return p


def assert_follows_the_counted_walk(config: SimConfig) -> None:
    engine, engine_class = traced_session(config)
    reference, reference_class = counted_walk(config, config.seed + 100)
    p = homogeneity_pvalue(engine_class, reference_class)
    assert p > 1e-4, f"classes: p = {p:.2e}"
    for cls in range(16):
        rows, reference_rows = engine[engine_class == cls], reference[reference_class == cls]
        if min(len(rows), len(reference_rows)) < 100:
            continue
        for stage in range(engine.shape[1]):
            # a stage that holds what the stage before it held tests nothing new
            if stage and all((s[:, stage] == s[:, stage - 1]).all() for s in (rows, reference_rows)):
                continue
            p = homogeneity_pvalue(rows[:, stage], reference_rows[:, stage])
            assert p is None or p > 1e-4, f"class {cls}, stage {stage}: p = {p:.2e}"


@pytest.mark.parametrize("config", [s[1] for s in SCENARIOS], ids=[s[0] for s in SCENARIOS])
def test_traced_and_untraced_sessions_follow_one_law(config):
    assert_follows_the_counted_walk(config)


# Rings where no one reads the light before Rec-1, which reads the
# coherent pulse: each lit detector's count is zero-truncated Poisson.
ARM_SCENARIOS = [
    ("honest_n2", SimConfig(receivers=2, rounds=ROUNDS, parity_block=0, seed=84)),
    ("tag_bs05", SimConfig(receivers=2, adversary="tag", bs_ratio=0.5, rounds=ROUNDS,
                           parity_block=0, seed=85)),
    ("impersonate_t05", SimConfig(receivers=2, transmission=0.5, adversary="impersonate",
                                  rounds=ROUNDS, parity_block=0, seed=86)),
]


@pytest.mark.parametrize("config", [s[1] for s in ARM_SCENARIOS], ids=[s[0] for s in ARM_SCENARIOS])
def test_traced_and_untraced_arms_follow_one_law(config):
    assert_follows_the_counted_walk(config)


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


@pytest.mark.parametrize("channel", [1, 3])
@pytest.mark.parametrize("mu", [1e-6, 1e15])
def test_extreme_means_trace_within_the_route(mu, channel):
    # the trace's sampler at both ends of the means: it finishes, no count
    # grows along the route, and Rec-1 holds no photon exactly where its
    # cell is all dark
    config = SimConfig(receivers=3, mean_photons=mu, transmission=0.9, adversary="pns",
                       pns_channel=channel, rounds=SHRINK_ROUNDS, parity_block=0, seed=93,
                       trace=True)
    table = recorded(config)[1]
    photons = table.trace_photons
    assert (photons >= 0).all() and not (np.diff(photons, axis=1) > 0).any()
    dark = (table.rect == VACUUM) & (table.diag == VACUUM)
    assert table.trace_stages[-1] == "rec1_backward"
    assert ((photons[:, -1] == 0) == dark).all()
