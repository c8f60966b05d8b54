"""Configurations the physics equates give the same session, bit for bit.

The untraced engine reads a ring only through a few numbers: on an
honest ring the mean photon number mu_final that reaches receiver 1,
under ``pns`` the mean lambda at Eve's hop and the share q of it that
goes on to receiver 1, and under a lying receiver k only that someone
lies. So two configurations that share those numbers give the same
``SessionResult`` at the same seed. Each identity holds at every seed,
so it has no false alarm. The numbers come from README's formulas, not
from the engine's route: a hop dropped from the route or Eve's hop off
by one breaks an identity.

Two rings may differ in their number of receivers, so their receivers'
keys are compared as the set of distinct keys. The engine takes the
product of the route's shares in travel order, and these formulas in
another order, so a uniform within an ulp of a bound could split a
pair; that happens with a chance of about 1e-16 per round.
"""

from dataclasses import fields, replace

import pytest

from sqss.config import SimConfig
from sqss.protocol import SessionResult, Verdict, VerdictKind, run_session

SEEDS = range(3601, 3606)
ROUNDS = 20_000


def mu_final(mu, t, bs, n):
    """README: the mean photon number after all 2N+1 hops and Alice's splitter."""
    return mu * bs * t ** (2 * n + 1)


def channel_1_light(mu, t, bs, n):
    """README: the mean L at Eve's hop under ``pns`` on channel 1 (mu times
    the first hop) and the share q of it that reaches receiver 1 (the other
    2N hops and Alice's splitter)."""
    return mu * t, bs * t ** (2 * n)


def differing_fields(a: SessionResult, b: SessionResult) -> list[str]:
    """The fields of ``a`` and ``b`` that differ, in declaration order; the
    receivers' keys count as the set of distinct keys."""
    def seen(result, name):
        value = getattr(result, name)
        return set(value) if name == "receiver_final_keys" else value

    return [f.name for f in fields(SessionResult) if seen(a, f.name) != seen(b, f.name)]


def assert_same_session(a: SessionResult, b: SessionResult):
    differ = differing_fields(a, b)
    assert not differ, f"first field that differs: {differ[0]}"
    assert a.kept_rounds > 0  # the identity says something about the keys


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mu,t,bs,n", [(6.0, 0.9, 0.5, 3), (40.0, 0.8, 0.7, 4)])
def test_honest_ring_depends_only_on_mu_final(mu, t, bs, n, seed):
    ring = SimConfig(receivers=n, mean_photons=mu, transmission=t, bs_ratio=bs,
                     rounds=ROUNDS, seed=seed)
    session = run_session(ring)
    for receivers in (n, 150):
        lossless = replace(ring, receivers=receivers, mean_photons=mu_final(mu, t, bs, n),
                           transmission=1.0, bs_ratio=1.0)
        assert_same_session(session, run_session(lossless))


@pytest.mark.parametrize("seed", SEEDS)
def test_pns_on_channel_1_depends_only_on_lambda_and_q(seed):
    # N=2 at T=0.9 and N=5 at T' = 0.6561^(1/10) share L = 5.4 and q = 0.6561
    t = 0.6561**0.1
    short = SimConfig(receivers=2, mean_photons=6.0, transmission=0.9, adversary="pns",
                      pns_channel=1, rounds=ROUNDS, seed=seed)
    long = replace(short, receivers=5, mean_photons=5.4 / t, transmission=t)
    for a, b in zip(channel_1_light(6.0, 0.9, 1.0, 2), channel_1_light(5.4 / t, t, 1.0, 5)):
        assert a == pytest.approx(b, rel=1e-14)
    session = run_session(short)
    assert session.eve_summary.events > 0
    assert_same_session(session, run_session(long))


@pytest.mark.parametrize("seed", SEEDS)
def test_which_receiver_lies_changes_only_who_is_flagged(seed):
    ring = SimConfig(receivers=5, transmission=0.95, rounds=ROUNDS, seed=seed)
    sessions = {k: run_session(replace(ring, dishonest_receiver=k)) for k in (2, 3, 5)}
    for k, session in sessions.items():
        assert session.verdict == Verdict(VerdictKind.DISHONEST, flagged_receiver=k)
    for k in (3, 5):
        assert_same_session(sessions[2], replace(sessions[k], verdict=sessions[2].verdict))
