"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line for its criterion; run with
``pytest -s tests/test_acceptance.py`` to see them. Tolerances are pinned
in the assertions, not configurable.
"""

import math
import subprocess
import sys
import time

import mpmath
import numpy as np
from session_records import recorded

from sqss import (
    SimConfig,
    VerdictKind,
    decode_table,
    error_curve,
    eve_mean_photons,
    monte_carlo_p_error,
    p_error_closed_form,
    run_session,
)
from sqss.analysis import poisson_pmf

# Decode table as conventionally printed, expressed in quarter turns
# with rows and columns ordered (0, pi/2, pi/4, -pi/4). Our table holds
# the negated entries; the diagonal sign convention relates the two.
CONVENTIONAL_TABLE = [
    [0, 2, 3, 1],
    [2, 0, 1, 3],
    [1, 3, 0, 2],
    [3, 1, 2, 0],
]


def _report(num: int | str, ok: bool, detail: str) -> bool:
    label = f"{num:02d}" if isinstance(num, int) else num
    print(f"[criterion {label}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _oracle_p_error(mu: float, transmission: float) -> float:
    """Brute-force the impersonation error rate at 50 decimal digits."""
    with mpmath.workdps(50):
        lam = mpmath.mpf(mu) * mpmath.mpf(transmission)
        p_ok = mpmath.mpf(0)
        for n in range(3, 600):
            pmf = mpmath.e ** -lam * lam ** n / mpmath.factorial(n)
            p_ok += pmf * (1 - mpmath.mpf(2) ** -((n - 1) // 2))
        return float((1 - p_ok) / 2)


def test_01_closed_form_working_point():
    p = p_error_closed_form(6.0, 0.5)
    oracle = _oracle_p_error(6.0, 0.5)
    near_published = abs(p - 0.3) <= 0.05
    near_oracle = abs(p - oracle) <= 1e-10
    ok = near_published and near_oracle
    assert _report(
        1,
        ok,
        f"p_error(6, 0.5) = {p:.10f}; gap to 0.3 = {abs(p - 0.3):.4f}"
        f" (<= 0.05); gap to brute force = {abs(p - oracle):.2e} (<= 1e-10)",
    )


def test_02_error_curve_shape():
    values = [round(0.1 * i, 10) for i in range(121)]
    start = time.perf_counter()
    curve = error_curve(values)
    elapsed = time.perf_counter() - start
    monotone = all(
        curve[i + 1].p_error <= curve[i].p_error for i in range(len(curve) - 1)
    )
    starts_at_half = curve[0].p_error == 0.5
    at_three = next(pt for pt in curve if pt.mu_t == 3.0)
    consistent = at_three.p_error == p_error_closed_form(6.0, 0.5)
    ok = monotone and starts_at_half and consistent and elapsed < 1.0
    assert _report(
        2,
        ok,
        f"121 points on [0, 12]: monotone={monotone},"
        f" p_error(0)={curve[0].p_error}, mu_t=3 matches closed"
        f" form={consistent}, {elapsed * 1000:.0f} ms (< 1 s)",
    )


def test_03_monte_carlo_matches_closed_form():
    rng = np.random.default_rng(20260819)
    start = time.perf_counter()
    worst = 0.0
    for lam in (0.5, 1.0, 3.0, 6.0):
        est = monte_carlo_p_error(lam, 1.0, 10**6, rng)
        worst = max(worst, est.sigma_distance(p_error_closed_form(lam, 1.0)))
    elapsed = time.perf_counter() - start
    ok = worst <= 3.0 and elapsed < 60.0
    assert _report(
        3,
        ok,
        f"10^6 rounds at mu*T in (0.5, 1, 3, 6): worst distance"
        f" {worst:.2f} sigma (<= 3), {elapsed:.1f} s (< 60 s)",
    )


def test_04_honest_sessions_agree():
    failures = []
    for idx, (receivers, transmission) in enumerate(
        [(2, None), (2, 0.5), (5, None), (5, 0.5)]
    ):
        config = SimConfig(
            receivers=receivers,
            transmission=transmission,
            rounds=10_000,
            seed=900 + idx,
        )
        result = run_session(config)
        agree = all(
            key == result.alice_final_key for key in result.receiver_final_keys
        )
        good = (
            result.qber == 0.0
            and agree
            and result.verdict.accepted
            and len(result.alice_final_key) > 0
        )
        if not good:
            failures.append((receivers, transmission, result.qber))
    ok = not failures
    assert _report(
        4,
        ok,
        "N in (2, 5) x (lossless, T=0.5), 10^4 rounds each: QBER = 0 and"
        f" exact key agreement{'' if ok else f'; failed: {failures}'}",
    )


def test_05_decode_exhaustiveness_and_table():
    config = SimConfig(receivers=2, rounds=4000, parity_block=0, seed=41)
    _, rounds = recorded(config)
    kept = rounds.sifted < 4  # the sifted arm read an angle, not vacuum (4) or ambiguous (5)
    combos = set(zip(rounds.shuffles[kept, 0].tolist(), rounds.shuffles[kept, 1].tolist(),
                     rounds.bit[kept].tolist(), rounds.basis_choice[kept].tolist()))
    wrong_bits = int(np.count_nonzero(rounds.decoded[kept] // 2 != rounds.bit[kept]))
    covered = len(combos) == 64

    table = decode_table()
    symbols = {0, 1, 2, 3}  # the key angles in quarter turns
    latin = all(set(row) == symbols for row in table) and all(
        {table[r][c] for r in range(4)} == symbols for c in range(4)
    )
    conventional = all(
        table[r][c] == (-CONVENTIONAL_TABLE[r][c]) % 4
        for r in range(4)
        for c in range(4)
    )
    ok = covered and wrong_bits == 0 and latin and conventional
    assert _report(
        5,
        ok,
        f"{len(combos)}/64 (s1, s2, bit, j) combinations seen, wrong"
        f" decodes = {wrong_bits}, table latin = {latin}, matches"
        f" conventional table up to sign = {conventional}",
    )


def test_06_dishonest_receiver_flagged():
    diverged = 0
    missed = 0
    for seed in range(1000):
        config = SimConfig(
            receivers=2,
            rounds=30,
            parity_block=0,
            dishonest_receiver=1,
            seed=seed,
        )
        result = run_session(config)
        if any(key != result.alice_final_key for key in result.receiver_final_keys):
            diverged += 1
            flagged = (
                result.verdict.kind is VerdictKind.DISHONEST
                and result.verdict.flagged_receiver == 1
            )
            if not flagged:
                missed += 1
    ok = missed == 0 and diverged >= 950
    assert _report(
        6,
        ok,
        f"1000 trials with a lying Rec-1: {diverged} diverged,"
        f" {missed} of those not flagged as Rec-1",
    )


def test_07_tag_attack_and_countermeasure():
    bare = SimConfig(
        receivers=2, rounds=100_000, adversary="tag", parity_block=0, seed=7
    )
    bare_rate = run_session(bare).eve_summary.recovery_rate

    guarded = SimConfig(
        receivers=2,
        rounds=100_000,
        adversary="tag",
        bs_ratio=0.5,
        parity_block=0,
        seed=8,
    )
    summary = run_session(guarded).eve_summary
    sigma = math.sqrt(0.25 / summary.sifted_rounds)
    distance = abs(summary.recovery_rate - 0.5) / sigma
    ok = bare_rate == 1.0 and distance <= 3.0
    assert _report(
        7,
        ok,
        f"recovery without splitter = {bare_rate} (= 1.0), with 50:50"
        f" splitter = {summary.recovery_rate:.4f}"
        f" ({distance:.2f} sigma from 0.5)",
    )


def test_08_pns_budget_and_futility():
    exact = all(
        eve_mean_photons(mu, t, c) == mu * t ** (c - 1) * (1.0 - t)
        for mu in (0.5, 2.0, 6.0, 12.0)
        for t in (0.1, 0.5, 0.9, 1.0)
        for c in (1, 3, 4)
    )
    config = SimConfig(
        receivers=2,
        transmission=0.5,
        rounds=100_000,
        adversary="pns",
        pns_channel=1,
        parity_block=0,
        seed=11,
    )
    summary = run_session(config).eve_summary
    sigma = math.sqrt(0.25 / summary.rounds)
    distance = abs(summary.guess_accuracy - 0.5) / sigma
    ok = exact and distance <= 3.0
    assert _report(
        8,
        ok,
        f"eve_mean_photons exact on 48-point grid = {exact}; guess"
        f" accuracy = {summary.guess_accuracy:.4f}"
        f" ({distance:.2f} sigma from 0.5, {summary.stored_photons} stored)",
    )


def test_09_discard_fraction_matches_vacuum_oracle():
    worst = 0.0
    for idx, mu in enumerate((0.5, 2.0, 4.0)):
        config = SimConfig(
            receivers=2,
            mean_photons=mu,
            rounds=100_000,
            parity_block=0,
            seed=300 + idx,
        )
        result = run_session(config)
        expected = math.exp(-mu / 2)
        sigma = math.sqrt(expected * (1.0 - expected) / result.rounds_executed)
        worst = max(worst, abs(result.discard_fraction - expected) / sigma)
    ok = worst <= 3.0
    assert _report(
        9,
        ok,
        f"discard fraction vs exp(-mu_final/2) at mu_final in"
        f" (0.5, 2, 4), 10^5 rounds: worst {worst:.2f} sigma (<= 3)",
    )


def _pns_discard_oracle(mu: float, hop_t: list[float], channel: int) -> float:
    """Vacuum-discard fraction when Eve's photon count carries on.

    The pulse reaching the tapped hop holds n ~ Poisson(lam) photons and
    Eve keeps one when n >= 2. Each photon she forwards reaches Rec-1
    with probability q and the sifted arm with probability 1/2, so that
    arm is empty with probability (1 - q/2)**m for the m she forwards.
    """
    lam = mu * math.prod(hop_t[:channel])
    q = math.prod(hop_t[channel:])
    cutoff = int(lam + 20.0 * math.sqrt(lam) + 20.0)
    return sum(
        poisson_pmf(n, lam) * (1.0 - q / 2.0) ** (n - 1 if n >= 2 else n)
        for n in range(cutoff + 1)
    )


def test_09b_pns_discard_fraction_matches_count_oracle():
    worst = 0.0
    for idx, channel in enumerate((1, 3)):
        config = SimConfig(
            receivers=2,
            mean_photons=6.0,
            transmission=0.5,
            rounds=50_000,
            adversary="pns",
            pns_channel=channel,
            parity_block=0,
            seed=310 + idx,
        )
        result = run_session(config)
        expected = _pns_discard_oracle(6.0, config.hop_transmissions(), channel)
        sigma = math.sqrt(expected * (1.0 - expected) / result.rounds_executed)
        worst = max(worst, abs(result.discard_fraction - expected) / sigma)
    ok = worst <= 3.0
    assert _report(
        "09b",
        ok,
        f"pns discard fraction vs the carried-count oracle at N=2, mu=6,"
        f" T=0.5, channels (1, 3), 5x10^4 rounds: worst {worst:.2f} sigma (<= 3)",
    )


def test_10_cli_outputs_are_byte_identical(tmp_path):
    cfg = tmp_path / "session.cfg"
    cfg.write_text(
        "receivers = 2\nmu = 6.0\nrounds = 500\nseed = 123\ntrace = true\n"
    )

    def run(out_name):
        out = tmp_path / out_name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "sqss",
                "simulate",
                "--config",
                str(cfg),
                "--out",
                str(out),
            ],
            capture_output=True,
        )
        return proc, out.read_bytes()

    first, rows_first = run("first.csv")
    second, rows_second = run("second.csv")
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and rows_first == rows_second
    )
    assert _report(
        10,
        ok,
        f"two runs, same seed and config: stdout identical ="
        f" {first.stdout == second.stdout}, round CSV identical ="
        f" {rows_first == rows_second}",
    )
