import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from session_records import recorded

from sqss import adversary
from sqss.adversary import (
    USD_SATURATION,
    eve_mean_photons,
    impersonate_round,
    intercepted_mean,
    ml_single_photon_estimator,
    pns_intercept,
    tag_attack_rounds,
    usd_success,
)
from sqss.analysis import monte_carlo_p_error
from sqss.config import SimConfig
from sqss.optics import QUARTER_TURN
from sqss.protocol import _run_round, run_session


class TestUsdSuccess:
    def test_below_three_photons_impossible(self):
        assert usd_success(0) == 0.0
        assert usd_success(1) == 0.0
        assert usd_success(2) == 0.0

    def test_known_values(self):
        assert usd_success(3) == 0.5
        assert usd_success(4) == 0.5
        assert usd_success(5) == 0.75
        assert usd_success(6) == 0.75
        assert usd_success(7) == 0.875

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            usd_success(-1)

    def test_saturation_is_the_first_count_at_the_cap(self):
        # a Monte Carlo walk that ended one class early would give every
        # larger class class 106's law; no statistical test sees 2^-52
        assert usd_success(106) < usd_success(USD_SATURATION) == usd_success(10**6)

    @given(st.integers(0, 1000))
    def test_monotone_and_bounded(self, n):
        assert 0.0 <= usd_success(n) < 1.0
        assert usd_success(n + 1) >= usd_success(n)

    def test_arrays_match_the_scalar_form(self):
        counts = np.array([0, 1, 2, 3, 4, 5, 6, 7, 106, 107, 108, 109, 10**9])
        assert usd_success(counts).tolist() == [usd_success(int(n)) for n in counts]
        assert usd_success(10**9) == math.nextafter(1.0, 0.0)
        with pytest.raises(ValueError):
            usd_success(np.array([3, -1]))


class TestEveMeanPhotons:
    def test_first_channel(self):
        assert eve_mean_photons(4.0, 0.5, 1) == pytest.approx(2.0)

    def test_lossless_leaves_nothing(self):
        assert eve_mean_photons(4.0, 1.0, 1) == 0.0

    def test_third_channel(self):
        assert eve_mean_photons(8.0, 0.5, 3) == pytest.approx(1.0)

    def test_only_accessible_channels(self):
        for c in (0, 2, 5, -1):
            with pytest.raises(ValueError):
                eve_mean_photons(4.0, 0.5, c)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            eve_mean_photons(0.0, 0.5, 1)
        with pytest.raises(ValueError):
            eve_mean_photons(4.0, 0.0, 1)
        with pytest.raises(ValueError):
            eve_mean_photons(4.0, 1.1, 1)

    @given(
        st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.001, max_value=0.999, allow_nan=False),
    )
    def test_total_tap_budget_below_mu(self, mu, t):
        total = sum(eve_mean_photons(mu, t, c) for c in (1, 3, 4))
        assert total < mu

    @pytest.mark.parametrize("t,channel,bs_ratio,seed", [
        *(pytest.param(t, c, 1.0, 170 + c + int(10 * t), id=f"{t}-{c}")
          for t in (0.5, 0.9) for c in (1, 3, 4)),
        # Alice's storage splitter sits behind hop N+1 = 3: a tap there sees
        # all of the light, a tap on hop 4 only the share she passes on
        pytest.param(0.9, 3, 0.5, 193, id="0.9-3-bs0.5"),
        pytest.param(0.9, 4, 0.5, 194, id="0.9-4-bs0.5"),
    ])
    def test_stored_photon_fraction_matches_the_simulation(self, t, channel, bs_ratio, seed):
        # eve_mean_photons is the paper's tap budget, not a simulated
        # statistic. The engine's counterpart: Eve stores one photon from
        # every pulse of two or more at her hop, whose count is Poisson
        # with the mean carried that far. Over 150 seeds the z-scores at
        # (4, 0.5) and (1, 0.9) had mean within 0.05 of 0 and sd within 0.06 of 1.
        config = SimConfig(receivers=2, mean_photons=6.0, transmission=t, rounds=200_000,
                           adversary="pns", pns_channel=channel, bs_ratio=bs_ratio,
                           parity_block=0, seed=seed)
        summary = run_session(config).eve_summary
        lam = config.mean_photons * math.prod(config.hop_transmissions()[:channel])
        if channel > config.receivers + 1:
            lam *= bs_ratio
        expected = 1.0 - math.exp(-lam) * (1.0 + lam)
        sigma = math.sqrt(expected * (1.0 - expected) / config.rounds)
        assert abs(summary.events / summary.trials - expected) < 3 * sigma


class TestPnsIntercept:
    def test_single_photon_passes_untouched(self):
        out, stored = pns_intercept(np.array([1]))
        assert out.tolist() == [1]
        assert not stored.any()

    def test_five_photons_split(self):
        out, stored = pns_intercept(np.array([5]))
        assert out.tolist() == [4]
        assert stored.tolist() == [True]

    def test_coherent_pulse_is_counted_first(self):
        # Eve counts the photons the source drew; she does not draw her own.
        # The trace holds the count leaving the source and the one she forwards.
        rng = np.random.default_rng(1)
        config = SimConfig(receivers=1, mean_photons=40.0, adversary="pns", pns_channel=1,
                           trace=True)
        table = _run_round(1, config, rng)
        pulse, out = table.trace_photons[:, 0], table.trace_photons[:, 1]
        # mean 40 makes n >= 2 essentially certain
        assert out.tolist() == (pulse - 1).tolist()
        assert table.eve_event.tolist() == [True]

    def test_works_without_state(self):
        # Eve keeps no state across calls: each chunk returns its own mask.
        out, stored = pns_intercept(np.array([0, 1, 2, 3]))
        assert out.tolist() == [0, 1, 1, 2]
        assert stored.tolist() == [False, False, True, True]

    @pytest.mark.parametrize("receivers", (2, 5))
    @pytest.mark.parametrize("channel", (1, 3, 4))
    def test_stored_photon_polarization_matches_the_secrets(self, receivers, channel, monkeypatch):
        # The polarization Eve measures, re-derived round by round from the
        # parties' secrets. Hop c <= N+1 follows the source and the first c-1
        # receivers' forward turns: theta + sum(phi_i + s_i). Later hops
        # follow Alice, who swapped theta for k, and the backward turns that
        # stripped phi_i from every receiver past Rec-(2N+2-c): k + sum(s_i)
        # + the phi_i left.
        measured = []

        def spy(stored, polarization, basis_choice, rng):
            measured.append(polarization)
            return ml_single_photon_estimator(stored, polarization, basis_choice, rng)

        monkeypatch.setattr(adversary, "ml_single_photon_estimator", spy)
        config = SimConfig(receivers=receivers, transmission=0.9, adversary="pns",
                           pns_channel=channel, rounds=400, seed=50 + channel + receivers)
        run_session(config)
        _, table = recorded(config)
        plain, polarization = measured  # one chunk each
        # the records draw the secrets Eve does not read after hers, from their own stream
        assert plain.tobytes() == polarization.tobytes()
        assert len(polarization) == len(table)
        qt = math.pi / 4
        for r in range(len(table)):
            theta, phis, shuffles = table.theta[r], table.phis[r].tolist(), table.shuffles[r]
            if channel <= receivers + 1:
                turned = channel - 1  # receivers passed forward
                expected = theta + sum(phis[:turned]) + qt * int(shuffles[:turned].sum())
            else:
                key = 2 * int(table.bit[r]) + int(table.basis_choice[r]) - 1
                hidden = 2 * receivers + 2 - channel  # receivers not yet passed backward
                expected = qt * (key + int(shuffles.sum())) + sum(phis[:hidden])
            gap = (polarization[r] - expected) % math.pi
            assert min(gap, math.pi - gap) < 1e-9, (r, polarization[r], expected)


class TestTagAttack:
    def test_no_countermeasure_always_succeeds(self):
        rng = np.random.default_rng(0)
        assert tag_attack_rounds(50, 1.0, rng).tolist() == [True] * 50
        # without the splitter there is nothing to draw
        assert rng.random() == np.random.default_rng(0).random()

    def test_passthrough_splitter_always_succeeds(self):
        rng = np.random.default_rng(0)
        assert tag_attack_rounds(1, 1.0, rng).tolist() == [True]

    def test_countermeasure_survival_is_bernoulli(self):
        rng = np.random.default_rng(314)
        n = 100000
        survived = np.count_nonzero(tag_attack_rounds(n, 0.5, rng))
        sigma = math.sqrt(0.25 / n)
        assert abs(survived / n - 0.5) < 3 * sigma


class TestImpersonation:
    def test_forced_zero_photons_is_a_pure_guess(self):
        # Discrimination never works on vacuum, so the error rate is the
        # wrong-guess average: 1/4 silent + 1/4 flip + 1/2 coin = 1/2.
        rng = np.random.default_rng(21)
        n_trials = 100000
        errors, _ = impersonate_round(0, n_trials, 1.0, rng)
        sigma = math.sqrt(0.25 / n_trials)
        assert abs(errors / n_trials - 0.5) < 3 * sigma

    def test_forced_ten_photons_rarely_errs(self):
        rng = np.random.default_rng(22)
        n_trials = 100000
        errors, _ = impersonate_round(10, n_trials, 1.0, rng)
        expected = (1.0 - usd_success(10)) / 2.0
        sigma = math.sqrt(expected * (1 - expected) / n_trials)
        assert abs(errors / n_trials - expected) < 3 * sigma

    def test_round_marginal_matches_closed_form(self):
        from sqss.analysis import p_error_closed_form

        rng = np.random.default_rng(23)
        n_trials = 50000
        usd_mean = intercepted_mean(6.0, 1.0, 0.5)
        classes = np.bincount(rng.poisson(usd_mean, n_trials))
        errors = sum(impersonate_round(n, int(c), 1.0, rng)[0] for n, c in enumerate(classes))
        expected = p_error_closed_form(6.0, 0.5)
        sigma = math.sqrt(expected * (1 - expected) / n_trials)
        assert abs(errors / n_trials - expected) < 3 * sigma

    @pytest.mark.parametrize("share", [1.0, 0.3])
    @pytest.mark.parametrize("n", [0, 3, 10])
    def test_class_draw_has_binomial_margins(self, n, share):
        # One multinomial draw over the rounds: those outside the class are
        # Binomial(pulses, 1 - share), none at share 1, and the flips are
        # Binomial(pulses, share * (1 - P_usd(n)) / 2).
        pulses = 10**6
        flipped, left = impersonate_round(n, pulses, share, np.random.default_rng(25 + n))
        for count, p in ((left, 1.0 - share), (flipped, share * (1.0 - usd_success(n)) / 2.0)):
            assert abs(count - pulses * p) <= 4 * math.sqrt(pulses * p * (1.0 - p))

    def test_parameter_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            impersonate_round(-1, 10, 1.0, rng)
        with pytest.raises(ValueError):
            monte_carlo_p_error(-1.0, 0.5, 10000, rng)
        with pytest.raises(ValueError):
            monte_carlo_p_error(6.0, 0.0, 10000, rng)

    def test_session_cost_does_not_grow_with_mu(self):
        # the engine evaluates Eve's success probability on the counts
        # themselves, with no table as long as the largest count
        cfg = SimConfig(receivers=2, mean_photons=1e9, rounds=100, parity_block=0, seed=24,
                        adversary="impersonate")
        start = time.perf_counter()
        summary = run_session(cfg).eve_summary
        assert time.perf_counter() - start < 1.0
        assert summary.rate == 1.0

    def test_intercepted_hop_is_the_first_backward_hop(self):
        # Eve catches the pulse behind Alice's splitter and one hop of loss
        assert intercepted_mean(6.0, 0.5, 0.8) == 6.0 * 0.5 * 0.8


class TestMlEstimator:
    def test_no_photon_is_a_coin(self):
        rng = np.random.default_rng(30)
        n = 20000
        nothing = np.zeros(n, dtype=np.int64)
        ones = ml_single_photon_estimator(nothing, np.zeros(n), np.ones(n, dtype=np.int8), rng).sum()
        sigma = math.sqrt(0.25 / n)
        assert abs(ones / n - 0.5) < 3 * sigma

    @pytest.mark.parametrize("delta", [0.1, math.pi / 8, 0.6, math.pi / 4, 1.2])
    def test_off_angle_photon_reads_one_with_sin_squared(self, delta):
        # Malus: a stored photon delta off the aligned detector clicks the
        # orthogonal one, which reads bit 1, with probability sin^2(delta)
        rng = np.random.default_rng(32)
        n = 100_000
        basis = np.tile(np.array([1, 2], dtype=np.int8), n // 2)
        polarization = (basis - 1) * math.pi / 4 + delta
        ones = np.count_nonzero(ml_single_photon_estimator(np.ones(n, bool), polarization, basis, rng))
        p = math.sin(delta) ** 2
        assert abs(ones / n - p) < 3 * math.sqrt(p * (1 - p) / n), (ones / n, p)

    def test_aligned_photon_reads_the_bit(self):
        rng = np.random.default_rng(31)
        # A stored photon polarized exactly at a key angle is read
        # perfectly in the announced basis.
        angles = np.array([0, 2, 1, 3]) * QUARTER_TURN
        stored = np.ones(4, dtype=np.int64)
        guesses = ml_single_photon_estimator(stored, angles, np.array([1, 1, 2, 2]), rng)
        assert guesses.tolist() == [0, 1, 0, 1]
