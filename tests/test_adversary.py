import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqss.adversary import (
    EveState,
    eve_mean_photons,
    impersonate_round,
    intercepted_mean,
    ml_single_photon_estimator,
    pns_intercept,
    tag_attack_round,
    usd_success,
)
from sqss.analysis import monte_carlo_p_error
from sqss.optics import DecisionAngle, PhotonBatch, PolarizationAngle
from sqss.protocol import SenderState, alice_prepare


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

    @given(st.integers(0, 1000))
    def test_monotone_and_bounded(self, n):
        assert 0.0 <= usd_success(n) < 1.0
        assert usd_success(n + 1) >= usd_success(n)


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


class TestPnsIntercept:
    def test_single_photon_passes_untouched(self):
        state = EveState()
        batch = PhotonBatch(1, PolarizationAngle(0.4))
        out = pns_intercept(batch, state, round_index=0)
        assert out is batch
        assert not state.stored_photons

    def test_five_photons_split(self):
        state = EveState()
        batch = PhotonBatch(5, PolarizationAngle(0.4))
        out = pns_intercept(batch, state, round_index=3)
        assert isinstance(out, PhotonBatch) and out.count == 4
        assert state.stored_photons[3].radians == pytest.approx(0.4)

    def test_coherent_pulse_is_counted_first(self):
        # Eve counts the photons the source drew; she does not draw her own.
        rng = np.random.default_rng(1)
        state = EveState()
        pulse = alice_prepare(SenderState(mean_photons=40.0), rng)
        out = pns_intercept(pulse, state, round_index=0)
        # mean 40 makes n >= 2 essentially certain
        assert out.count == pulse.count - 1
        assert 0 in state.stored_photons

    def test_works_without_state(self):
        out = pns_intercept(PhotonBatch(3, PolarizationAngle(0)), None, 0)
        assert out.count == 2


class TestTagAttack:
    def test_no_countermeasure_always_succeeds(self):
        rng = np.random.default_rng(0)
        state = EveState()
        k = DecisionAngle(2)
        for _ in range(50):
            assert tag_attack_round(k, rng, state, alice_uses_bs=False, alice_bs_ratio=1.0) == k
        assert state.tag_results == [k] * 50

    def test_passthrough_splitter_always_succeeds(self):
        rng = np.random.default_rng(0)
        k = DecisionAngle(1)
        assert tag_attack_round(k, rng, None, alice_uses_bs=True, alice_bs_ratio=1.0) == k

    def test_countermeasure_survival_is_bernoulli(self):
        rng = np.random.default_rng(314)
        k = DecisionAngle(0)
        n = 100000
        survived = sum(
            tag_attack_round(k, rng, None, alice_uses_bs=True, alice_bs_ratio=0.5) is not None
            for _ in range(n)
        )
        sigma = math.sqrt(0.25 / n)
        assert abs(survived / n - 0.5) < 3 * sigma


def _flips_bit(offset, rng):
    """Whether a guess off by ``offset`` quarter turns flips the sifted bit."""
    return offset == 2 or (offset % 2 == 1 and rng.random() < 0.5)


class TestImpersonation:
    def test_forced_zero_photons_is_a_pure_guess(self):
        # Discrimination never works on vacuum, so the error rate is the
        # wrong-guess average: 1/4 silent + 1/4 flip + 1/2 coin = 1/2.
        rng = np.random.default_rng(21)
        n_trials = 100000
        errors = sum(_flips_bit(impersonate_round(0, rng), rng) for _ in range(n_trials))
        sigma = math.sqrt(0.25 / n_trials)
        assert abs(errors / n_trials - 0.5) < 3 * sigma

    def test_forced_ten_photons_rarely_errs(self):
        rng = np.random.default_rng(22)
        n_trials = 100000
        errors = sum(_flips_bit(impersonate_round(10, rng), rng) for _ in range(n_trials))
        expected = (1.0 - usd_success(10)) / 2.0
        sigma = math.sqrt(expected * (1 - expected) / n_trials)
        assert abs(errors / n_trials - expected) < 3 * sigma

    def test_round_marginal_matches_closed_form(self):
        from sqss.analysis import p_error_closed_form

        rng = np.random.default_rng(23)
        n_trials = 50000
        usd_mean = intercepted_mean(6.0, 1.0, [0.5] * 5)
        errors = sum(
            _flips_bit(impersonate_round(int(rng.poisson(usd_mean)), rng), rng)
            for _ in range(n_trials)
        )
        expected = p_error_closed_form(6.0, 0.5)
        sigma = math.sqrt(expected * (1 - expected) / n_trials)
        assert abs(errors / n_trials - expected) < 3 * sigma

    def test_state_records_usd_outcomes(self):
        rng = np.random.default_rng(24)
        state = EveState()
        for _ in range(10):
            impersonate_round(3, rng, state)
        assert len(state.usd_successes) == 10

    def test_parameter_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            impersonate_round(-1, rng)
        with pytest.raises(ValueError):
            monte_carlo_p_error(-1.0, 0.5, 10000, rng)
        with pytest.raises(ValueError):
            monte_carlo_p_error(6.0, 0.0, 10000, rng)

    def test_intercepted_hop_is_the_first_backward_hop(self):
        # travel order for N=2: three forward hops, then Alice -> Rec-2
        hops = [0.9, 0.8, 0.7, 0.5, 0.6]
        assert intercepted_mean(6.0, 0.5, hops) == 6.0 * 0.5 * 0.5


class TestMlEstimator:
    def test_no_photon_is_a_coin(self):
        rng = np.random.default_rng(30)
        n = 20000
        ones = sum(ml_single_photon_estimator(None, 1, rng) for _ in range(n))
        sigma = math.sqrt(0.25 / n)
        assert abs(ones / n - 0.5) < 3 * sigma

    def test_aligned_photon_reads_the_bit(self):
        rng = np.random.default_rng(31)
        # A stored photon polarized exactly at a key angle is read
        # perfectly in the announced basis.
        assert ml_single_photon_estimator(DecisionAngle(0).to_polarization(), 1, rng) == 0
        assert ml_single_photon_estimator(DecisionAngle(2).to_polarization(), 1, rng) == 1
        assert ml_single_photon_estimator(DecisionAngle(1).to_polarization(), 2, rng) == 0
        assert ml_single_photon_estimator(DecisionAngle(3).to_polarization(), 2, rng) == 1
