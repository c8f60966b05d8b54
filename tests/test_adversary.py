import math
import time

import mpmath
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
    impersonate_rounds,
    intercepted_mean,
    ml_single_photon_estimator,
    pns_dark,
    pns_intercept,
    tag_attack_rounds,
    usd_success,
)
from sqss.analysis import monte_carlo_p_error
from sqss.config import SimConfig
from sqss.optics import AMBIGUOUS, QUARTER_TURN, dark_points
from sqss.protocol import run_session


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


class TestImpersonateRounds:
    def test_offsets_are_int8_and_zero_where_eve_succeeded(self):
        # a bright pulse makes both outcomes common; every guess is on Z4
        offsets, success = impersonate_rounds(6.0, 20_000, np.random.default_rng(14))
        assert offsets.dtype == np.int8 and offsets.shape == success.shape == (20_000,)
        assert 0 < success.mean() < 1
        assert not offsets[success].any()
        assert set(offsets[~success].tolist()) == {0, 1, 2, 3}


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


def reference_pns_dark(mean, y, stored, sum_terms=0):
    """g(y) after Eve's reading of a Poisson pulse of ``mean``, in mpmath at
    the float ``y``: the generating function of the photons she forwards,
    given that she kept nothing (n <= 1) or one photon (n >= 2, forwarding
    n - 1). In closed form or, with ``sum_terms``, as the sum over n."""
    lam, y = mpmath.mpf(mean), mpmath.mpf(y)
    if sum_terms:
        pmf = [mpmath.exp(-lam) * lam**n / mpmath.factorial(n) for n in range(sum_terms)]
        if stored:
            return sum(p * y ** (n - 1) for n, p in enumerate(pmf) if n >= 2) / sum(pmf[2:])
        return (pmf[0] + pmf[1] * y) / (pmf[0] + pmf[1])
    if not stored:
        return (1 + lam * y) / (1 + lam)
    if y == 0:
        return mpmath.mpf(0)

    def p2(x):
        return 1 - mpmath.exp(-x) * (1 + x)

    return mpmath.exp(-lam * (1 - y)) * p2(lam * y) / (y * p2(lam))


class TestPnsDark:
    """Rec-1's dark table after Eve's reading of an uncounted pulse, against
    mpmath: exact to rounding from the faintest pulse to the config's cap."""

    @pytest.mark.parametrize("q", [1.0, 0.35, 1e-9])
    @pytest.mark.parametrize("mean", [1e-12, 1e-6, 1e-3, 0.5, 5.4, 50.0, 1e6, 9.2e18])
    def test_matches_mpmath(self, mean, q):
        dark, column = pns_dark(mean, q, np.array([False, True]))
        assert column.tolist() == [0, 1]
        with mpmath.workdps(80):
            for k, y in enumerate(dark_points(q).ravel().tolist()):
                for stored in (0, 1):
                    reference = reference_pns_dark(mean, y, stored)
                    assert abs(dark[k, stored] - reference) <= 1e-15, (k, stored, reference)
                    if mean <= 50.0:  # the closed form is the sum over the photon number
                        summed = reference_pns_dark(mean, y, stored, sum_terms=400)
                        assert abs(summed - reference) < 1e-40
        if q == 1.0:  # y_4 = 0: a pulse she kept a photon from forwards one or more
            assert dark[3, 1] == 0.0
        # g_k is the chance that k quarters of the photons stay dark
        assert (np.diff(dark, axis=0) <= 0.0).all() and (dark >= 0.0).all()

    @pytest.mark.parametrize("mean", [1e-12, 1e-3, 0.5, 1.99, 2.0, 5.4, 1e6, 9.2e18])
    def test_stored_probability_is_two_or_more_photons(self, mean):
        # pns_intercept reads Eve's event from one uniform against P[n >= 2]
        # = 1 - e^-mean (1 + mean): the share of uniforms below it
        u = np.random.default_rng(7).random(10_000)
        stored = pns_intercept(mean, len(u), np.random.default_rng(7))
        with mpmath.workdps(80):
            lam = mpmath.mpf(mean)
            p2 = float(1 - mpmath.exp(-lam) * (1 + lam))
        assert stored.tolist() == (u < p2).tolist()


def traced_tap(mean, rounds):
    """A traced lossless ring tapped on channel 1: the count each pulse
    leaves the source with, the count it reaches Rec-1 with, and where Eve
    kept a photon. Nothing is lost, so the first is the count she reads."""
    config = SimConfig(receivers=1, mean_photons=mean, adversary="pns", pns_channel=1,
                       rounds=rounds, trace=True)
    table = recorded(config)[1]
    return table.trace_photons[:, 0], table.trace_photons[:, 1], table.eve_event


class TestPnsIntercept:
    def test_single_photon_passes_untouched(self):
        pulse, out, stored = traced_tap(3.0, 20_000)
        one = pulse == 1
        assert one.any() and (out[one] == 1).all() and not stored[one].any()

    def test_five_photons_split(self):
        pulse, out, stored = traced_tap(3.0, 20_000)
        five = pulse == 5
        assert five.any() and (out[five] == 4).all() and stored[five].all()

    def test_coherent_pulse_is_counted_first(self):
        # Eve's event is the count of the pulse the trace draws: she keeps a
        # photon exactly where it holds two or more, and forwards the rest
        pulse, out, stored = traced_tap(40.0, 1)
        # mean 40 makes n >= 2 essentially certain
        assert out.tolist() == (pulse - 1).tolist()
        assert stored.tolist() == [True]
        pulse, out, stored = traced_tap(1.0, 20_000)
        assert (stored == (pulse >= 2)).all() and (out == pulse - stored).all()

    def test_works_without_state(self):
        # Eve keeps no state across calls: each chunk's mask is its own draw.
        first = pns_intercept(2.0, 1000, np.random.default_rng(3))
        pns_intercept(50.0, 10, np.random.default_rng(4))
        assert (pns_intercept(2.0, 1000, np.random.default_rng(3)) == first).all()
        assert 0 < first.sum() < 1000

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
        # Two binomial draws over the rounds: those outside the class are
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


def usd_mean_success(m):
    """README's P_E: the Poisson average, at mean m, of Eve's discrimination
    success 1 - 2^(-floor((n-1)/2)) on n >= 1 photons (none on vacuum)."""
    return sum(math.exp(n * math.log(m) - m - math.lgamma(n + 1)) * (1.0 - 2.0 ** -((n - 1) // 2))
               for n in range(1, int(m + 20 * math.sqrt(m)) + 60))


def impersonated_sifted_law(mu, t, bs, n):
    """(P_E, the sifted QBER, the rate of ambiguous sifted rounds) of a ring
    under impersonation. Eve intercepts mu*bs*t photons on average, and
    receiver 1 gets mu_f = mu*bs*t^(2N+1). A failed guess is off by 0, 1, 2
    or 3 quarter turns alike. Off by 2 it flips the bit; off by an odd number
    it puts the pulse in the other basis, so the sifted arm is the split one,
    which errs half the time and is kept only when exactly one of its two
    detectors clicks: K_s = 2 e^(-mu_f/4) (1 - e^(-mu_f/4)), against
    K_d = 1 - e^(-mu_f/2) for the definite arm. With P_F = 1 - P_E:
    QBER = P_F (K_d + K_s)/4 / [P_E K_d + P_F (K_d + K_s)/2], and both of
    the split arm's detectors click, an ambiguous sifted round, at the rate
    P_F/2 (1 - e^(-mu_f/4))^2."""
    p_e, mu_f = usd_mean_success(mu * bs * t), mu * bs * t ** (2 * n + 1)
    p_f, k_d = 1.0 - p_e, -math.expm1(-mu_f / 2)
    k_s = 2.0 * math.exp(-mu_f / 4) * -math.expm1(-mu_f / 4)
    qber = p_f * (k_d + k_s) / 4 / (p_e * k_d + p_f * (k_d + k_s) / 2)
    return p_e, qber, p_f / 2 * math.expm1(-mu_f / 4) ** 2


class TestImpersonationAsTheReceiversSeeIt:
    def test_the_sifted_qber_is_below_the_papers_rate_at_its_working_point(self):
        # (1 - P_E)/2 is the error rate over all rounds before sifting;
        # ambiguous discards drop her wrong-basis rounds more often
        p_e, qber, _ = impersonated_sifted_law(6.0, 1.0, 1.0, 2)
        assert (1.0 - p_e) / 2 == pytest.approx(0.14600, abs=5e-6)
        assert qber == pytest.approx(0.10982, abs=5e-6)

    @pytest.mark.parametrize("mu,t,bs,n,seed", [
        (6.0, 1.0, 1.0, 2, 3611),
        (20.0, 0.9, 0.5, 3, 3612),
        (6.0, 0.5, 1.0, 2, 3613),
        (0.5, 1.0, 1.0, 2, 3614),
    ])
    def test_session_matches_the_sifted_law(self, mu, t, bs, n, seed):
        rounds = 200_000
        config = SimConfig(receivers=n, mean_photons=mu, transmission=t, bs_ratio=bs,
                           adversary="impersonate", rounds=rounds, parity_block=0, seed=seed)
        result, table = recorded(config)
        _, qber, ambiguous = impersonated_sifted_law(mu, t, bs, n)
        kept = result.kept_rounds
        assert abs(result.qber - qber) < 3 * math.sqrt(qber * (1 - qber) / kept), (result.qber, qber)
        seen = np.count_nonzero(table.sifted == AMBIGUOUS) / rounds
        assert abs(seen - ambiguous) < 3 * math.sqrt(ambiguous * (1 - ambiguous) / rounds)

    @pytest.mark.parametrize("seed", [3621, 3622, 3623])
    @pytest.mark.parametrize("attack", ["none", "pns", "tag"])
    def test_no_sifted_round_is_ambiguous_without_an_impersonator(self, attack, seed):
        # without a guess offset the sifted arm is the definite one, whose
        # photons all reach one detector; the split arm is often ambiguous
        config = SimConfig(receivers=3, mean_photons=40.0, transmission=0.95, adversary=attack,
                           rounds=20_000, parity_block=0, seed=seed)
        _, table = recorded(config)
        assert np.count_nonzero(table.sifted == AMBIGUOUS) == 0
        assert np.count_nonzero((table.rect == AMBIGUOUS) | (table.diag == AMBIGUOUS)) > 0


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
