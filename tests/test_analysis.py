import math
import random
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import stats

from sqss import analysis
from sqss.adversary import USD_SATURATION, impersonate_round, usd_success
from sqss.analysis import (
    ErrorCurvePoint,
    McEstimate,
    error_curve,
    monte_carlo_p_error,
    p_e_closed_form,
    p_error_closed_form,
    poisson_pmf,
)


def brute_force_p_e(lam: float, terms: int = 500) -> float:
    """High-precision reference for the discrimination probability.

    Evaluates the series with 50-digit arithmetic and exact factorials,
    independently of the implementation under test.
    """
    with mpmath.workdps(50):
        lam_mp = mpmath.mpf(lam)
        total = mpmath.mpf(0)
        for n in range(3, terms):
            p_ok = 1 - mpmath.mpf(2) ** (-((n - 1) // 2))
            pmf = mpmath.e ** (-lam_mp) * lam_mp**n / mpmath.factorial(n)
            total += p_ok * pmf
        return float(total)


def reference_error_count(lam: float, trials: int, r: random.Random) -> int:
    """Bits flipped over ``trials`` impersonated rounds simulated one at a time.

    Each round draws the intercepted photon count (Knuth's product of
    uniforms), attempts discrimination, and on failure guesses one of the
    four angles uniformly: half a turn off flips the bit, a quarter turn
    off flips it with a fair coin. Plain ``random.Random`` draws, so it
    shares no stream and no code path with the class sampler.
    """
    limit = math.exp(-lam)
    errors = 0
    for _ in range(trials):
        n, product = 0, r.random()
        while product > limit:
            n += 1
            product *= r.random()
        if r.random() < usd_success(n):
            continue
        offset = r.randrange(4)
        if offset == 2 or (offset % 2 == 1 and r.random() < 0.5):
            errors += 1
    return errors


class TestPoissonPmf:
    def test_zero_rate(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0

    def test_vacuum_probability_at_rate_three(self):
        assert poisson_pmf(0, 3.0) == pytest.approx(math.exp(-3.0), rel=1e-14)
        assert poisson_pmf(0, 3.0) == pytest.approx(0.049787, abs=1e-6)

    def test_normalization(self):
        assert sum(poisson_pmf(n, 3.0) for n in range(201)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy_across_regimes(self):
        for lam in (0.5, 3.0, 30.0, 100.0):
            reference = stats.poisson.pmf(np.arange(150), lam)
            ours = np.array([poisson_pmf(n, lam) for n in range(150)])
            np.testing.assert_allclose(ours, reference, rtol=1e-10, atol=1e-300)

    def test_large_count_does_not_overflow(self):
        assert 0.0 < poisson_pmf(500, 500.0) < 1.0

    def test_large_rate_does_not_overflow(self):
        # lam**n alone would overflow a float here for every n from 17 up
        assert all(poisson_pmf(n, 9.2e18) == 0.0 for n in range(21))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            poisson_pmf(-1, 1.0)
        with pytest.raises(ValueError):
            poisson_pmf(1, -1.0)


class TestClosedForms:
    def test_agrees_with_brute_force_to_1e10(self):
        for mu, t in [(0.1, 1.0), (0.5, 1.0), (1.0, 1.0), (6.0, 0.5), (6.0, 1.0), (12.0, 1.0)]:
            assert p_e_closed_form(mu, t) == pytest.approx(
                brute_force_p_e(mu * t), abs=1e-10
            )

    def test_matches_mpmath_to_rounding_and_stays_monotone(self):
        # the truncated series was off by up to 1e-11 relative in p_error
        # here, and rose on thousands of steps of this grid beyond mu*T = 80
        for lam in (1e-3, 0.1, 0.5, 1.0, 3.0, 6.0, 12.0, 20.0, 30.0):
            exact = brute_force_p_e(lam)
            p_e = p_e_closed_form(lam, 1.0)
            assert abs(p_e - exact) <= 1e-15, f"mu*T={lam}"
            exact_error = (1.0 - exact) / 2.0
            rel = abs(p_error_closed_form(lam, 1.0) - exact_error) / exact_error
            assert rel <= 1e-12, f"mu*T={lam}: {rel:.3g}"
        points = error_curve([round(0.01 * i, 10) for i in range(20_001)])
        for a, b in zip(points, points[1:]):
            assert b.p_error <= a.p_error, f"p_error rises at mu*T={b.mu_t}"
            assert b.p_e >= a.p_e, f"p_e falls at mu*T={b.mu_t}"

    def test_no_multiphoton_pulses_no_discrimination(self):
        assert p_e_closed_form(0.0, 0.5) == 0.0
        assert p_e_closed_form(1e-9, 1.0) < 1e-18

    def test_working_point_value(self):
        # mu=6 through T=0.5 gives roughly a 1/3 error rate.
        p_err = p_error_closed_form(6.0, 0.5)
        assert abs(p_err - 0.3) <= 0.05
        assert p_err == pytest.approx((1.0 - p_e_closed_form(6.0, 0.5)) / 2.0, abs=1e-15)

    def test_pure_guess_limit(self):
        assert p_error_closed_form(0.0, 0.5) == 0.5

    def test_strictly_monotone(self):
        grid = [0.5, 1.0, 2.0, 3.0, 6.0, 9.0, 12.0]
        p_es = [p_e_closed_form(v, 1.0) for v in grid]
        p_errs = [p_error_closed_form(v, 1.0) for v in grid]
        assert all(a < b for a, b in zip(p_es, p_es[1:]))
        assert all(a > b for a, b in zip(p_errs, p_errs[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            p_e_closed_form(-1.0, 0.5)
        with pytest.raises(ValueError):
            p_e_closed_form(6.0, 0.0)
        with pytest.raises(ValueError):
            p_e_closed_form(6.0, 1.5)

    def test_long_sum_stays_below_one(self):
        # at this mean the exponentials sum to one in floating point
        assert p_e_closed_form(99997.0, 1.0) < 1.0
        assert error_curve([99997.0])[0].p_error > 0.0

    def test_class_walk_ends_at_the_saturation_class(self, monkeypatch):
        # Eve's law stops changing at USD_SATURATION photons, so the Monte
        # Carlo draws no class past it at any finite mu*T: one draw per run
        # of equal success, {0, 1, 2}, {3, 4}, ..., {105, 106} and {107+},
        # 54 in all. Only a non-finite mean is refused, by the closed form too
        calls = []

        def counted(*args):
            calls.append(args[0])
            return impersonate_round(*args)

        monkeypatch.setattr(analysis, "impersonate_round", counted)
        start = time.perf_counter()
        for mu_t in (200.0, 1e5, 9.2e18):
            calls.clear()
            assert p_e_closed_form(mu_t, 1.0) > 0.5
            monte_carlo_p_error(mu_t, 1.0, 10_000, np.random.default_rng(0))
            assert len(calls) <= 54, (mu_t, len(calls))
            assert calls[-1] == USD_SATURATION, (mu_t, calls[-1])
        for mu in (math.inf, math.nan):
            with pytest.raises(ValueError, match="mu"):
                p_e_closed_form(mu, 1.0)
            with pytest.raises(ValueError, match="mu"):
                monte_carlo_p_error(mu, 1.0, 10_000, np.random.default_rng(0))
        assert time.perf_counter() - start < 5.0


class TestErrorCurve:
    def test_endpoint_is_a_fair_coin(self):
        points = error_curve([0.0])
        assert points[0].p_error == 0.5
        assert points[0].p_e == 0.0

    def test_consistent_with_closed_form_at_three(self):
        point = error_curve([3.0])[0]
        assert point.p_error == p_error_closed_form(6.0, 0.5)

    def test_monotone_over_the_plot_range(self):
        values = [round(0.1 * i, 10) for i in range(121)]
        points = error_curve(values)
        assert len(points) == 121
        for a, b in zip(points, points[1:]):
            assert a.p_error >= b.p_error
            assert a.p_e <= b.p_e

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            error_curve([1.0, -0.5])

    def test_point_validation(self):
        with pytest.raises(ValueError):
            ErrorCurvePoint(mu_t=1.0, p_e=1.5, p_error=0.2)
        with pytest.raises(ValueError):
            ErrorCurvePoint(mu_t=1.0, p_e=0.1, p_error=0.7)


class TestMonteCarlo:
    def test_matches_closed_form_at_working_point(self):
        rng = np.random.default_rng(1000)
        estimate = monte_carlo_p_error(6.0, 0.5, 50000, rng)
        assert estimate.trials == 50000
        assert estimate.sigma_distance(p_error_closed_form(6.0, 0.5)) < 3.0

    def test_single_photon_regime_is_a_pure_guess(self):
        rng = np.random.default_rng(1001)
        estimate = monte_carlo_p_error(0.1, 0.5, 20000, rng)
        assert estimate.sigma_distance(0.5) < 3.0

    def test_clt_scaling(self):
        rng = np.random.default_rng(1002)
        small = monte_carlo_p_error(3.0, 1.0, 10000, rng)
        big = monte_carlo_p_error(3.0, 1.0, 40000, rng)
        # quadrupling the trials should roughly halve the standard error
        assert big.std_error == pytest.approx(small.std_error / 2.0, rel=0.15)

    def test_rejects_tiny_trial_counts(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            monte_carlo_p_error(6.0, 0.5, 9999, rng)

    def test_rejects_trial_counts_beyond_int64(self):
        # numpy's binomial draw takes counts up to int64 max, and no further
        rng = np.random.default_rng(0)
        assert monte_carlo_p_error(6.0, 0.5, 2**63 - 1, rng).trials == 2**63 - 1
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_p_error(6.0, 0.5, 2**63, rng)

    def test_sigma_distance_arithmetic(self):
        est = McEstimate(mean=0.32, std_error=0.01, trials=10000)
        assert est.sigma_distance(0.3) == pytest.approx(2.0)
        degenerate = McEstimate(mean=0.5, std_error=0.0, trials=10000)
        assert degenerate.sigma_distance(0.5) == 0.0
        assert degenerate.sigma_distance(0.4) == math.inf

    def test_estimate_from_counts(self):
        for hits, trials in [(0, 10), (3, 10), (25, 100), (10, 10), (1, 3)]:
            est = McEstimate.from_counts(hits, trials)
            mean = hits / trials
            assert (est.mean, est.trials) == (mean, trials)
            assert est.std_error == math.sqrt(mean * (1.0 - mean) / trials)
        assert McEstimate.from_counts(1, 4).std_error == pytest.approx(math.sqrt(3.0) / 8.0)
        # one trial carries no spread; no trial carries no rate
        for hits in (0, 1):
            assert McEstimate.from_counts(hits, 1).std_error == 0.0
        none = McEstimate.from_counts(0, 0)
        assert none.trials == 0 and math.isnan(none.mean) and math.isnan(none.std_error)

    def test_estimate_is_built_from_the_error_count(self):
        est = monte_carlo_p_error(6.0, 0.5, 20000, np.random.default_rng(1006))
        assert est == McEstimate.from_counts(round(est.mean * est.trials), est.trials)

    def test_one_draw_per_run_of_equal_success(self, monkeypatch):
        # every class of a run shares Eve's law, so the walk draws the run as
        # one class, of the run's summed pmf over P[N >= its first class]
        calls = []

        def counted(n, pulses, share, rng):
            calls.append((n, share))
            return impersonate_round(n, pulses, share, rng)

        monkeypatch.setattr(analysis, "impersonate_round", counted)
        monte_carlo_p_error(6.0, 1.0, 100_000, np.random.default_rng(1007))
        firsts = [n for n, _ in calls]
        assert len(firsts) >= 5 and firsts == [0, *range(3, 2 * len(firsts), 2)], firsts
        successes = [usd_success(n) for n in firsts]
        assert all(a < b for a, b in zip(successes, successes[1:])), successes
        for (first, share), stop in zip(calls, firsts[1:] + [firsts[-1] + 2]):
            mass = math.fsum(poisson_pmf(n, 6.0) for n in range(first, stop))
            tail = math.fsum(poisson_pmf(n, 6.0) for n in range(first, 200))
            # the walk carries P[N >= n] as one minus the masses drawn, good
            # to a few ulp of one: relative 1e-12 until the tail nears 1e-3
            assert mass / share == pytest.approx(tail, rel=1e-12, abs=1e-15), (first, share)

    def test_agrees_with_a_round_by_round_reference(self):
        # two-proportion z test of the class sampler against the scalar loop
        for i, lam in enumerate((0.5, 1.0, 3.0, 6.0)):
            ref_trials, mc_trials = 100_000, 1_000_000
            ref = reference_error_count(lam, ref_trials, random.Random(40 + i))
            est = monte_carlo_p_error(lam, 1.0, mc_trials, np.random.default_rng(50 + i))
            pooled = (ref + est.mean * mc_trials) / (ref_trials + mc_trials)
            se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / ref_trials + 1.0 / mc_trials))
            z = (ref / ref_trials - est.mean) / se
            assert abs(z) < 3.0, f"mu*T={lam}: z={z:.2f}"

    def test_billion_trials_match_closed_form(self):
        rng = np.random.default_rng(1003)
        for lam in (0.5, 1.0, 3.0, 6.0):
            estimate = monte_carlo_p_error(lam, 1.0, 10**9, rng)
            assert estimate.trials == 10**9
            assert estimate.sigma_distance(p_error_closed_form(lam, 1.0)) < 3.0

    def test_memory_and_time_do_not_grow_with_trials(self):
        rng = np.random.default_rng(1004)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            start = time.perf_counter()
            monte_carlo_p_error(6.0, 1.0, 10**9, rng)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 4096, f"{peak} bytes"
        assert elapsed < 1.0

    def test_extreme_rates_terminate(self):
        # mu*T = 0 puts every round in the vacuum class; at mu*T = 800 the
        # pmf of every count up to 20 underflows to zero
        rng = np.random.default_rng(1005)
        vacuum = monte_carlo_p_error(0.0, 1.0, 10**9, rng)
        assert vacuum.trials == 10**9
        assert vacuum.sigma_distance(0.5) < 3.0
        bright = monte_carlo_p_error(800.0, 1.0, 10**9, rng)
        assert bright.trials == 10**9
        assert 0.0 <= bright.mean <= 1e-6 and 0.0 <= bright.std_error <= 1e-6
