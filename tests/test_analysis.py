import math
import random
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import stats

from sqss.adversary import usd_success
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

    def test_sigma_distance_arithmetic(self):
        est = McEstimate(mean=0.32, std_error=0.01, trials=10000)
        assert est.sigma_distance(0.3) == pytest.approx(2.0)
        degenerate = McEstimate(mean=0.5, std_error=0.0, trials=10000)
        assert degenerate.sigma_distance(0.5) == 0.0
        assert degenerate.sigma_distance(0.4) == math.inf

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
