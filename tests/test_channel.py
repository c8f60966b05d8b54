import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqss.channel import thin_batch, transmission
from sqss.config import SimConfig


def pulses(count, size=1):
    """The photon counts of ``size`` identical pulses."""
    return np.full(size, count)


def test_transmission_zero_length():
    assert transmission(0.0, 0.2) == 1.0


def test_transmission_ten_db():
    # 10 dB of total loss is a factor of ten by definition.
    assert transmission(50.0, 0.2) == pytest.approx(0.1)


def test_transmission_half():
    # ~3.0103 dB halves the mean photon number.
    assert transmission(1.0, 10.0 * math.log10(2.0)) == pytest.approx(0.5, abs=1e-12)


@given(
    st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
def test_transmission_stays_in_unit_interval(length, loss):
    t = transmission(length, loss)
    assert 0.0 < t <= 1.0


def test_transmission_decreasing_in_length_and_loss():
    assert transmission(10.0, 0.2) > transmission(20.0, 0.2)
    assert transmission(10.0, 0.2) > transmission(10.0, 0.4)


def test_negative_parameters_rejected():
    with pytest.raises(ValueError):
        transmission(-1.0, 0.2)
    with pytest.raises(ValueError):
        transmission(1.0, -0.2)


def test_thinned_poisson_count_is_poisson():
    # Thinning a Poisson count leaves a Poisson count of mean mu * t:
    # the vacuum probability and the mean both follow the scaled mean.
    rng = np.random.default_rng(11)
    n = 10000
    counts = thin_batch(rng.poisson(6.0, n), 0.5, rng)
    p0 = np.mean(counts == 0)
    sigma0 = math.sqrt(math.exp(-3.0) * (1 - math.exp(-3.0)) / n)
    assert abs(p0 - math.exp(-3.0)) < 3 * sigma0
    assert abs(counts.mean() - 3.0) < 3 * math.sqrt(3.0 / n)


def test_thin_batch_is_multiplicative():
    # Two hops of 0.7 lose photons exactly like one hop of 0.49.
    rng = np.random.default_rng(5)
    n = 10000
    batch = pulses(5, n)
    twice = thin_batch(thin_batch(batch, 0.7, rng), 0.7, rng).sum()
    once = thin_batch(batch, 0.49, rng).sum()
    sigma = math.sqrt(2 * 5 * 0.49 * 0.51 / n)
    assert abs(twice / n - once / n) < 3 * sigma


def test_attenuate_rejects_bad_transmission():
    batch = pulses(1)
    rng = np.random.default_rng(0)
    for t in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            thin_batch(batch, t, rng)


def test_thin_batch_statistics():
    rng = np.random.default_rng(11)
    total = thin_batch(pulses(20, 10000), 0.25, rng).sum()
    mean = total / 10000
    sigma = math.sqrt(20 * 0.25 * 0.75 / 10000)
    assert abs(mean - 5.0) < 3 * sigma


def test_thin_batch_lossless_keeps_every_photon():
    rng = np.random.default_rng(0)
    assert thin_batch(pulses(7), 1.0, rng).tolist() == [7]


def test_negative_count_rejected():
    # a photon count is never negative: thinning one raises
    with pytest.raises(ValueError):
        thin_batch(np.array([2, -1]), 0.5, np.random.default_rng(0))


@given(st.integers(0, 200), st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                                      exclude_min=True))
def test_split_conserves_photons(count, ratio):
    # the first port never takes more than arrived, the other the rest
    rng = np.random.default_rng(count + 1)
    first = thin_batch(np.array([count]), ratio, rng)
    assert 0 <= first[0] <= count


def test_split_is_binomial():
    rng = np.random.default_rng(42)
    n_trials = 20000
    kept = thin_batch(np.full(n_trials, 10), 0.3, rng).sum()
    mean = kept / n_trials
    sigma = math.sqrt(10 * 0.3 * 0.7 / n_trials)
    assert abs(mean - 3.0) < 3 * sigma


def test_equal_ring_shape():
    hops = SimConfig(receivers=3, link_length_km=10.0, link_loss_db_per_km=0.2).hop_transmissions()
    assert hops == [transmission(10.0, 0.2)] * 7


def test_hop_count_is_2n_plus_1():
    for n in (1, 2, 5):
        config = SimConfig(receivers=n, link_length_km=5.0, link_loss_db_per_km=0.2)
        assert len(config.hop_transmissions()) == 2 * n + 1
