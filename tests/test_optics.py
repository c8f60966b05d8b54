import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sqss.optics import (
    AMBIGUOUS,
    DIAGONAL,
    MALUS,
    RECTILINEAR,
    VACUUM,
    DecisionAngle,
    PhotonBatch,
    coherent_measure,
    malus,
    pbs_measure,
    rotate_batch,
    split_batch,
)
from sqss.protocol import alice_prepare

QT = math.pi / 4


def pulses(count, polarization, size=1):
    """``size`` identical pulses of ``count`` photons at one polarization."""
    return PhotonBatch(np.full(size, count), np.full(size, float(polarization)))


def circular_distance(a, b):
    """Distance between two polarizations on the half-circle, which wraps at pi."""
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def measure(batch, aligned, rng):
    """``pbs_measure`` on a batch at its float polarization."""
    return pbs_measure(batch.count, malus(batch.polarization, aligned), aligned, rng)


def turned(radians, start=0.0):
    """The polarization of one pulse at ``start`` after ``rotate_batch`` by ``radians``."""
    return rotate_batch(pulses(1, start), radians).polarization[0]


class TestPolarizationAngle:
    """Polarizations live on [0, pi): ``rotate_batch`` reduces every sum into it."""

    def test_reduces_into_half_open_interval(self):
        assert turned(math.pi) == 0.0
        assert turned(-math.pi / 4) == pytest.approx(3 * math.pi / 4)
        assert turned(2.5 * math.pi) == pytest.approx(0.5 * math.pi)

    def test_tiny_negative_does_not_round_to_pi(self):
        # the mod of a tiny negative sum rounds to exactly pi; the
        # representative must still be inside [0, pi).
        assert 0.0 <= turned(-1e-18) < math.pi

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    def test_always_in_range(self, radians):
        assert 0.0 <= turned(radians) < math.pi

    def test_addition_and_subtraction_wrap(self):
        assert turned(math.pi / 2, start=3 * math.pi / 4) == pytest.approx(math.pi / 4)
        assert turned(-math.pi / 2, start=3 * math.pi / 4) == pytest.approx(math.pi / 4)

    def test_distance_is_circular(self):
        near_zero, near_pi = 0.01, math.pi - 0.01
        assert circular_distance(near_zero, near_pi) == pytest.approx(0.02)
        assert circular_distance(near_zero, near_pi) <= 0.03
        assert not circular_distance(near_zero, near_pi) <= 0.01

    @given(
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    )
    def test_distance_symmetric_and_bounded(self, x, y):
        assert circular_distance(x, y) == pytest.approx(circular_distance(y, x))
        assert 0.0 <= circular_distance(x, y) <= math.pi / 2 + 1e-12


class TestDecisionAngle:
    def test_quarter_turn_values(self):
        assert DecisionAngle(0).radians == 0.0
        assert DecisionAngle(1).radians == pytest.approx(QT)
        assert DecisionAngle(2).radians == pytest.approx(2 * QT)
        assert DecisionAngle(3).radians == pytest.approx(3 * QT)

    def test_labels(self):
        assert [DecisionAngle(q).label for q in range(4)] == ["0", "pi/4", "pi/2", "-pi/4"]

    def test_invalid_quarter_turns(self):
        with pytest.raises(ValueError):
            DecisionAngle(4)
        with pytest.raises(ValueError):
            DecisionAngle(-1)

    def test_cyclic_group_arithmetic(self):
        assert -DecisionAngle(1) == DecisionAngle(3)
        assert -DecisionAngle(0) == DecisionAngle(0)
        for q in range(4):
            assert (q + (-DecisionAngle(q)).quarter_turns) % 4 == 0

    @given(st.integers(0, 3), st.integers(0, 3))
    def test_add_matches_polarization_addition(self, qa, qb):
        # the engine adds shuffles as quarter turns mod 4 and rotates
        # polarizations as floats; the two must agree
        combined = DecisionAngle((qa + qb) % 4).radians
        direct = turned(DecisionAngle(qb).radians, start=DecisionAngle(qa).radians)
        assert circular_distance(combined, direct) <= 1e-12


class TestBasis:
    def test_malus_table_is_cos_squared_at_whole_quarter_turns(self):
        # MALUS[o] is p for a photon o quarter turns off the aligned detector
        for aligned in (RECTILINEAR, DIAGONAL):
            offsets = np.arange(4)
            p = malus((offsets + aligned) * QT, aligned)
            assert np.abs(MALUS[offsets] - p).max() < 1e-15

    def test_basis_of_partitions_the_angles(self):
        # an angle's parity names the basis that reads it without error
        rng = np.random.default_rng(0)
        for q in range(4):
            basis = (RECTILINEAR, DIAGONAL)[q % 2]
            out = measure(pulses(5, DecisionAngle(q).radians, 200), basis, rng)
            assert (out == q).all()

    def test_aligned_and_orthogonal(self):
        # a basis names its aligned detector; the orthogonal one reads +2
        rng = np.random.default_rng(0)
        for basis, aligned, orthogonal in ((RECTILINEAR, 0, 2), (DIAGONAL, 1, 3)):
            assert basis == aligned
            for q in (aligned, orthogonal):
                assert measure(pulses(5, DecisionAngle(q).radians), basis, rng).tolist() == [q]


class TestPulses:
    def test_negative_mean_rejected(self):
        # the source draws Poisson(mu), which has no negative mean
        with pytest.raises(ValueError):
            alice_prepare(-0.1, 1, np.random.default_rng(0))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            PhotonBatch(np.array([2, -1]), np.array([0.0, 0.0]))

    def test_rotate_known_cases(self):
        p = PhotonBatch(np.array([2, 2, 2]), np.array([0.0, 3 * math.pi / 4, 0.3]))
        out = rotate_batch(p, np.array([math.pi / 2, math.pi / 2, -0.3]))
        assert out.polarization == pytest.approx([math.pi / 2, math.pi / 4, 0.0])

    def test_rotate_preserves_mean(self):
        batch = pulses(4, 1.0)
        assert rotate_batch(batch, 0.7).count.tolist() == [4]

    @given(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_rotate_composes(self, a, b, start):
        p = pulses(1, start % math.pi)
        stepwise = rotate_batch(rotate_batch(p, a), b).polarization[0]
        direct = rotate_batch(p, a + b).polarization[0]
        assert 0.0 <= stepwise < math.pi
        assert circular_distance(stepwise, direct) <= 1e-12


class TestSampling:
    """The source draws the photon number of each pulse."""

    def test_vacuum_pulse_never_clicks(self):
        rng = np.random.default_rng(0)
        _, light = alice_prepare(0.0, 100, rng)
        assert not light.count.any()

    def test_poisson_statistics(self):
        rng = np.random.default_rng(123)
        n = 10**6
        counts = alice_prepare(3.0, n, rng)[1].count
        p0 = np.mean(counts == 0)
        sigma0 = math.sqrt(math.exp(-3.0) * (1 - math.exp(-3.0)) / n)
        assert abs(p0 - math.exp(-3.0)) < 3 * sigma0
        sigma_mean = math.sqrt(3.0 / n)
        assert abs(counts.mean() - 3.0) < 3 * sigma_mean

    def test_polarization_carried_over(self):
        rng = np.random.default_rng(5)
        theta, pulse = alice_prepare(2.0, 10, rng)
        assert pulse.polarization.tolist() == theta.tolist()


class TestBeamSplit:
    def test_reference_ratios(self):
        rng = np.random.default_rng(0)
        p = pulses(6, 0.4)
        t, r = split_batch(p, 1.0, rng)
        assert (t.count.tolist(), r.count.tolist()) == ([6], [0])
        t, r = split_batch(p, 0.0, rng)
        assert (t.count.tolist(), r.count.tolist()) == ([0], [6])
        t, r = split_batch(pulses(0, 0.4), 0.25, rng)
        assert (t.count.tolist(), r.count.tolist()) == ([0], [0])

    def test_polarization_shared_by_both_arms(self):
        rng = np.random.default_rng(0)
        t, r = split_batch(pulses(2, 1.1), 0.3, rng)
        assert t.polarization[0] == r.polarization[0] == pytest.approx(1.1)

    def test_ratio_out_of_range(self):
        rng = np.random.default_rng(0)
        p = pulses(1, 0.0)
        with pytest.raises(ValueError):
            split_batch(p, -0.01, rng)
        with pytest.raises(ValueError):
            split_batch(p, 1.01, rng)

    @given(st.integers(0, 200), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_split_batch_conserves_photons(self, count, ratio):
        rng = np.random.default_rng(count + 1)
        a, b = split_batch(pulses(count, 0.5), ratio, rng)
        assert (a.count + b.count).tolist() == [count]

    def test_split_batch_is_binomial(self):
        rng = np.random.default_rng(42)
        n_trials = 20000
        kept = split_batch(pulses(10, 0.0, n_trials), 0.3, rng)[0].count.sum()
        mean = kept / n_trials
        sigma = math.sqrt(10 * 0.3 * 0.7 / n_trials)
        assert abs(mean - 3.0) < 3 * sigma


class TestPbsMeasure:
    def test_vacuum(self):
        rng = np.random.default_rng(0)
        out = measure(pulses(0, 0.3), RECTILINEAR, rng)
        assert out.tolist() == [VACUUM]

    def test_aligned_photons_are_deterministic(self):
        rng = np.random.default_rng(0)
        batch = pulses(5, DecisionAngle(0).radians, 200)
        out = measure(batch, RECTILINEAR, rng)
        assert (out == 0).all()

    def test_orthogonal_photons_are_deterministic(self):
        rng = np.random.default_rng(0)
        batch = pulses(5, DecisionAngle(2).radians, 200)
        out = measure(batch, RECTILINEAR, rng)
        assert (out == 2).all()

    def test_diagonal_basis_aligned(self):
        rng = np.random.default_rng(0)
        batch = pulses(3, DecisionAngle(3).radians)
        out = measure(batch, DIAGONAL, rng)
        assert out.tolist() == [3]

    def test_single_photon_at_45_degrees_is_a_fair_coin(self):
        # Malus law: a photon at pi/4 meets a rectilinear splitter with
        # cos^2(pi/4) = 1/2 on each port.
        rng = np.random.default_rng(99)
        n = 10**6
        out = measure(pulses(1, DecisionAngle(1).radians, n), RECTILINEAR, rng)
        assert np.isin(out, (0, 2)).all()
        zeros = np.count_nonzero(out == 0)
        sigma = math.sqrt(0.25 / n)
        assert abs(zeros / n - 0.5) < 3 * sigma

    def test_multiphoton_mismatched_is_often_ambiguous(self):
        # n photons at 45 degrees land in the same port with
        # probability 2^(1-n); everything else is ambiguous.
        rng = np.random.default_rng(7)
        n = 20000
        out = measure(pulses(4, DecisionAngle(1).radians, n), RECTILINEAR, rng)
        ambiguous = np.count_nonzero(out == AMBIGUOUS)
        expected = 1.0 - 2.0 ** (1 - 4)
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(ambiguous / n - expected) < 3 * sigma

    def test_off_protocol_angle_follows_p_to_the_k(self):
        # At 0.3 rad a photon clicks the rectilinear aligned detector with
        # p = cos^2(0.3): k photons read aligned with p^k, orthogonal with
        # (1-p)^k, and ambiguous otherwise.
        rng = np.random.default_rng(2024)
        n = 100_000
        p = math.cos(0.3) ** 2
        for k in range(1, 7):
            out = measure(pulses(k, 0.3, n), RECTILINEAR, rng)
            observed = np.array([np.count_nonzero(out == code) for code in (0, 2, AMBIGUOUS)])
            law = np.array([p**k, (1.0 - p) ** k, 1.0 - p**k - (1.0 - p) ** k])
            seen = law > 0  # one photon is never ambiguous
            assert observed.sum() == n and not observed[~seen].any()
            result = stats.chisquare(observed[seen], law[seen] * n)
            assert result.pvalue > 1e-4, (k, observed, law * n)


class TestCoherentMeasure:
    @pytest.mark.parametrize("mean", [0.5, 3.0, 6.0])
    def test_arm_follows_the_coherent_law(self, mean):
        # One arm of Rec-1's 50:50 splitter holds a coherent pulse of half
        # the mean, whose detectors see independent Poisson counts of means
        # m*p and m*(1-p): vacuum e^-m, aligned only e^(-m(1-p)) - e^-m,
        # orthogonal only e^(-mp) - e^-m, ambiguous the rest.
        rng = np.random.default_rng(2025)
        n = 100_000
        m = mean / 2
        cases = [(0.3, RECTILINEAR)] + [
            (DecisionAngle(q).radians, basis) for q in range(4) for basis in (RECTILINEAR, DIAGONAL)
        ]
        for polarization, basis in cases:
            out = coherent_measure(m, malus(np.array([polarization]), basis), np.zeros(n, int),
                                   basis, rng)
            p = math.cos(polarization - basis * QT) ** 2
            vacuum = math.exp(-m)
            aligned, orthogonal = math.exp(-m * (1.0 - p)) - vacuum, math.exp(-m * p) - vacuum
            law = np.array([vacuum, aligned, orthogonal, 1.0 - vacuum - aligned - orthogonal])
            codes = (VACUUM, basis, basis + 2, AMBIGUOUS)
            observed = np.array([np.count_nonzero(out == code) for code in codes])
            seen = law > 1e-12  # at a protocol angle one detector never clicks
            assert observed.sum() == n and not observed[~seen].any(), (polarization, basis, observed)
            result = stats.chisquare(observed[seen], law[seen] / law[seen].sum() * n)
            assert result.pvalue > 1e-4, (polarization, basis, observed, law * n)
