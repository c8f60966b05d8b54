import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqss.optics import (
    DecisionAngle,
    MeasurementBasis,
    MeasurementOutcome,
    OutcomeKind,
    PhotonBatch,
    PolarizationAngle,
    basis_of,
    decision_add,
    pbs_measure,
    rotate_batch,
    split_batch,
)
from sqss.protocol import SenderState, alice_prepare

QT = math.pi / 4


class TestPolarizationAngle:
    def test_reduces_into_half_open_interval(self):
        assert PolarizationAngle(math.pi).radians == 0.0
        assert PolarizationAngle(-math.pi / 4).radians == pytest.approx(3 * math.pi / 4)
        assert PolarizationAngle(2.5 * math.pi).radians == pytest.approx(0.5 * math.pi)

    def test_tiny_negative_does_not_round_to_pi(self):
        # fmod of a tiny negative plus pi can land exactly on pi; the
        # representative must still be inside [0, pi).
        a = PolarizationAngle(-1e-18)
        assert 0.0 <= a.radians < math.pi

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    def test_always_in_range(self, radians):
        a = PolarizationAngle(radians)
        assert 0.0 <= a.radians < math.pi

    def test_addition_and_subtraction_wrap(self):
        a = PolarizationAngle(3 * math.pi / 4)
        assert (a + math.pi / 2).radians == pytest.approx(math.pi / 4)
        assert (a - PolarizationAngle(math.pi / 2)).radians == pytest.approx(math.pi / 4)

    def test_distance_is_circular(self):
        near_zero = PolarizationAngle(0.01)
        near_pi = PolarizationAngle(math.pi - 0.01)
        assert near_zero.distance_to(near_pi) == pytest.approx(0.02)
        assert near_zero.is_close(near_pi, tol=0.03)
        assert not near_zero.is_close(near_pi, tol=0.01)

    @given(
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    )
    def test_distance_symmetric_and_bounded(self, x, y):
        a, b = PolarizationAngle(x), PolarizationAngle(y)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))
        assert 0.0 <= a.distance_to(b) <= math.pi / 2 + 1e-12


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

    def test_from_radians_recognizes_the_four_angles(self):
        assert DecisionAngle.from_radians(0.0) == DecisionAngle(0)
        assert DecisionAngle.from_radians(math.pi / 4) == DecisionAngle(1)
        assert DecisionAngle.from_radians(math.pi / 2) == DecisionAngle(2)
        # -pi/4 and 3pi/4 are the same polarization
        assert DecisionAngle.from_radians(-math.pi / 4) == DecisionAngle(3)
        assert DecisionAngle.from_radians(3 * math.pi / 4) == DecisionAngle(3)

    def test_from_radians_rejects_other_angles(self):
        with pytest.raises(ValueError):
            DecisionAngle.from_radians(0.3)

    def test_cyclic_group_arithmetic(self):
        assert (DecisionAngle(2) + DecisionAngle(2)) == DecisionAngle(0)
        assert (DecisionAngle(1) + DecisionAngle(1)) == DecisionAngle(2)
        assert (DecisionAngle(0) + DecisionAngle(3)) == DecisionAngle(3)
        assert (DecisionAngle(1) - DecisionAngle(3)) == DecisionAngle(2)
        assert -DecisionAngle(1) == DecisionAngle(3)
        assert -DecisionAngle(0) == DecisionAngle(0)

    @given(st.integers(0, 3), st.integers(0, 3))
    def test_add_matches_polarization_addition(self, qa, qb):
        a, b = DecisionAngle(qa), DecisionAngle(qb)
        combined = (a + b).to_polarization()
        direct = a.to_polarization() + b.radians
        assert combined.is_close(direct, tol=1e-12)

    def test_decision_add_helper(self):
        assert decision_add(DecisionAngle(2), DecisionAngle(2)) == DecisionAngle(0)
        assert decision_add(DecisionAngle(1), DecisionAngle(1)) == DecisionAngle(2)


class TestBasis:
    def test_basis_of_partitions_the_angles(self):
        assert basis_of(DecisionAngle(0)) is MeasurementBasis.RECTILINEAR
        assert basis_of(DecisionAngle(2)) is MeasurementBasis.RECTILINEAR
        assert basis_of(DecisionAngle(1)) is MeasurementBasis.DIAGONAL
        assert basis_of(DecisionAngle(3)) is MeasurementBasis.DIAGONAL

    def test_aligned_and_orthogonal(self):
        rect = MeasurementBasis.RECTILINEAR
        diag = MeasurementBasis.DIAGONAL
        assert rect.aligned == DecisionAngle(0)
        assert rect.orthogonal == DecisionAngle(2)
        assert diag.aligned == DecisionAngle(1)
        assert diag.orthogonal == DecisionAngle(3)


class TestPulses:
    def test_negative_mean_rejected(self):
        # the source draws Poisson(mu), which has no negative mean
        with pytest.raises(ValueError):
            alice_prepare(SenderState(mean_photons=-0.1), np.random.default_rng(0))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            PhotonBatch(-1, PolarizationAngle(0.0))

    def test_rotate_known_cases(self):
        p = PhotonBatch(2, PolarizationAngle(0.0))
        assert rotate_batch(p, math.pi / 2).polarization.radians == pytest.approx(math.pi / 2)
        p = PhotonBatch(2, PolarizationAngle(3 * math.pi / 4))
        assert rotate_batch(p, math.pi / 2).polarization.radians == pytest.approx(math.pi / 4)
        p = PhotonBatch(2, PolarizationAngle(0.3))
        assert rotate_batch(p, -0.3).polarization.radians == pytest.approx(0.0)

    def test_rotate_preserves_mean(self):
        batch = PhotonBatch(4, PolarizationAngle(1.0))
        assert rotate_batch(batch, 0.7).count == 4

    @given(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_rotate_composes(self, a, b, start):
        p = PhotonBatch(1, PolarizationAngle(start))
        stepwise = rotate_batch(rotate_batch(p, a), b)
        direct = rotate_batch(p, a + b)
        assert stepwise.polarization.is_close(direct.polarization, tol=1e-12)


class TestSampling:
    """The source draws the photon number of each pulse."""

    def test_vacuum_pulse_never_clicks(self):
        rng = np.random.default_rng(0)
        state = SenderState(mean_photons=0.0)
        assert all(alice_prepare(state, rng).count == 0 for _ in range(100))

    def test_poisson_statistics(self):
        rng = np.random.default_rng(123)
        state = SenderState(mean_photons=3.0)
        n = 10**6
        counts = np.array([alice_prepare(state, rng).count for _ in range(n)])
        p0 = np.mean(counts == 0)
        sigma0 = math.sqrt(math.exp(-3.0) * (1 - math.exp(-3.0)) / n)
        assert abs(p0 - math.exp(-3.0)) < 3 * sigma0
        sigma_mean = math.sqrt(3.0 / n)
        assert abs(counts.mean() - 3.0) < 3 * sigma_mean

    def test_polarization_carried_over(self):
        rng = np.random.default_rng(5)
        state = SenderState(mean_photons=2.0)
        pulse = alice_prepare(state, rng)
        assert pulse.polarization.radians == pytest.approx(state.theta)


class TestBeamSplit:
    def test_reference_ratios(self):
        rng = np.random.default_rng(0)
        p = PhotonBatch(6, PolarizationAngle(0.4))
        t, r = split_batch(p, 1.0, rng)
        assert (t.count, r.count) == (6, 0)
        t, r = split_batch(p, 0.0, rng)
        assert (t.count, r.count) == (0, 6)
        t, r = split_batch(PhotonBatch(0, PolarizationAngle(0.4)), 0.25, rng)
        assert (t.count, r.count) == (0, 0)

    def test_polarization_shared_by_both_arms(self):
        rng = np.random.default_rng(0)
        t, r = split_batch(PhotonBatch(2, PolarizationAngle(1.1)), 0.3, rng)
        assert t.polarization.radians == r.polarization.radians == pytest.approx(1.1)

    def test_ratio_out_of_range(self):
        rng = np.random.default_rng(0)
        p = PhotonBatch(1, PolarizationAngle(0.0))
        with pytest.raises(ValueError):
            split_batch(p, -0.01, rng)
        with pytest.raises(ValueError):
            split_batch(p, 1.01, rng)

    @given(st.integers(0, 200), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_split_batch_conserves_photons(self, count, ratio):
        rng = np.random.default_rng(count + 1)
        batch = PhotonBatch(count, PolarizationAngle(0.5))
        a, b = split_batch(batch, ratio, rng)
        assert a.count + b.count == count

    def test_split_batch_is_binomial(self):
        rng = np.random.default_rng(42)
        n_trials = 20000
        kept = sum(split_batch(PhotonBatch(10, PolarizationAngle(0)), 0.3, rng)[0].count
                   for _ in range(n_trials))
        mean = kept / n_trials
        sigma = math.sqrt(10 * 0.3 * 0.7 / n_trials)
        assert abs(mean - 3.0) < 3 * sigma


class TestPbsMeasure:
    def test_vacuum(self):
        rng = np.random.default_rng(0)
        out = pbs_measure(PhotonBatch(0, PolarizationAngle(0.3)), MeasurementBasis.RECTILINEAR, rng)
        assert out.is_vacuum
        assert out.kind is OutcomeKind.VACUUM

    def test_aligned_photons_are_deterministic(self):
        rng = np.random.default_rng(0)
        batch = PhotonBatch(5, DecisionAngle(0).to_polarization())
        for _ in range(200):
            out = pbs_measure(batch, MeasurementBasis.RECTILINEAR, rng)
            assert out.is_angle and out.angle == DecisionAngle(0)

    def test_orthogonal_photons_are_deterministic(self):
        rng = np.random.default_rng(0)
        batch = PhotonBatch(5, DecisionAngle(2).to_polarization())
        for _ in range(200):
            out = pbs_measure(batch, MeasurementBasis.RECTILINEAR, rng)
            assert out.is_angle and out.angle == DecisionAngle(2)

    def test_diagonal_basis_aligned(self):
        rng = np.random.default_rng(0)
        batch = PhotonBatch(3, DecisionAngle(3).to_polarization())
        out = pbs_measure(batch, MeasurementBasis.DIAGONAL, rng)
        assert out.angle == DecisionAngle(3)

    def test_single_photon_at_45_degrees_is_a_fair_coin(self):
        # Malus law: a photon at pi/4 meets a rectilinear splitter with
        # cos^2(pi/4) = 1/2 on each port.
        rng = np.random.default_rng(99)
        batch = PhotonBatch(1, DecisionAngle(1).to_polarization())
        n = 10**6
        zeros = 0
        for _ in range(n):
            out = pbs_measure(batch, MeasurementBasis.RECTILINEAR, rng)
            assert out.is_angle
            if out.angle == DecisionAngle(0):
                zeros += 1
        sigma = math.sqrt(0.25 / n)
        assert abs(zeros / n - 0.5) < 3 * sigma

    def test_multiphoton_mismatched_is_often_ambiguous(self):
        # n photons at 45 degrees land in the same port with
        # probability 2^(1-n); everything else is ambiguous.
        rng = np.random.default_rng(7)
        batch = PhotonBatch(4, DecisionAngle(1).to_polarization())
        n = 20000
        ambiguous = sum(
            pbs_measure(batch, MeasurementBasis.RECTILINEAR, rng).is_ambiguous for _ in range(n)
        )
        expected = 1.0 - 2.0 ** (1 - 4)
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(ambiguous / n - expected) < 3 * sigma

    def test_outcome_constructors(self):
        assert MeasurementOutcome.vacuum().is_vacuum
        assert MeasurementOutcome.ambiguous().is_ambiguous
        angle = MeasurementOutcome.of_angle(DecisionAngle(2))
        assert angle.is_angle and angle.angle == DecisionAngle(2)
