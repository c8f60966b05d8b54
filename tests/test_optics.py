import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from session_records import recorded
from test_engine_agreement import _poisson

from sqss.channel import thin_batch
from sqss.config import SimConfig
from sqss.optics import (
    AMBIGUOUS,
    ANGLE_LABELS,
    DIAGONAL,
    MALUS,
    RECTILINEAR,
    VACUUM,
    malus,
    rec1_measure,
    rotate,
)
from sqss.protocol import _polarizations, _run_round

QT = math.pi / 4


def pulses(count, polarization, size=1):
    """``size`` identical pulses of ``count`` photons at one polarization:
    their counts and their polarizations."""
    return np.full(size, count), np.full(size, float(polarization))


def circular_distance(a, b):
    """Distance between two polarizations on the half-circle, which wraps at pi."""
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def pbs_measure(count, p_aligned, aligned, rng):
    """Reference read of pulses of ``count`` photons each on a polarizing beam
    splitter whose aligned detector sits at ``aligned`` quarter turns
    (RECTILINEAR or DIAGONAL).

    Every photon clicks the aligned detector with its Malus probability
    ``p_aligned`` and the orthogonal one otherwise, so a pulse of k photons
    is vacuum with probability 0^k, reads the aligned angle with p^k and
    the orthogonal angle with (1 - p)^k, and is ambiguous otherwise; one
    uniform per pulse picks among the four. Returns one outcome code per pulse.
    """
    u = rng.random(len(count))
    vacuum = count == 0  # 0^k
    below = vacuum + p_aligned**count
    above = below + (1.0 - p_aligned) ** count
    # the intervals of u: vacuum, aligned only, orthogonal only, ambiguous
    codes = aligned + 2 * (u >= below).view(np.int8)
    codes[u >= above] = AMBIGUOUS
    codes[u < vacuum] = VACUUM
    return codes


def measure(light, aligned, rng):
    """``pbs_measure`` on pulses at their float polarization."""
    count, polarization = light
    return pbs_measure(count, malus(polarization, aligned), aligned, rng)


def turned(radians, start=0.0):
    """The polarization of one pulse at ``start`` after ``rotate`` by ``radians``."""
    return rotate(np.array([start]), radians)[0]


class TestPolarizationAngle:
    """Polarizations live on [0, pi): ``rotate`` reduces every sum into it."""

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
    """Decision angles are ints 0..3, quarter turns of pi/4."""

    def test_labels(self):
        assert list(ANGLE_LABELS) == ["0", "pi/4", "pi/2", "-pi/4"]

    @given(st.integers(0, 3), st.integers(0, 3))
    def test_add_matches_polarization_addition(self, qa, qb):
        # the engine adds shuffles as quarter turns mod 4 and rotates
        # polarizations as floats; the two must agree
        combined = ((qa + qb) % 4) * QT
        direct = turned(qb * QT, start=qa * QT)
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
            out = measure(pulses(5, q * QT, 200), basis, rng)
            assert (out == q).all()

    def test_aligned_and_orthogonal(self):
        # a basis names its aligned detector; the orthogonal one reads +2
        rng = np.random.default_rng(0)
        for basis, aligned, orthogonal in ((RECTILINEAR, 0, 2), (DIAGONAL, 1, 3)):
            assert basis == aligned
            for q in (aligned, orthogonal):
                assert measure(pulses(5, q * QT), basis, rng).tolist() == [q]


class TestPulses:
    def test_negative_mean_rejected(self):
        # the source draws Poisson(mu), which has no negative mean
        config = SimConfig(mean_photons=-0.1, trace=True)
        with pytest.raises(ValueError):
            _run_round(1, config, np.random.default_rng(0))

    def test_negative_count_rejected(self):
        # a photon count is never negative: thinning one raises
        with pytest.raises(ValueError):
            thin_batch(np.array([2, -1]), 0.5, np.random.default_rng(0))

    def test_rotate_known_cases(self):
        out = rotate(np.array([0.0, 3 * math.pi / 4, 0.3]), np.array([math.pi / 2, math.pi / 2, -0.3]))
        assert out == pytest.approx([math.pi / 2, math.pi / 4, 0.0])

    def test_rotate_preserves_mean(self):
        # polarization is kept apart from the counts, so no stage's rotation
        # changes one: on a lossless ring every traced stage holds the
        # source's count
        config = SimConfig(receivers=3, adversary="impersonate", rounds=500, seed=4, trace=True)
        photons = recorded(config)[1].trace_photons
        assert (photons == photons[:, :1]).all() and photons.any()

    @given(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_rotate_composes(self, a, b, start):
        p = np.array([start % math.pi])
        stepwise = rotate(rotate(p, a), b)[0]
        direct = rotate(p, a + b)[0]
        assert 0.0 <= stepwise < math.pi
        assert circular_distance(stepwise, direct) <= 1e-12


class TestSampling:
    """The source draws the photon number of each pulse."""

    def test_vacuum_pulse_never_clicks(self):
        rng = np.random.default_rng(0)
        config = SimConfig(mean_photons=0.0, trace=True)
        table = _run_round(100, config, rng)
        assert not table.trace_photons.any()
        assert (table.rect == VACUUM).all() and (table.diag == VACUUM).all()

    def test_poisson_statistics(self):
        # the traced count leaving the source
        rng = np.random.default_rng(123)
        n = 10**6
        config = SimConfig(receivers=1, mean_photons=3.0, trace=True)
        counts = _run_round(n, config, rng).trace_photons[:, 0]
        p0 = np.mean(counts == 0)
        sigma0 = math.sqrt(math.exp(-3.0) * (1 - math.exp(-3.0)) / n)
        assert abs(p0 - math.exp(-3.0)) < 3 * sigma0
        sigma_mean = math.sqrt(3.0 / n)
        assert abs(counts.mean() - 3.0) < 3 * sigma_mean

    def test_polarization_carried_over(self):
        # the pulses leave the source polarized at theta
        _, table = recorded(SimConfig(rounds=10, seed=5, trace=True))
        assert next(_polarizations(table)).tolist() == table.theta.tolist()


class TestBeamSplit:
    """A beam splitter passes each photon to its first port independently:
    a binomial thinning (``thin_batch``) whose remainder takes the other port."""

    def test_reference_ratios(self):
        rng = np.random.default_rng(0)
        assert thin_batch(np.array([6]), 1.0, rng).tolist() == [6]
        assert thin_batch(np.array([0]), 0.25, rng).tolist() == [0]

    def test_polarization_shared_by_both_arms(self):
        # Alice's storage splitter thins the count and leaves every
        # polarization as it was: the same seed traces the same angles
        # whatever share it passes
        tables = [
            recorded(SimConfig(rounds=300, bs_ratio=ratio, seed=6, trace=True))[1]
            for ratio in (0.3, 1.0)
        ]
        encoded = tables[0].trace_stages.index("alice_encoded")
        folds = [np.column_stack(list(_polarizations(table))) for table in tables]
        assert (folds[0] == folds[1]).all()
        assert tables[0].trace_photons[:, encoded].sum() < tables[1].trace_photons[:, encoded].sum()

    def test_ratio_out_of_range(self):
        rng = np.random.default_rng(0)
        count = np.array([1])
        with pytest.raises(ValueError):
            thin_batch(count, -0.01, rng)
        with pytest.raises(ValueError):
            thin_batch(count, 1.01, rng)

    @given(st.integers(0, 200), st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                                          exclude_min=True))
    def test_split_conserves_photons(self, count, ratio):
        # the first port never takes more than arrived, the other the rest
        rng = np.random.default_rng(count + 1)
        first = thin_batch(np.array([count]), ratio, rng)
        assert 0 <= first[0] <= count

    def test_split_is_binomial(self):
        rng = np.random.default_rng(42)
        n_trials = 20000
        kept = thin_batch(np.full(n_trials, 10), 0.3, rng).sum()
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
        batch = pulses(5, 0.0, 200)
        out = measure(batch, RECTILINEAR, rng)
        assert (out == 0).all()

    def test_orthogonal_photons_are_deterministic(self):
        rng = np.random.default_rng(0)
        batch = pulses(5, 2 * QT, 200)
        out = measure(batch, RECTILINEAR, rng)
        assert (out == 2).all()

    def test_diagonal_basis_aligned(self):
        rng = np.random.default_rng(0)
        batch = pulses(3, 3 * QT)
        out = measure(batch, DIAGONAL, rng)
        assert out.tolist() == [3]

    def test_single_photon_at_45_degrees_is_a_fair_coin(self):
        # Malus law: a photon at pi/4 meets a rectilinear splitter with
        # cos^2(pi/4) = 1/2 on each port.
        rng = np.random.default_rng(99)
        n = 10**6
        out = measure(pulses(1, QT, n), RECTILINEAR, rng)
        assert np.isin(out, (0, 2)).all()
        zeros = np.count_nonzero(out == 0)
        sigma = math.sqrt(0.25 / n)
        assert abs(zeros / n - 0.5) < 3 * sigma

    def test_multiphoton_mismatched_is_often_ambiguous(self):
        # n photons at 45 degrees land in the same port with
        # probability 2^(1-n); everything else is ambiguous.
        rng = np.random.default_rng(7)
        n = 20000
        out = measure(pulses(4, QT, n), RECTILINEAR, rng)
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
            observed, expected = observed[seen], law[seen] * n
            if expected[1] < 20:
                # a cell expected below 20 counts would trip the chi-square's
                # 1e-4 gate above its nominal rate (Cochran, Biometrics 10(4),
                # 1954): from k = 4 the orthogonal cell joins the ambiguous one
                observed = np.array([observed[0], observed[1:].sum()])
                expected = np.array([expected[0], expected[1:].sum()])
            assert expected.min() >= 20, (k, expected)
            result = stats.chisquare(observed, expected)
            assert result.pvalue > 1e-4, (k, observed, expected)


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
        for q in range(4):
            arms = dict(zip((RECTILINEAR, DIAGONAL), rec1_measure(np.full(n, q), None, mean, rng)))
            for basis, out in arms.items():
                p = math.cos((q - basis) * QT) ** 2
                vacuum = math.exp(-m)
                aligned, orthogonal = math.exp(-m * (1.0 - p)) - vacuum, math.exp(-m * p) - vacuum
                law = np.array([vacuum, aligned, orthogonal, 1.0 - vacuum - aligned - orthogonal])
                codes = (VACUUM, basis, basis + 2, AMBIGUOUS)
                observed = np.array([np.count_nonzero(out == code) for code in codes])
                seen = law > 1e-12  # at a protocol angle one detector never clicks
                assert observed.sum() == n and not observed[~seen].any(), (q, basis, observed)
                expected = law[seen] / law[seen].sum() * n
                assert expected.min() >= 5, (q, basis, expected)
                result = stats.chisquare(observed[seen], expected)
                assert result.pvalue > 1e-4, (q, basis, observed, expected)


def _arm_code(aligned: int, clicks: list[int]) -> int:
    """The code of an arm whose aligned and orthogonal detectors took ``clicks``."""
    aligned_clicks, orthogonal_clicks = clicks
    if aligned_clicks and orthogonal_clicks:
        return AMBIGUOUS
    if aligned_clicks:
        return aligned
    return aligned + 2 if orthogonal_clicks else VACUUM


def reference_rec1(r: random.Random, arrived: int, photons: int, q: float) -> tuple[int, int]:
    """Rec-1's (rect, diag) codes, photon by photon: each photon is lost, or
    takes either arm with probability q/2 and then its aligned detector
    with Malus' cos^2 or the orthogonal one."""
    cells = []
    for aligned in (RECTILINEAR, DIAGONAL):
        p = math.cos((arrived - aligned) * QT) ** 2
        cells += [q / 2 * p, q / 2 * (1.0 - p)]
    clicks = [0, 0, 0, 0]
    for _ in range(photons):
        x = r.random()
        for detector, weight in enumerate(cells):
            if x < weight:
                clicks[detector] += 1
                break
            x -= weight
    return _arm_code(RECTILINEAR, clicks[:2]), _arm_code(DIAGONAL, clicks[2:])


def joint_histogram(rect, diag, arrived) -> np.ndarray:
    """Rounds binned by (rect, diag, arrived) jointly."""
    cell = (np.asarray(rect, dtype=np.int64) * 6 + np.asarray(diag)) * 4 + arrived
    return np.bincount(cell, minlength=144)


def reference_histogram(seed: int, q: float, photons, rounds: int = 10_000) -> np.ndarray:
    """The joint histogram of ``rounds`` reference rounds, each at a uniform
    arrival angle and with ``photons(r)`` photons."""
    r = random.Random(seed)
    arrived = [r.randrange(4) for _ in range(rounds)]
    codes = [reference_rec1(r, a, photons(r), q) for a in arrived]
    return joint_histogram(*zip(*codes), arrived)


class TestRec1JointLaw:
    """``rec1_measure`` against a photon-by-photon reference that shares no
    code and no random stream with it: a chi-square test of homogeneity
    on the joint (rect, diag, arrived) histogram."""

    ROUNDS = 100_000

    def engine_histogram(self, seed, count, share):
        rng = np.random.default_rng(seed)
        arrived = rng.integers(4, size=self.ROUNDS, dtype=np.int8)
        return joint_histogram(*rec1_measure(arrived, count, share, rng), arrived)

    def assert_one_law(self, engine, reference):
        # cells too rare to test on their own are pooled into one, and
        # left out when even the pool is too rare
        rare = (engine + reference) < 20 * (engine.sum() + reference.sum()) / reference.sum()
        table = np.array([np.append(h[~rare], h[rare].sum()) for h in (engine, reference)])
        table = table[:, table.sum(axis=0) >= 20 * table.sum() / table[1].sum()]
        if table.shape[1] == 1:  # a single outcome (no photon): both read only it
            assert (engine > 0).tolist() == (reference > 0).tolist()
            return
        chi2, p, _, expected = stats.chi2_contingency(table)
        assert expected.min() >= 20, f"expected cell counts too small: {expected.min():.1f}"
        assert p > 1e-4, f"chi2 = {chi2:.1f}, p = {p:.2e}\nengine    {table[0]}\nreference {table[1]}"

    @pytest.mark.parametrize("q", [1.0, 0.35, 0.01])
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 20])
    def test_counted_pulse(self, m, q):
        engine = self.engine_histogram(3000 + m, np.full(self.ROUNDS, m), q)
        self.assert_one_law(engine, reference_histogram(m, q, lambda r: m))

    @pytest.mark.parametrize("mean", [0.5, 3.0, 6.0])
    def test_coherent_pulse(self, mean):
        engine = self.engine_histogram(4000, None, mean)
        self.assert_one_law(engine, reference_histogram(4000, 1.0, lambda r: _poisson(r, mean)))

    @given(
        st.integers(0, 2**62),
        st.floats(min_value=1e-300, max_value=1.0),
        st.floats(min_value=0.0, max_value=1e19),
        st.integers(0, 3),
    )
    @settings(max_examples=200)
    def test_extreme_pulses_read_valid_codes(self, m, q, mean, arrived):
        # the validator lets means this far out through; a RuntimeWarning
        # fails the run, so none may appear on the way
        rng = np.random.default_rng(m % 1000)
        angle = np.full(64, arrived, dtype=np.int8)
        for count, share in ((np.full(64, m), q), (None, mean)):
            rect, diag = rec1_measure(angle, count, share, rng)
            definite, other = (rect, diag) if arrived % 2 == 0 else (diag, rect)
            assert np.isin(definite, (arrived, VACUUM)).all()
            assert np.isin(other, ((arrived + 1) % 4, (arrived + 3) % 4, VACUUM, AMBIGUOUS)).all()
