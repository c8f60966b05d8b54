import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from session_records import _poisson, circular_distance, counted_dark, recorded

from sqss.adversary import pns_dark
from sqss.channel import thin_batch
from sqss.config import SimConfig
from sqss.optics import (
    AMBIGUOUS,
    ANGLE_LABELS,
    DIAGONAL,
    MALUS,
    RECTILINEAR,
    VACUUM,
    _rec1_bounds,
    coherent_dark,
    malus,
    rec1_definite,
    rec1_measure,
    rotate,
    uniform_z4,
)
from sqss.protocol import _key_angle, _polarizations, run_session

QT = math.pi / 4


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

    def test_rotate_known_cases(self):
        out = rotate(np.array([0.0, 3 * math.pi / 4, 0.3]), np.array([math.pi / 2, math.pi / 2, -0.3]))
        assert out == pytest.approx([math.pi / 2, math.pi / 4, 0.0])

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


class TestQuarterTurns:
    """Protocol angles are ints 0..3, quarter turns of pi/4."""

    def test_labels(self):
        assert list(ANGLE_LABELS) == ["0", "pi/4", "pi/2", "-pi/4"]
        # a basis names the angle its aligned detector reads; the orthogonal one reads +2
        assert (RECTILINEAR, DIAGONAL) == (0, 1)

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


class TestBeamSplit:
    """A beam splitter passes each photon to its first port independently:
    a binomial thinning (``thin_batch``) whose remainder takes the other port."""

    def test_reference_ratios(self):
        rng = np.random.default_rng(0)
        assert thin_batch(np.array([6]), 1.0, rng).tolist() == [6]
        assert thin_batch(np.array([0]), 0.25, rng).tolist() == [0]

    def test_ratio_out_of_range(self):
        rng = np.random.default_rng(0)
        count = np.array([1])
        with pytest.raises(ValueError):
            thin_batch(count, -0.01, rng)
        with pytest.raises(ValueError):
            thin_batch(count, 1.01, rng)


class TestUniformZ4:
    """Fair Z4 values from the generator's raw words, the same on every host."""

    @staticmethod
    def decoded(seed, count):
        # the low two bits of each byte of the raw words, little-endian, in pure Python
        words = np.random.default_rng(seed).bit_generator.random_raw(-(-count // 8))
        return [byte & 3 for word in words for byte in int(word).to_bytes(8, "little")][:count]

    @pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 4271])
    def test_matches_a_pure_python_decode(self, count):
        values = uniform_z4(count, np.random.default_rng(31))
        assert values.dtype == np.int8 and values.shape == (count,)
        assert values.tolist() == self.decoded(31, count)

    def test_shape_is_filled_row_by_row(self):
        values = uniform_z4((2, 4271), np.random.default_rng(32))
        assert values.dtype == np.int8 and values.shape == (2, 4271)
        assert values.reshape(-1).tolist() == self.decoded(32, 2 * 4271)

    @pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 4271])
    def test_advances_the_generator_by_the_words_read(self, count):
        rng = np.random.default_rng(33)
        uniform_z4(count, rng)
        expected = np.random.default_rng(33).bit_generator
        expected.advance(-(-count // 8))
        assert rng.bit_generator.state == expected.state


class TestSampling:
    """The trace draws the photon number of each pulse behind its round."""

    def test_negative_mean_rejected(self):
        # a Poisson pulse has no negative mean: the session refuses it
        config = SimConfig(mean_photons=-0.1, trace=True)
        with pytest.raises(ValueError):
            run_session(config, lambda table: None)

    def test_vacuum_pulse_never_clicks(self):
        # the faintest pulse the session takes brings no photon to any stage
        config = SimConfig(mean_photons=1e-300, rounds=100, parity_block=0, seed=0, trace=True)
        _, table = recorded(config)
        assert not table.trace_photons.any()
        assert (table.rect == VACUUM).all() and (table.diag == VACUUM).all()

    def test_poisson_statistics(self):
        # the traced count leaving the source, over every cell Rec-1 reads
        n = 10**6
        config = SimConfig(receivers=1, mean_photons=3.0, rounds=n, parity_block=0, seed=123,
                           trace=True)
        counts = recorded(config)[1].trace_photons[:, 0]
        p0 = np.mean(counts == 0)
        sigma0 = math.sqrt(math.exp(-3.0) * (1 - math.exp(-3.0)) / n)
        assert abs(p0 - math.exp(-3.0)) < 3 * sigma0
        sigma_mean = math.sqrt(3.0 / n)
        assert abs(counts.mean() - 3.0) < 3 * sigma_mean

    def test_polarization_carried_over(self):
        # the pulses leave the source polarized at theta
        _, table = recorded(SimConfig(rounds=10, seed=5, trace=True))
        assert next(_polarizations(table)).tolist() == table.theta.tolist()

    def test_lossless_ring_holds_the_source_count(self):
        # polarization is kept apart from the counts, so no stage's rotation
        # changes one: on a lossless ring every traced stage holds the
        # source's count
        config = SimConfig(receivers=3, adversary="impersonate", rounds=500, seed=4, trace=True)
        photons = recorded(config)[1].trace_photons
        assert (photons == photons[:, :1]).all() and photons.any()

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
            arms = rec1_measure(np.full(n, q), *coherent_dark(mean), rng.random(n))
            arms = dict(zip((RECTILINEAR, DIAGONAL), arms))
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


def assert_one_law(engine, reference):
    """A chi-square test of homogeneity of two histograms at p > 1e-4."""
    # cells too rare to test on their own are pooled into one, and
    # left out when even the pool is too rare; leaving one out moves the
    # reference's share of the rest, so until no cell is left too rare
    rare = (engine + reference) < 20 * (engine.sum() + reference.sum()) / reference.sum()
    table = np.array([np.append(h[~rare], h[rare].sum()) for h in (engine, reference)])
    while (drop := table.sum(axis=0) < 20 * table.sum() / table[1].sum()).any():
        table = table[:, ~drop]
    if table.shape[1] == 1:  # a single outcome (no photon): both read only it
        assert (engine > 0).tolist() == (reference > 0).tolist()
        return
    chi2, p, _, expected = stats.chi2_contingency(table)
    assert expected.min() >= 20, f"expected cell counts too small: {expected.min():.1f}"
    assert p > 1e-4, f"chi2 = {chi2:.1f}, p = {p:.2e}\nengine    {table[0]}\nreference {table[1]}"


class TestRec1JointLaw:
    """``rec1_measure`` against a photon-by-photon reference that shares no
    code and no random stream with it: a chi-square test of homogeneity
    on the joint (rect, diag, arrived) histogram."""

    ROUNDS = 100_000

    def engine_histogram(self, seed, dark, column):
        rng = np.random.default_rng(seed)
        arrived = rng.integers(4, size=self.ROUNDS, dtype=np.int8)
        u = rng.random(self.ROUNDS)
        return joint_histogram(*rec1_measure(arrived, dark, column, u), arrived)

    @pytest.mark.parametrize("q", [1.0, 0.35, 0.01])
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 20])
    def test_counted_pulse(self, m, q):
        engine = self.engine_histogram(3000 + m, *counted_dark(np.full(self.ROUNDS, m), q))
        assert_one_law(engine, reference_histogram(m, q, lambda r: m))

    @pytest.mark.parametrize("mean", [0.5, 3.0, 6.0])
    def test_coherent_pulse(self, mean):
        engine = self.engine_histogram(4000, *coherent_dark(mean))
        assert_one_law(engine, reference_histogram(4000, 1.0, lambda r: _poisson(r, mean)))

    @pytest.mark.parametrize("q", [1.0, 0.9, 0.7, 0.35, 0.2, 0.1, 0.01, 1e-9])
    def test_one_photon_lights_one_detector_at_most(self, q):
        # cell = 4 * definite + 2 * orthogonal + aligned, so cells 3, 5, 6 and 7
        # light two detectors or more, which the at most one photon Eve
        # forwards when she keeps none (pns_dark's column 0) cannot: each
        # step has no width below zero, and these none at all
        for mean in [*10.0 ** np.arange(-300, 19, 3.7), 9.2e18]:
            dark = pns_dark(mean, q, np.zeros(0, dtype=bool))[0]
            width = np.diff(_rec1_bounds(dark)[:, 0], prepend=0.0, append=1.0)
            assert (width >= 0.0).all(), (mean, width)
            assert (width[[3, 5, 6, 7]] == 0.0).all(), (mean, width)

    @given(
        st.integers(0, 2**62),
        st.floats(min_value=1e-300, max_value=1.0),
        st.floats(min_value=0.0, max_value=1e19),
        st.integers(0, 3),
    )
    @settings(max_examples=200)
    def test_extreme_pulses_read_valid_codes(self, m, q, mean, arrived):
        # the validator lets means this far out through; a RuntimeWarning
        # fails the run, so none may appear on the way. Eve's reading
        # covers both of its classes at every mean up to the cap.
        rng = np.random.default_rng(m % 1000)
        angle = np.full(64, arrived, dtype=np.int8)
        stored = np.arange(64) % 2 == 1
        for dark, column in (counted_dark(np.full(64, m), q), coherent_dark(mean),
                             pns_dark(mean, q, stored)):
            assert np.isfinite(dark).all() and ((0.0 <= dark) & (dark <= 1.0)).all()
            rect, diag = rec1_measure(angle, dark, column, rng.random(64))
            definite, other = (rect, diag) if arrived % 2 == 0 else (diag, rect)
            assert np.isin(definite, (arrived, VACUUM)).all()
            assert np.isin(other, ((arrived + 1) % 4, (arrived + 3) % 4, VACUUM, AMBIGUOUS)).all()


class TestRec1Definite:
    """The definite arm read alone, with one comparison, is the ranking's
    definite arm bit for bit: at every bound, one ulp either side, and where
    the g_k underflow to 0 (a coherent mean of 2,000 underflows g2 to g4,
    1e4 all four)."""

    @staticmethod
    def assert_matches_the_ranking(dark, column):
        bounds = _rec1_bounds(dark)[:, column]
        u = np.concatenate([bounds, np.nextafter(bounds, -1.0), np.nextafter(bounds, 2.0), [0.0]])
        arrived = np.repeat(np.arange(4, dtype=np.int8), len(u))
        u, columns = np.tile(u, 4), np.full(4 * len(u), column)
        rect, diag = rec1_measure(arrived, dark, columns, u)
        definite = np.where(arrived % 2 == 0, rect, diag)
        assert rec1_definite(arrived, dark, columns, u).tolist() == definite.tolist()

    @pytest.mark.parametrize("mean", [1e-9, 0.5, 3.0, 6.0, 40.0, 2000.0, 1e4])
    def test_coherent_pulse(self, mean):
        self.assert_matches_the_ranking(coherent_dark(mean)[0], 0)

    @pytest.mark.parametrize("column", [0, 1], ids=["kept_none", "kept_one"])
    @pytest.mark.parametrize("mean, q", [(0.2, 1.0), (5.4, 0.9), (6.0, 0.35), (1e4, 0.9)])
    def test_pns_reading(self, mean, q, column):
        self.assert_matches_the_ranking(pns_dark(mean, q, np.zeros(0, dtype=bool))[0], column)


class TestPnsReadingJointLaw:
    """An untraced ``pns`` ring, which draws no photon count, against a
    photon-by-photon reference that shares no code and no random stream
    with it: a Knuth Poisson count at Eve's hop, her skim of one photon
    from two or more, and then each photon lost on the way to Rec-1 or
    split 50:50 and read with Malus' law per detector (``reference_rec1``).
    A chi-square test of homogeneity on the joint (Eve's event, rect,
    diag, arrived) histogram."""

    ENGINE_ROUNDS = 100_000
    REFERENCE_ROUNDS = 40_000

    @staticmethod
    def shares(config):
        """The mean photon number at Eve's hop c and the share q of the photons
        she forwards that reach Rec-1's splitter: the ring's 2N + 1 hops each
        pass T, and Alice's bs_ratio sits behind hop N + 1."""
        n, c, t = config.receivers, config.pns_channel, config.hop_transmission()
        alice = config.bs_ratio if c > n + 1 else 1.0
        return config.mean_photons * t**c * alice, t ** (2 * n + 1 - c) * config.bs_ratio / alice

    @pytest.mark.parametrize("config", [
        SimConfig(receivers=5, transmission=0.9, adversary="pns", pns_channel=1),
        SimConfig(receivers=1, transmission=0.9, adversary="pns", pns_channel=3),
        # a stored photon is rare
        SimConfig(receivers=2, mean_photons=0.05, transmission=0.9, adversary="pns",
                  pns_channel=1),
    ], ids=["n5_t09_channel1", "n1_t09_channel3", "mu005"])
    def test_reading_follows_the_photons(self, config):
        config = dataclasses.replace(config, rounds=self.ENGINE_ROUNDS, parity_block=0, seed=5000)
        _, table = recorded(config)
        assert table.trace_photons is None
        arrived = (_key_angle(table.bit, table.basis_choice) + table.shuffle_sum) & 3
        cell = ((table.rect.astype(np.int64) * 6 + table.diag) * 4 + arrived) * 2 + table.eve_event
        engine = np.bincount(cell, minlength=288)
        lam, q = self.shares(config)
        r = random.Random(config.receivers)
        reference = np.zeros(288, dtype=np.int64)
        for _ in range(self.REFERENCE_ROUNDS):
            angle, photons = r.randrange(4), _poisson(r, lam)
            stored = photons >= 2
            rect, diag = reference_rec1(r, angle, photons - stored, q)
            reference[((rect * 6 + diag) * 4 + angle) * 2 + stored] += 1
        assert_one_law(engine, reference)

