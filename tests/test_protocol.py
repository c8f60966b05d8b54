import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sqss.config import SimConfig
from sqss.optics import (
    AMBIGUOUS,
    VACUUM,
    DecisionAngle,
    MeasurementBasis,
    MeasurementOutcome,
    PhotonBatch,
    PolarizationAngle,
)
from sqss.protocol import (
    ProtocolRestart,
    RoundTable,
    SiftStatus,
    VerdictKind,
    _fft_length,
    alice_encode,
    alice_prepare,
    angle_to_bit,
    cooperative_decode,
    decode_table,
    encode_map,
    integrity_check,
    key_digest,
    parity_survivor_indices,
    rec1_measure,
    receiver_backward,
    receiver_forward,
    reconcile_and_amplify,
    run_session,
    sift,
    toeplitz_compress,
)

# The conventional 4x4 tabulation of the two-receiver decode map, rows
# and columns ordered (0, pi/2, pi/4, -pi/4) in quarter-turn notation.
# It lists the difference the other way around (rec2 minus rec1), which
# negates our entries: negation on the quarter-turn cycle swaps the two
# diagonal angles and fixes the rectilinear ones.
CONVENTIONAL_TABLE = [
    [0, 2, 3, 1],
    [2, 0, 1, 3],
    [1, 3, 0, 2],
    [3, 1, 2, 0],
]


class ZeroRng:
    """Minimal stand-in whose uniform draws are always zero."""

    def random(self, size):
        return np.zeros(size)

    def poisson(self, lam, size):
        self.lam = lam
        return np.full(size, 5)


def pulses(count, polarization, size=1):
    """``size`` identical pulses of ``count`` photons at one polarization."""
    return PhotonBatch(np.full(size, count), np.full(size, float(polarization)))


class TestEncodeMap:
    def test_four_angle_mapping(self):
        assert encode_map(0, 1) == DecisionAngle(0)
        assert encode_map(0, 2) == DecisionAngle(1)
        assert encode_map(1, 1) == DecisionAngle(2)
        assert encode_map(1, 2) == DecisionAngle(3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            encode_map(2, 1)
        with pytest.raises(ValueError):
            encode_map(0, 3)

    def test_angle_to_bit_inverts(self):
        assert angle_to_bit(DecisionAngle(0)) == 0
        assert angle_to_bit(DecisionAngle(3)) == 1
        for bit in (0, 1):
            for j in (1, 2):
                assert angle_to_bit(encode_map(bit, j)) == bit

    def test_family_fixes_the_basis(self):
        from sqss.optics import basis_of

        for bit in (0, 1):
            assert basis_of(encode_map(bit, 1)) is MeasurementBasis.RECTILINEAR
            assert basis_of(encode_map(bit, 2)) is MeasurementBasis.DIAGONAL


class TestCooperativeDecode:
    def test_table_examples(self):
        assert cooperative_decode(DecisionAngle(1), [DecisionAngle(1)]) == DecisionAngle(0)
        assert cooperative_decode(DecisionAngle(0), [DecisionAngle(0)]) == DecisionAngle(0)

    @given(st.integers(0, 3), st.lists(st.integers(0, 3), min_size=0, max_size=6))
    def test_round_trip_identity(self, k_turns, shuffles):
        # Measured angle is k plus every shuffle; rec1's decision angle
        # removes its own shuffle and decode removes the rest.
        k = DecisionAngle(k_turns)
        ss = [DecisionAngle(s) for s in shuffles]
        measured = k
        for s in ss:
            measured = measured + s
        rec1_decision = measured - ss[0] if ss else measured
        assert cooperative_decode(rec1_decision, ss[1:]) == k

    def test_table_is_a_latin_square(self):
        table = decode_table()
        for row in table:
            assert sorted(e.quarter_turns for e in row) == [0, 1, 2, 3]
        for col in range(4):
            assert sorted(table[r][col].quarter_turns for r in range(4)) == [0, 1, 2, 3]

    def test_table_matches_conventional_tabulation_up_to_sign(self):
        table = decode_table()
        for r in range(4):
            for c in range(4):
                assert table[r][c] == -DecisionAngle(CONVENTIONAL_TABLE[r][c])


class TestSenderOps:
    def test_prepare_with_theta_forced_to_zero(self):
        rng = ZeroRng()
        theta, pulse = alice_prepare(6.0, 1, rng)
        assert theta.tolist() == pulse.polarization.tolist() == [0.0]
        # the count is one Poisson draw at the configured mean
        assert rng.lam == 6.0
        assert pulse.count.tolist() == [5]

    def test_theta_uniform_on_half_circle(self):
        rng = np.random.default_rng(8)
        thetas, _ = alice_prepare(6.0, 100000, rng)
        result = stats.kstest(thetas / math.pi, "uniform")
        assert result.pvalue > 0.01

    def test_encode_net_rotation(self):
        # bit=0 in family 1 is the zero angle, so encoding just removes theta.
        pulse = pulses(6, 0.7)
        rng = np.random.default_rng(0)
        basis, out = alice_encode(pulse, np.array([0.7]), np.array([0]), 1.0, rng)
        if basis[0] == 1:
            assert out.polarization[0] == pytest.approx(0.0, abs=1e-12)
        else:
            assert out.polarization[0] == pytest.approx(math.pi / 4, abs=1e-12)

    def test_encode_applies_full_state_rotation(self):
        # Incoming theta + sum(phi_i + s_i) must leave as k + sum(phi_i + s_i).
        accumulated = 0.4 + 1.234  # theta plus the receivers' rotations
        pulse = pulses(6, accumulated)
        basis, out = alice_encode(pulse, np.array([0.4]), np.array([1]), 1.0,
                                  np.random.default_rng(3))
        k = encode_map(1, int(basis[0]))
        expected = PolarizationAngle(k.radians + 1.234)
        assert PolarizationAngle(out.polarization[0]).is_close(expected, tol=1e-12)

    def test_basis_family_choice_is_balanced(self):
        rng = np.random.default_rng(9)
        n = 100000
        basis, _ = alice_encode(pulses(6, 0.0, n), np.zeros(n), np.zeros(n, dtype=np.int8), 1.0, rng)
        ones = int(np.count_nonzero(basis == 1))
        assert set(basis.tolist()) == {1, 2}
        assert stats.binomtest(ones, n, 0.5).pvalue > 0.01

    def test_countermeasure_splits_the_pulse(self):
        # Each photon leaves the storage splitter with the transmitted ratio.
        rng = np.random.default_rng(0)
        n_trials = 20000
        _, out = alice_encode(pulses(6, 0.0, n_trials), np.zeros(n_trials),
                              np.zeros(n_trials, dtype=np.int8), 0.5, rng)
        kept = out.count.sum()
        sigma = math.sqrt(6 * 0.5 * 0.5 / n_trials)
        assert abs(kept / n_trials - 3.0) < 3 * sigma


class TestReceiverOps:
    def test_forward_adds_hide_and_shuffle(self):
        phi, s, out = receiver_forward(pulses(6, 0.5), np.random.default_rng(4))
        expected = PolarizationAngle(0.5 + phi[0] + DecisionAngle(int(s[0])).radians)
        assert PolarizationAngle(out.polarization[0]).is_close(expected, tol=1e-12)

    def test_shuffles_uniform_over_four_values(self):
        rng = np.random.default_rng(10)
        _, shuffles, _ = receiver_forward(pulses(6, 0.0, 100000), rng)
        counts = np.bincount(shuffles, minlength=4)
        assert len(counts) == 4
        assert stats.chisquare(counts).pvalue > 0.01

    def test_backward_removes_only_the_hide_angle(self):
        phi, s, forwarded = receiver_forward(pulses(6, 0.2), np.random.default_rng(6))
        back = receiver_backward(forwarded, phi)
        expected = PolarizationAngle(0.2 + DecisionAngle(int(s[0])).radians)
        assert PolarizationAngle(back.polarization[0]).is_close(expected, tol=1e-12)


class TestRec1Measure:
    def test_aligned_rect_arm_is_deterministic(self):
        rng = np.random.default_rng(12)
        pulse = pulses(400, DecisionAngle(2).radians)
        rect, diag = rec1_measure(pulse, rng)
        assert rect.tolist() == [2]

    def test_vacuum_pulse_gives_vacuum_arms(self):
        rng = np.random.default_rng(13)
        rect, diag = rec1_measure(pulses(0, 0.1), rng)
        assert rect.tolist() == diag.tolist() == [VACUUM]

    def test_arm_vacuum_frequency(self):
        # Each arm of a Poisson pulse sees a Poisson count with half the final mean.
        rng = np.random.default_rng(14)
        mu_final = 2.0
        n = 100000
        rect, _ = rec1_measure(alice_prepare(mu_final, n, rng)[1], rng)
        vacuums = np.count_nonzero(rect == VACUUM)
        expected = math.exp(-mu_final / 2.0)
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(vacuums / n - expected) < 3 * sigma


def _make_table(shuffles, j, bit, rect, diag):
    """A one-round table with the given secrets and arm outcome codes."""
    return RoundTable(
        theta=np.zeros(1),
        phis=np.zeros((1, len(shuffles))),
        shuffles=np.array([shuffles], dtype=np.int8),
        basis_choice=np.array([j], dtype=np.int8),
        bit=np.array([bit], dtype=np.int8),
        rect=np.array([rect], dtype=np.int8),
        diag=np.array([diag], dtype=np.int8),
    )


class TestSift:
    def test_selects_the_arm_matching_the_actual_basis(self):
        # j=1 with an even shuffle sum keeps the rectilinear arm.
        table = _make_table((0, 2), 1, 0, 0, VACUUM)
        assert table[0].status is None
        kept = sift(table, np.array([1]))
        assert kept.tolist() == [0]
        assert table[0].status is SiftStatus.KEPT
        assert table[0].measured_angle == 0
        assert table[0].rect_outcome == MeasurementOutcome.of_angle(DecisionAngle(0))

    def test_odd_parity_selects_the_diagonal_arm(self):
        table = _make_table((1, 0), 1, 0, VACUUM, 1)
        assert sift(table, np.array([1])).tolist() == [0]
        assert table[0].measured_angle == 1

    def test_vacuum_on_selected_arm_discards(self):
        table = _make_table((0, 0), 1, 0, VACUUM, 1)
        assert sift(table, np.array([1])).tolist() == []
        assert table[0].status is SiftStatus.VACUUM_DISCARD
        assert table[0].measured_angle is None

    def test_ambiguous_on_selected_arm_discards(self):
        table = _make_table((0, 0), 1, 0, AMBIGUOUS, 1)
        assert sift(table, np.array([1])).tolist() == []
        assert table[0].status is SiftStatus.AMBIGUOUS_DISCARD

    def test_unselected_arm_state_is_irrelevant(self):
        table = _make_table((0, 0), 1, 1, 2, AMBIGUOUS)
        assert sift(table, np.array([1])).tolist() == [0]

    def test_length_mismatch_rejected(self):
        table = _make_table((0, 0), 1, 0, VACUUM, VACUUM)
        with pytest.raises(ValueError):
            sift(table, np.array([1, 2]))


class TestToeplitz:
    def _reference_hash(self, bits, out_len, seed):
        # Independent route: materialize the Toeplitz matrix row by row
        # from the same seeded diagonal sequence and multiply over GF(2).
        n = len(bits)
        diag = np.random.default_rng(seed).integers(0, 2, size=n + out_len - 1)
        out = []
        for i in range(out_len):
            row = [diag[i + n - 1 - j] for j in range(n)]
            out.append(int(np.dot(row, bits)) & 1)
        return out

    def test_matches_explicit_matrix_multiply(self):
        rng = np.random.default_rng(55)
        for seed in (0, 1, 99):
            for n, out_len in [(8, 4), (17, 8), (64, 32), (5, 5)]:
                bits = [int(b) for b in rng.integers(0, 2, size=n)]
                assert toeplitz_compress(bits, out_len, seed).tolist() == self._reference_hash(
                    bits, out_len, seed
                )

    @given(st.integers(1, 64), st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_linear_over_gf2(self, n, seed):
        rng = np.random.default_rng(seed)
        a = [int(b) for b in rng.integers(0, 2, size=n)]
        b = [int(b) for b in rng.integers(0, 2, size=n)]
        xor = [x ^ y for x, y in zip(a, b)]
        out_len = max(1, n // 2)
        ha = toeplitz_compress(a, out_len, seed)
        hb = toeplitz_compress(b, out_len, seed)
        hx = toeplitz_compress(xor, out_len, seed)
        assert hx.tolist() == (ha ^ hb).tolist()

    def test_empty_output(self):
        assert toeplitz_compress([1, 0, 1], 0, 7).tolist() == []

    def test_output_longer_than_input_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_compress([1, 0], 3, 0)

    def test_fft_path_agrees_with_the_matrix(self):
        # Inputs this large take the FFT route; it must produce the very
        # same GF(2) map as the explicit matrix.
        rng = np.random.default_rng(3)
        bits = [int(b) for b in rng.integers(0, 2, size=5000)]
        out_len = 2500
        assert toeplitz_compress(bits, out_len, 11).tolist() == self._reference_hash(
            bits, out_len, 11
        )

    def test_fft_length_is_the_smallest_2_3_smooth_length(self):
        def smooth(k):
            for p in (2, 3):
                while k % p == 0:
                    k //= p
            return k == 1

        limit = 10**4
        lengths = [k for k in range(1, 2 * limit + 1) if smooth(k)]
        for m in range(1, limit + 1):
            assert _fft_length(m) == next(k for k in lengths if k >= m), m


class TestReconcile:
    def test_identical_keys_keep_everything(self):
        key = [1, 0, 1, 1, 0, 0, 1, 0] * 4
        assert parity_survivor_indices(key, list(key), 8).tolist() == list(range(32))
        a, b = reconcile_and_amplify(key, list(key), 8)
        assert a == b
        assert len(a) == 16

    def test_every_key_shares_the_survivors(self):
        key_a = [0] * 32
        key_b = [0] * 32
        key_b[11] = 1
        other = [1] * 32
        a, c = reconcile_and_amplify(key_a, key_b, 8, hash_seed=5, keys=[key_a, other])
        assert a == toeplitz_compress([0] * 24, 12, 5).tolist()
        assert c == toeplitz_compress([1] * 24, 12, 5).tolist()

    def test_single_flip_drops_one_block(self):
        key_a = [0] * 32
        key_b = [0] * 32
        key_b[11] = 1
        survivors = parity_survivor_indices(key_a, key_b, 8)
        assert survivors.tolist() == list(range(0, 8)) + list(range(16, 32))

    def test_parity_example(self):
        assert parity_survivor_indices([0, 1, 1, 0], [0, 1, 0, 0], 2).tolist() == [0, 1]

    def test_surviving_fraction_matches_parity_oracle(self):
        # With independent flips at rate f, a block of size B survives
        # with probability (1 + (1-2f)^B)/2.
        rng = np.random.default_rng(17)
        n, block, f = 80000, 8, 0.1
        key_a = [int(b) for b in rng.integers(0, 2, size=n)]
        flips = rng.random(n) < f
        key_b = [a ^ int(flip) for a, flip in zip(key_a, flips)]
        surviving = len(parity_survivor_indices(key_a, key_b, block)) / n
        expected = (1.0 + (1.0 - 2.0 * f) ** block) / 2.0
        blocks = n // block
        sigma = math.sqrt(expected * (1 - expected) / blocks)
        assert abs(surviving - expected) < 3 * sigma

    def test_restart_when_nothing_survives(self):
        key_a = [0] * 8
        key_b = [0] * 7 + [1]
        with pytest.raises(ProtocolRestart):
            reconcile_and_amplify(key_a, key_b, 8)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            parity_survivor_indices([0, 1], [0], 2)
        with pytest.raises(ValueError):
            parity_survivor_indices([0, 1], [0, 1], 0)


class TestIntegrity:
    def test_digest_of_empty_key(self):
        assert key_digest([]) == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_digest_frozen_vectors(self):
        assert key_digest([0, 1, 1]) == (
            "8a080cea809d1b9d33b541f3498b1b6366ffc66df75423108947085057cf2f99"
        )
        assert key_digest([0]) == (
            "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"
        )

    def test_all_match_accepts(self):
        h = key_digest([1, 0, 1])
        assert integrity_check(h, [h, h]).kind is VerdictKind.ACCEPT

    def test_single_match_is_flagged(self):
        h0 = key_digest([1, 0, 1])
        other = key_digest([1, 1, 1])
        verdict = integrity_check(h0, [h0, other])
        assert verdict.kind is VerdictKind.DISHONEST
        assert verdict.flagged_receiver == 1
        verdict = integrity_check(h0, [other, h0, other])
        assert verdict.flagged_receiver == 2

    def test_no_attribution_aborts(self):
        h0 = key_digest([1, 0, 1])
        other = key_digest([1, 1, 1])
        assert integrity_check(h0, [other, other]).kind is VerdictKind.ABORT_RETRY

    def test_single_receiver_agreement_accepts(self):
        h0 = key_digest([0, 1])
        assert integrity_check(h0, [h0]).kind is VerdictKind.ACCEPT
        assert integrity_check(h0, [key_digest([1, 1])]).kind is VerdictKind.ABORT_RETRY


class TestRunSession:
    def test_honest_lossless_two_receivers(self):
        cfg = SimConfig(receivers=2, mean_photons=6.0, rounds=1000, parity_block=8, seed=42)
        res = run_session(cfg)
        assert res.qber == 0.0
        assert res.verdict.kind is VerdictKind.ACCEPT
        assert res.kept_rounds > 0
        for bits in res.receiver_sifted_bits:
            assert bits == res.alice_sifted_bits
        for key in res.receiver_final_keys:
            assert key == res.alice_final_key

    def test_honest_five_receivers(self):
        cfg = SimConfig(receivers=5, mean_photons=6.0, rounds=500, parity_block=8, seed=43)
        res = run_session(cfg)
        assert res.qber == 0.0
        assert res.verdict.kind is VerdictKind.ACCEPT
        assert all(key == res.alice_final_key for key in res.receiver_final_keys)

    def test_decoded_bits_match_alice_on_every_kept_round(self):
        cfg = SimConfig(receivers=2, mean_photons=6.0, rounds=1000, parity_block=0, seed=44)
        res = run_session(cfg)
        for record in res.records:
            if record.status is SiftStatus.KEPT:
                assert record.decoded_bit == record.bit
            else:
                assert record.decoded_bit is None

    def test_angle_cancellation_for_any_ring_size(self):
        # Before measurement the polarization must be exactly k plus the
        # shuffle sum; every theta and phi cancels.
        for n in (1, 2, 3, 5):
            cfg = SimConfig(receivers=n, mean_photons=6.0, rounds=200,
                            parity_block=0, seed=50 + n, trace=True)
            res = run_session(cfg)
            for record in res.records:
                final = next(s for s in record.trace if s.stage == "rec1_backward")
                expected_turns = (record.key_angle + sum(record.shuffles)) % 4
                expected = DecisionAngle(expected_turns).to_polarization()
                assert PolarizationAngle(final.polarization).distance_to(expected) < 1e-9

    def test_discard_fraction_tracks_the_vacuum_oracle(self):
        cfg = SimConfig(receivers=2, mean_photons=4.0, rounds=20000, parity_block=0, seed=45)
        res = run_session(cfg)
        expected = math.exp(-4.0 / 2.0)
        sigma = math.sqrt(expected * (1 - expected) / cfg.rounds)
        assert abs(res.discard_fraction - expected) < 3 * sigma

    def test_lossy_discard_fraction(self):
        cfg = SimConfig(receivers=2, mean_photons=6.0, transmission=0.5,
                        rounds=20000, parity_block=0, seed=46)
        res = run_session(cfg)
        mu_final = 6.0 * 0.5**5
        expected = math.exp(-mu_final / 2.0)
        sigma = math.sqrt(expected * (1 - expected) / cfg.rounds)
        assert abs(res.discard_fraction - expected) < 3 * sigma
        assert res.qber == 0.0

    def test_determinism(self):
        cfg = SimConfig(receivers=3, mean_photons=5.0, transmission=0.8,
                        rounds=300, parity_block=8, seed=99)
        first = run_session(cfg)
        second = run_session(cfg)
        assert first.alice_final_key == second.alice_final_key
        assert first.qber == second.qber
        assert first.kept_rounds == second.kept_rounds
        assert [r.theta for r in first.records] == [r.theta for r in second.records]

    def test_external_rng_equivalent_to_seed(self):
        cfg = SimConfig(receivers=2, mean_photons=6.0, rounds=100, parity_block=0, seed=7)
        res_a = run_session(cfg)
        res_b = run_session(cfg, rng=np.random.default_rng(7))
        assert res_a.alice_sifted_bits == res_b.alice_sifted_bits

    def test_target_key_bits_mode(self):
        cfg = SimConfig(receivers=2, mean_photons=6.0, transmission=0.9,
                        rounds=10, target_key_bits=200, parity_block=0, seed=48)
        res = run_session(cfg)
        assert res.kept_rounds >= 200
        assert len(res.alice_sifted_bits) == res.kept_rounds
        # stops soon after the target is reached
        assert res.kept_rounds <= 210

    def test_parity_block_zero_skips_post_processing(self):
        cfg = SimConfig(receivers=2, mean_photons=6.0, rounds=400, parity_block=0, seed=49)
        res = run_session(cfg)
        assert res.alice_final_key == res.alice_sifted_bits
        assert res.receiver_final_keys[0] == res.receiver_sifted_bits[0]

    def test_trace_stages(self):
        cfg = SimConfig(receivers=2, mean_photons=6.0, rounds=3, parity_block=0,
                        seed=51, trace=True)
        res = run_session(cfg)
        stages = [s.stage for s in res.records[0].trace]
        assert stages == [
            "alice_out", "rec1_forward", "rec2_forward",
            "alice_encoded", "rec2_backward", "rec1_backward",
        ]
        # a lossless ring carries the count drawn at the source to Rec-1
        counts = {s.photons for s in res.records[0].trace}
        assert len(counts) == 1 and isinstance(counts.pop(), int)

    def test_trace_disabled_by_default(self):
        cfg = SimConfig(receivers=2, mean_photons=6.0, rounds=3, parity_block=0, seed=51)
        res = run_session(cfg)
        assert res.records[0].trace is None


class TestBoundedResources:
    def test_honest_session_memory_and_time_per_round(self):
        # Memory and run time stay bounded at 10^7 rounds when a session's
        # peak grows by a few hundred bytes and microseconds per round.
        rounds = 200_000
        cfg = SimConfig(receivers=2, mean_photons=6.0, rounds=rounds, seed=70)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            res = run_session(cfg)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.rounds_executed == rounds and res.verdict.accepted
        assert peak / rounds < 512, f"{peak / rounds:.0f} bytes per round"
        assert elapsed < 10.0


class TestDishonestReceiver:
    def test_lying_receiver_is_flagged(self):
        cfg = SimConfig(receivers=2, mean_photons=6.0, rounds=100, parity_block=0,
                        seed=52, dishonest_receiver=1)
        res = run_session(cfg)
        assert res.verdict.kind is VerdictKind.DISHONEST
        assert res.verdict.flagged_receiver == 1
        # the liar holds the true key; the victim does not
        assert res.receiver_final_keys[0] == res.alice_final_key
        assert res.receiver_final_keys[1] != res.alice_final_key

    def test_other_receiver_lying_is_flagged_too(self):
        cfg = SimConfig(receivers=3, mean_photons=6.0, rounds=100, parity_block=0,
                        seed=53, dishonest_receiver=2)
        res = run_session(cfg)
        assert res.verdict.kind is VerdictKind.DISHONEST
        assert res.verdict.flagged_receiver == 2

    def test_qber_is_nonzero_under_lying(self):
        cfg = SimConfig(receivers=2, mean_photons=6.0, rounds=200, parity_block=0,
                        seed=54, dishonest_receiver=1)
        res = run_session(cfg)
        assert res.qber > 0.0


class TestImpersonationSession:
    def test_qber_matches_closed_form(self):
        from sqss.analysis import p_error_closed_form

        cfg = SimConfig(receivers=2, mean_photons=6.0, transmission=0.5,
                        rounds=30000, parity_block=0, seed=55, adversary="impersonate")
        res = run_session(cfg)
        expected = p_error_closed_form(6.0, 0.5)
        sigma = math.sqrt(expected * (1 - expected) / res.kept_rounds)
        assert abs(res.qber - expected) < 3 * sigma
        assert res.verdict.kind is not VerdictKind.ACCEPT
