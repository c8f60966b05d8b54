import dataclasses
import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from session_records import circular_distance, counted_dark, recorded

from sqss import protocol
from sqss.adversary import EveSummary
from sqss.config import MAX_RECEIVERS, SimConfig
from sqss.optics import (
    _REC1_CODES,
    AMBIGUOUS,
    QUARTER_TURN,
    VACUUM,
    _rec1_bounds,
    coherent_dark,
    rec1_definite,
    rec1_measure,
)
from sqss.protocol import (
    RoundTable,
    VerdictKind,
    _decode,
    _fft_length,
    _key_angle,
    _polarizations,
    integrity_check,
    key_digest,
    parity_survivor_indices,
    reconcile_and_amplify,
    run_session,
    sift,
    toeplitz_compress,
)

def stages(theta, phis, shuffles, bit, basis):
    """One honest round's polarization after each stage, from the rotation
    ledger: the source, each receiver forward, Alice, each receiver back."""
    table = RoundTable(
        theta=np.array([theta]),
        phis=np.array([phis], dtype=float).reshape(1, -1),
        shuffles=np.array([shuffles], dtype=np.int8).reshape(1, -1),
        shuffle_sum=np.array([np.sum(shuffles)], dtype=np.int8),
        basis_choice=np.array([basis], dtype=np.int8),
        bit=np.array([bit], dtype=np.int8),
        rect=np.zeros(1, dtype=np.int8),
        diag=np.zeros(1, dtype=np.int8),
    )
    return [float(p[0]) for p in _polarizations(table)]


class TestEncodeMap:
    def test_four_angle_mapping(self):
        assert _key_angle(0, 1) == 0
        assert _key_angle(0, 2) == 1
        assert _key_angle(1, 1) == 2
        assert _key_angle(1, 2) == 3
        bits, families = np.array([0, 0, 1, 1], dtype=np.int8), np.array([1, 2, 1, 2], dtype=np.int8)
        assert _key_angle(bits, families).tolist() == [0, 1, 2, 3]

    def test_angle_to_bit_inverts(self):
        # a receiver reads the bit of a decoded key angle as angle // 2
        for bit in (0, 1):
            for j in (1, 2):
                assert _key_angle(bit, j) // 2 == bit
        bits, families = np.array([0, 1, 0, 1], dtype=np.int8), np.array([1, 1, 2, 2], dtype=np.int8)
        assert (_key_angle(bits, families) // 2).tolist() == bits.tolist()

    def test_family_fixes_the_basis(self):
        # the rectilinear detectors read 0 and 2 quarter turns, the diagonal ones 1 and 3
        for bit in (0, 1):
            assert _key_angle(bit, 1) in (0, 2)
            assert _key_angle(bit, 2) in (1, 3)


class TestCooperativeDecode:
    def test_table_examples(self):
        assert _decode(np.array([1, 0]), np.array([1, 0])).tolist() == [0, 0]

    @given(st.integers(0, 3), st.lists(st.integers(0, 3), min_size=0, max_size=6))
    def test_round_trip_identity(self, k_turns, shuffles):
        # Measured angle is k plus every shuffle; rec1's decision angle
        # removes its own shuffle and decode removes the rest.
        measured = (k_turns + sum(shuffles)) % 4
        rec1_decision = (measured - shuffles[0]) % 4 if shuffles else measured
        assert _decode(rec1_decision, sum(shuffles[1:])) == k_turns


class TestSenderOps:
    def test_theta_uniform_on_half_circle(self):
        thetas = recorded(SimConfig(rounds=100000, parity_block=0, seed=8))[1].theta
        result = stats.kstest(thetas / math.pi, "uniform")
        assert result.pvalue > 0.01

    def test_encode_net_rotation(self):
        # bit=0 in family 1 is the zero angle, so encoding just removes theta.
        for basis, angle in ((1, 0.0), (2, math.pi / 4)):
            out = stages(0.7, [], [], 0, basis)[-1]
            assert circular_distance(out, angle) <= 1e-12

    def test_encode_applies_full_state_rotation(self):
        # Incoming theta + sum(phi_i + s_i) must leave as k + sum(phi_i + s_i).
        basis = recorded(SimConfig(rounds=1, parity_block=0, seed=3))[1].basis_choice
        incoming, out = stages(0.4, [1.234], [3], 1, int(basis[0]))[1:3]
        assert circular_distance(incoming, 0.4 + 1.234 + 3 * QUARTER_TURN) <= 1e-12
        expected = _key_angle(1, int(basis[0])) * QUARTER_TURN + 1.234 + 3 * QUARTER_TURN
        assert circular_distance(out, expected) <= 1e-12

    def test_basis_family_choice_is_balanced(self):
        n = 100000
        _, table = recorded(SimConfig(rounds=n, parity_block=0, seed=9))
        basis = table.basis_choice
        ones = int(np.count_nonzero(basis == 1))
        assert set(basis.tolist()) == {1, 2}
        assert stats.binomtest(ones, n, 0.5).pvalue > 0.01
        # one value on Z4 gives both: the bit and the basis must be independent
        pairs = np.bincount(2 * table.bit + basis - 1, minlength=4)
        assert stats.chisquare(pairs).pvalue > 0.01

    def test_countermeasure_splits_the_pulse(self):
        # Each photon leaves the storage splitter with the transmitted ratio:
        # on a lossless ring, the traced count behind the encoder against the
        # count that reached Alice.
        n_trials = 20000
        cfg = SimConfig(receivers=1, mean_photons=6.0, bs_ratio=0.5, rounds=n_trials,
                        parity_block=0, seed=0, trace=True)
        _, table = recorded(cfg)
        stage = table.trace_stages.index
        offered = table.trace_photons[:, stage("rec1_forward")].sum()
        kept = table.trace_photons[:, stage("alice_encoded")].sum()
        sigma = math.sqrt(0.5 * 0.5 / offered)
        assert abs(kept / offered - 0.5) < 3 * sigma


class TestReceiverOps:
    def test_forward_adds_hide_and_shuffle(self):
        _, table = recorded(SimConfig(receivers=1, rounds=1, parity_block=0, seed=4))
        phi, s = table.phis[:, 0], table.shuffles[:, 0]
        out = stages(0.5, phi, s, 0, 1)[1]
        expected = 0.5 + phi[0] + s[0] * QUARTER_TURN
        assert circular_distance(out, expected) <= 1e-12

    def test_shuffles_uniform_over_four_values(self):
        cfg = SimConfig(receivers=1, rounds=100000, parity_block=0, seed=10)
        shuffles = recorded(cfg)[1].shuffles[:, 0]
        counts = np.bincount(shuffles, minlength=4)
        assert len(counts) == 4
        assert stats.chisquare(counts).pvalue > 0.01

    def test_backward_removes_only_the_hide_angle(self):
        # bit 0 in family 1 encodes the zero angle, so all that returns is s
        _, table = recorded(SimConfig(receivers=1, rounds=1, parity_block=0, seed=6))
        phi, s = table.phis[:, 0], table.shuffles[:, 0]
        encoded, back = stages(0.2, phi, s, 0, 1)[-2:]
        assert circular_distance(back, encoded - phi[0]) <= 1e-12
        assert circular_distance(back, s[0] * QUARTER_TURN) <= 1e-12


class TestRec1Measure:
    def test_aligned_rect_arm_is_deterministic(self):
        rng = np.random.default_rng(12)
        rect, diag = rec1_measure(np.array([2]), *counted_dark(np.array([400]), 1.0), rng.random(1))
        assert rect.tolist() == [2]

    def test_vacuum_pulse_gives_vacuum_arms(self):
        rng = np.random.default_rng(13)
        rect, diag = rec1_measure(np.array([0]), *counted_dark(np.array([0]), 1.0), rng.random(1))
        assert rect.tolist() == diag.tolist() == [VACUUM]

    def test_arm_vacuum_frequency(self):
        # Each arm of a Poisson pulse sees a Poisson count with half the final
        # mean, on a lossless ring
        mu_final = 2.0
        n = 100000
        cfg = SimConfig(receivers=1, mean_photons=mu_final, rounds=n, parity_block=0, seed=14)
        rect = recorded(cfg)[1].rect
        vacuums = np.count_nonzero(rect == VACUUM)
        expected = math.exp(-mu_final / 2.0)
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(vacuums / n - expected) < 3 * sigma

    @pytest.mark.parametrize("config", [
        SimConfig(receivers=2, rounds=4000, seed=91),
        SimConfig(receivers=5, transmission=0.9, adversary="pns", rounds=4000, seed=92),
        SimConfig(transmission=0.5, adversary="impersonate", rounds=4000, seed=93),
        SimConfig(receivers=3, dishonest_receiver=2, rounds=4000, seed=94),
    ], ids=["honest_n2", "pns_n5_t09", "impersonate_t05", "dishonest_n3"])
    def test_reads_the_traced_polarization_as_whole_quarter_turns(self, config, monkeypatch):
        # The engine gives Rec-1 the angle it receives in quarter turns, never
        # the float polarization the rotation ledger follows around the ring:
        # the two must name the same angle on every round. Sifting reads it,
        # and the records rank both arms from it, each over the whole chunk.
        arrived = []

        def spy(read):
            return lambda angle, *law: arrived.append(angle) or read(angle, *law)

        monkeypatch.setattr(protocol, "rec1_definite", spy(rec1_definite))
        monkeypatch.setattr(protocol, "rec1_measure", spy(rec1_measure))
        _, table = recorded(dataclasses.replace(config, trace=True))
        traced = dict(zip(table.trace_stages, _polarizations(table)))["rec1_backward"]
        assert len(arrived) == 2
        for angle in arrived:
            gap = (traced - angle * QUARTER_TURN) % math.pi
            assert len(gap) == config.rounds
            assert np.minimum(gap, math.pi - gap).max() < 1e-9


# Rec-1's law for the hand-built tables: a coherent pulse whose eight cells all have width
_DARK = coherent_dark(3.0)


def _make_table(shuffles, j, bit, rect, diag, offset=None):
    """A one-round table with the given secrets (and Eve's guess offset) whose
    Rec-1 uniform, read against ``_DARK``, gives the given arm outcome codes."""
    arrived = (_key_angle(bit, j) + sum(shuffles) + (offset or 0)) & 3
    (cell,) = [c for c in range(8) if tuple(_REC1_CODES[:, arrived * 8 + c]) == (rect, diag)]
    bounds = np.concatenate(([0.0], _rec1_bounds(_DARK[0])[:, 0], [1.0]))
    assert bounds[cell] < bounds[cell + 1]
    return RoundTable(
        theta=np.zeros(1),
        phis=np.zeros((1, len(shuffles))),
        shuffles=np.array([shuffles], dtype=np.int8),
        shuffle_sum=np.array([sum(shuffles)], dtype=np.int8),
        basis_choice=np.array([j], dtype=np.int8),
        bit=np.array([bit], dtype=np.int8),
        rec1_uniform=np.array([(bounds[cell] + bounds[cell + 1]) / 2]),
        eve_offset=None if offset is None else np.array([offset], dtype=np.int8),
    )


class TestSift:
    def test_selects_the_arm_matching_the_actual_basis(self):
        # j=1 with an even shuffle sum keeps the rectilinear arm.
        table = _make_table((0, 2), 1, 0, 2, VACUUM)
        assert table.sifted is None
        kept = sift(table, *_DARK)
        assert kept.tolist() == [0]
        assert table.sifted.tolist() == [2]
        assert table.rect is None and table.diag is None  # no arm is left behind

    def test_odd_parity_selects_the_diagonal_arm(self):
        table = _make_table((1, 0), 1, 0, VACUUM, 1)
        assert sift(table, *_DARK).tolist() == [0]
        assert table.sifted.tolist() == [1]

    def test_vacuum_on_selected_arm_discards(self):
        table = _make_table((0, 0), 1, 0, VACUUM, 1)
        assert sift(table, *_DARK).tolist() == []
        assert table.sifted.tolist() == [VACUUM]

    def test_ambiguous_on_selected_arm_discards(self):
        # only a split arm can be ambiguous: Eve's odd offset makes it the selected one
        table = _make_table((0, 0), 1, 0, AMBIGUOUS, 1, offset=1)
        assert sift(table, *_DARK).tolist() == []
        assert table.sifted.tolist() == [AMBIGUOUS]

    def test_unselected_arm_state_is_irrelevant(self):
        table = _make_table((0, 0), 1, 1, 2, AMBIGUOUS)
        assert sift(table, *_DARK).tolist() == [0]

    def test_wrapped_shuffle_sum_sifts_and_decodes(self, monkeypatch):
        # At the receiver cap the shuffles' exact sum leaves int8's range.
        # The engine keeps it mod 4, and an int8 sum wrapped mod 256, a
        # multiple of 4, must sift and decode the same.
        cfg = SimConfig(receivers=MAX_RECEIVERS, rounds=2000, parity_block=0, seed=81,
                        trace=True)
        read = []  # the one chunk as sifting got it, with its Rec-1 uniforms, and the law

        def spy(chunk, *law):
            read.append((dataclasses.replace(chunk), law))
            return sift(chunk, *law)

        monkeypatch.setattr(protocol, "sift", spy)
        res, table = recorded(cfg)
        exact = table.shuffles.sum(axis=1, dtype=np.int64)
        assert (exact > np.iinfo(np.int8).max).any()
        assert np.array_equal(table.shuffle_sum, exact & 3)
        assert res.qber == 0.0
        assert res.verdict.accepted
        kept = np.flatnonzero(table.sifted < VACUUM)
        (chunk, law), = read
        wrapped = dataclasses.replace(chunk, shuffle_sum=exact.astype(np.int8))
        assert (wrapped.shuffle_sum < 0).any()
        assert np.array_equal(sift(wrapped, *law), kept)
        assert np.array_equal(wrapped.sifted, table.sifted)
        assert np.array_equal(_decode(wrapped.sifted[kept], wrapped.shuffle_sum[kept]),
                              table.decoded[kept])


class TestRecords:
    """A session that draws only the shuffle sum fills in the rest on demand."""

    @pytest.mark.parametrize("receivers", [2, MAX_RECEIVERS])
    def test_recorded_shuffles_complete_the_sum_and_are_uniform(self, receivers):
        cfg = SimConfig(receivers=receivers, rounds=20_000, parity_block=0, seed=83)
        _, table = recorded(cfg)
        assert table.shuffles.shape == table.phis.shape == (cfg.rounds, receivers)
        exact = table.shuffles.sum(axis=1, dtype=np.int64)
        assert np.array_equal(exact % 4, table.shuffle_sum % 4)
        # each receiver's shuffle, Rec-1's completing one included, is
        # uniform; the bound holds the family of N tests at 1e-3
        counts = np.stack([np.bincount(s, minlength=4) for s in table.shuffles.T])
        assert counts.shape == (receivers, 4)
        pvalues = stats.chisquare(counts, axis=1).pvalue
        assert pvalues.min() > 1e-3 / receivers, (pvalues.argmin(), counts[pvalues.argmin()])
        assert 0.0 <= table.theta.min() and table.phis.max() < math.pi

    def test_recorded_pair_is_jointly_uniform(self):
        # s_1 is built from the sum, so it must carry no trace of s_2
        cfg = SimConfig(receivers=2, rounds=20_000, parity_block=0, seed=84)
        shuffles = recorded(cfg)[1].shuffles
        pairs = np.bincount(shuffles[:, 0] * 4 + shuffles[:, 1], minlength=16)
        assert stats.chisquare(pairs).pvalue > 1e-3

    def test_split_draw_completes_the_sum_after_eves_shuffles(self):
        # On hop 3 of a 5-receiver ring Eve's part holds s_1 and s_2, drawn
        # free; the records draw s_3, which completes the sum, then s_4, s_5.
        # Two chunks, so Eve's stream runs on across the boundary.
        cfg = SimConfig(receivers=5, transmission=0.9, adversary="pns", pns_channel=3,
                        rounds=70_000, parity_block=0, seed=86)
        _, table = recorded(cfg)
        assert table.shuffles.shape == table.phis.shape == (cfg.rounds, 5)
        exact = table.shuffles.sum(axis=1, dtype=np.int64)
        assert np.array_equal(exact % 4, table.shuffle_sum % 4)
        counts = np.stack([np.bincount(s, minlength=4) for s in table.shuffles.T])
        pvalues = stats.chisquare(counts, axis=1).pvalue
        assert pvalues.min() > 1e-3 / 5, (pvalues.argmin(), counts[pvalues.argmin()])
        # s_3 is built from the sum, so it must carry no trace of Eve's last shuffle s_2
        pairs = np.bincount(table.shuffles[:, 1] * 4 + table.shuffles[:, 2], minlength=16)
        assert stats.chisquare(pairs).pvalue > 1e-3
        assert 0.0 <= table.theta.min() and table.phis.max() < math.pi

    @pytest.mark.parametrize("config", [
        SimConfig(receivers=2, rounds=5000, seed=87),
        SimConfig(receivers=MAX_RECEIVERS, rounds=2000, seed=87),
        SimConfig(transmission=0.9, adversary="pns", pns_channel=1, rounds=5000, seed=87),
        SimConfig(transmission=0.9, adversary="pns", pns_channel=3, rounds=5000, seed=87),
        SimConfig(transmission=0.9, adversary="pns", pns_channel=4, rounds=5000, seed=87),
        SimConfig(adversary="tag", bs_ratio=0.5, rounds=5000, seed=87),
        SimConfig(transmission=0.5, adversary="impersonate", rounds=5000, seed=87),
        SimConfig(receivers=3, dishonest_receiver=2, rounds=5000, seed=87),
        SimConfig(receivers=5, transmission=0.9, adversary="pns", pns_channel=1,
                  target_key_bits=3000, seed=87),
    ], ids=["honest_n2", "honest_n150", "pns_c1", "pns_c3", "pns_c4", "tag_bs05",
            "impersonate_t05", "dishonest_n3", "pns_key_bits"])
    def test_sifted_arm_is_the_parity_arm_of_the_ranked_arms(self, config):
        # Sifting reads one arm, the records rank both behind the chunk from
        # the same uniforms: the arm sifting kept must be the basis-matching
        # one of the ranked pair on every round, and the records move nothing.
        result, table = recorded(config)
        even = ((table.basis_choice - 1 + table.shuffle_sum) & 1) == 0
        assert np.array_equal(table.sifted, np.where(even, table.rect, table.diag))
        assert table.rec1_uniform is None
        assert result == run_session(config)

    def test_records_leave_the_session_as_it_was(self, monkeypatch):
        sift, draw_secrets = protocol.sift, protocol._draw_secrets
        for config in (
            SimConfig(receivers=3, rounds=5000, seed=85),
            SimConfig(receivers=3, transmission=0.9, adversary="pns", pns_channel=1,
                      rounds=5000, seed=85),
            SimConfig(receivers=3, transmission=0.9, adversary="pns", pns_channel=3,
                      rounds=5000, seed=85),
            SimConfig(receivers=3, rounds=5000, seed=85, trace=True),
            SimConfig(receivers=3, transmission=0.5, adversary="impersonate", rounds=5000,
                      seed=85),
            # a later chunk's physics follows the first's secrets in time
            SimConfig(receivers=3, rounds=70_000, seed=85),
            # and Eve's second chunk follows the first chunk's records
            SimConfig(receivers=5, transmission=0.9, adversary="pns", pns_channel=3,
                      rounds=70_000, seed=85),
            # Eve's draw reaches the last receiver, so it completes the shuffle sum
            SimConfig(receivers=1, transmission=0.9, adversary="pns", pns_channel=3,
                      rounds=5000, seed=85),
            # Eve's draw on a chunk cut at the target
            SimConfig(receivers=5, transmission=0.9, adversary="pns", pns_channel=4,
                      target_key_bits=3000, seed=85),
        ):
            sums, drawn = [], []  # each chunk's shuffle sums, and its secret draws
            monkeypatch.setattr(protocol, "sift",
                                lambda t, *law: sums.append(t.shuffle_sum) or sift(t, *law))
            monkeypatch.setattr(protocol, "_draw_secrets",
                                lambda *a: drawn.append(a) or draw_secrets(*a))
            plain = run_session(config)
            monkeypatch.setattr(protocol, "sift", sift)
            # without records only Eve's stored photons read the secrets, and
            # only those of the receivers she has passed
            assert bool(drawn) is (config.adversary == "pns"), config
            eve_reads = min(config.pns_channel - 1, config.receivers)
            assert all(a[3:] == (eve_reads,) for a in drawn), config
            with_records, table = recorded(config)
            assert with_records.alice_final_key == plain.alice_final_key, config
            assert with_records.receiver_final_keys == plain.receiver_final_keys, config
            assert with_records.verdict == plain.verdict, config
            assert with_records.eve_summary == plain.eve_summary, config
            # a chunk cut at the target is recorded up to the cut
            assert len(table) == plain.rounds_executed, config
            assert table.shuffle_sum.tolist() == np.concatenate(sums)[: len(table)].tolist(), config


def advanced(seed, words):
    """The bit generator of ``default_rng(seed)`` advanced by ``words`` raw words."""
    expected = np.random.default_rng(seed).bit_generator
    expected.advance(words)
    return expected


class TestToeplitz:
    def _reference_hash(self, bits, out_len, seed):
        # Independent route: materialize the matrix [I | T] row by row, T's
        # diagonal bit i the low bit of byte i of the seeded generator's raw
        # words read little-endian, and multiply over GF(2).
        n = len(bits)
        tail = n - out_len
        words = np.random.default_rng(seed).bit_generator.random_raw(-(-(n - 1) // 8))
        diag = [byte & 1 for word in words for byte in int(word).to_bytes(8, "little")]
        out = []
        for i in range(out_len):
            row = [int(k == i) for k in range(out_len)]
            row += [diag[i + tail - 1 - j] for j in range(tail)]
            out.append(int(np.dot(row, bits)) & 1)
        return out

    def test_matches_explicit_matrix_multiply(self):
        # the transforms run at n - 1 = 7, 16 and 63 points padded to powers
        # of two, and at 18 = 2 * 3^2; n = 5 hashes by the identity block alone
        rng = np.random.default_rng(55)
        for seed in (0, 1, 99):
            for n, out_len in [(8, 4), (17, 8), (64, 32), (5, 5), (19, 8)]:
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

    @pytest.mark.parametrize("differ", ["tail", "both", "head"])
    def test_collision_rate_is_two_to_the_minus_m(self, differ):
        # [I | T] is 2-universal: over the seed, distinct keys collide with
        # probability 2**-m, and keys that differ only in the head never do.
        n, m, pairs, seeds = 12, 4, 4, 2**12
        rng = np.random.default_rng(21)

        def part(rows, differs):
            delta = np.zeros((rows, pairs), dtype=np.uint8)
            if differs:
                delta[:] = rng.integers(0, 2, size=delta.shape)
                delta[rng.integers(0, rows, size=pairs), np.arange(pairs)] = 1
            return delta

        x = rng.integers(0, 2, size=(n, pairs), dtype=np.uint8)
        y = x ^ np.vstack([part(m, differ != "tail"), part(n - m, differ != "head")])
        collisions = np.zeros(pairs, dtype=int)
        for seed in range(seeds):
            h = toeplitz_compress(np.hstack([x, y]), m, seed)
            collisions += (h[:, :pairs] == h[:, pairs:]).all(axis=0)
        if differ == "head":
            assert collisions.tolist() == [0] * pairs
        else:
            p = 2.0**-m
            sigma = math.sqrt(p * (1 - p) / seeds)
            assert np.all(np.abs(collisions / seeds - p) < 4 * sigma), collisions / seeds

    def test_empty_output(self):
        assert toeplitz_compress([1, 0, 1], 0, 7).tolist() == []

    def test_output_longer_than_input_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_compress([1, 0], 3, 0)

    @pytest.mark.parametrize("n, out_len", [(2, 1), (9, 4), (10, 5), (17, 8), (4001, 2000),
                                            (3, 0), (3, 3)])
    def test_a_generator_advances_by_the_words_read(self, n, out_len):
        # a session hands its own generator over: the diagonal reads
        # ceil((n - 1) / 8) raw words of it, and nothing when T is empty,
        # the same hash as the seed that built the generator
        bits = np.random.default_rng(61).integers(0, 2, size=n, dtype=np.uint8)
        rng = np.random.default_rng(62)
        out = toeplitz_compress(bits, out_len, rng)
        words = -(-(n - 1) // 8) if 0 < out_len < n else 0
        assert rng.bit_generator.state == advanced(62, words).state
        assert out.tolist() == toeplitz_compress(bits, out_len, 62).tolist()

    def test_fft_path_agrees_with_the_matrix(self):
        # Every key hashes through one FFT convolution; 5000 bits transform
        # at _fft_length(4999) = 5184 = 2^6 * 3^4 points, a 3-smooth length
        # that is no power of two, and give the very same GF(2) map as the
        # explicit matrix.
        rng = np.random.default_rng(3)
        bits = [int(b) for b in rng.integers(0, 2, size=5000)]
        out_len = 2500
        assert toeplitz_compress(bits, out_len, 11).tolist() == self._reference_hash(
            bits, out_len, 11
        )

    def test_peak_memory_per_key_bit(self):
        # each temporary is dropped once used and the spectra multiply in
        # place, so the two spectra of the n - 1 point transform dominate the
        # peak: about 26 bytes per key bit
        n = 190_000
        bits = np.random.default_rng(8).integers(0, 2, size=n, dtype=np.uint8)
        tracemalloc.start()
        try:
            out = toeplitz_compress(bits, n // 2, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == n // 2
        assert peak / n <= 45, f"{peak / n:.1f} bytes per key bit"

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
    @pytest.mark.parametrize("length, flips", [(4000, 0), (4000, 3), (33, 1), (2, 0), (1, 0),
                                               (9, 1)])
    def test_a_generator_advances_by_the_hash_words(self, length, flips):
        # n survivors hash to n // 2 bits through ceil((n - 1) / 8) raw words,
        # none when no tail is left, the same hash as the generator's seed
        rng = np.random.default_rng(63)
        a = rng.integers(0, 2, size=length, dtype=np.uint8)
        b = a.copy()
        b[rng.choice(length, flips, replace=False)] ^= 1
        n = len(parity_survivor_indices(a, b, 8))
        rng = np.random.default_rng(64)
        out = reconcile_and_amplify([a, b], 8, rng)
        words = -(-(n - 1) // 8) if 0 < n // 2 < n else 0
        assert rng.bit_generator.state == advanced(64, words).state
        assert out.tolist() == reconcile_and_amplify([a, b], 8, 64).tolist()

    def test_identical_keys_keep_everything(self):
        key = [1, 0, 1, 1, 0, 0, 1, 0] * 4
        assert parity_survivor_indices(key, list(key), 8).tolist() == list(range(32))
        a, b = reconcile_and_amplify([key, key], 8)
        assert a.tolist() == b.tolist()
        assert len(a) == 16

    def test_every_key_shares_the_survivors(self):
        key_a = [0] * 32
        key_b = [0] * 32
        key_b[11] = 1
        other = [1] * 32
        a, _, c = reconcile_and_amplify([key_a, key_b, other], 8, hash_seed=5)
        assert a.tolist() == toeplitz_compress([0] * 24, 12, 5).tolist()
        assert c.tolist() == toeplitz_compress([1] * 24, 12, 5).tolist()

    def test_equal_rows_are_hashed_alike(self):
        rng = np.random.default_rng(12)
        a, b = rng.integers(0, 2, size=(2, 64))
        out = reconcile_and_amplify([a, a, b], 8, hash_seed=9)
        separate = [toeplitz_compress(row, 32, 9) for row in (a, a, b)]
        assert out.shape == (3, 32)
        assert [row.tolist() for row in out] == [row.tolist() for row in separate]

    def test_single_flip_drops_one_block(self):
        key_a = [0] * 32
        key_b = [0] * 32
        key_b[11] = 1
        survivors = parity_survivor_indices(key_a, key_b, 8)
        assert survivors.tolist() == list(range(0, 8)) + list(range(16, 32))

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 4000])
    def test_equal_keys_keep_every_index(self, n):
        key = np.random.default_rng(n).integers(0, 2, size=n, dtype=np.uint8)
        for block in (1, 8, n + 1):
            survivors = parity_survivor_indices(key, key.copy(), block)
            assert survivors.dtype == np.intp
            assert survivors.tolist() == list(range(n))

    @pytest.mark.parametrize("n, block", [(29, 8), (9, 8), (4000, 7), (9, 20)])
    def test_one_flip_in_the_ragged_last_block_drops_it(self, n, block):
        # the padded tail flips nothing, so the one flip decides that block alone
        key_a = np.zeros(n, dtype=np.uint8)
        key_b = key_a.copy()
        key_b[-1] = 1
        last = min(block, n) * ((n - 1) // min(block, n))
        assert parity_survivor_indices(key_a, key_b, block).tolist() == list(range(last))

    def test_parity_example(self):
        assert parity_survivor_indices([0, 1, 1, 0], [0, 1, 0, 0], 2).tolist() == [0, 1]

    @pytest.mark.parametrize("block", [1, 3, 8, 29, 30])
    def test_matches_a_block_by_block_loop(self, block):
        # 29 bits leave a partial last block for every size but 1 and 29
        rng = np.random.default_rng(block)
        for _ in range(20):
            key_a = rng.integers(0, 2, size=29)
            key_b = key_a ^ (rng.random(29) < 0.2)
            expected = []
            for start in range(0, 29, block):
                a, b = key_a[start : start + block], key_b[start : start + block]
                if sum(a) % 2 == sum(b) % 2:
                    expected += range(start, start + len(a))
            assert parity_survivor_indices(key_a, key_b, block).tolist() == expected

    @given(st.data(), st.integers(1, 20), st.booleans())
    @settings(max_examples=200)
    def test_matches_a_pure_python_reference(self, data, block, as_array):
        # lengths up to 70 leave ragged tails, and blocks longer than the key
        key_a = data.draw(st.lists(st.integers(0, 1), max_size=70))
        key_b = data.draw(st.lists(st.integers(0, 1), min_size=len(key_a), max_size=len(key_a)))
        expected = []
        for start in range(0, len(key_a), block):
            a, b = key_a[start : start + block], key_b[start : start + block]
            if sum(a) % 2 == sum(b) % 2:
                expected += range(start, start + len(a))
        if as_array:
            key_a, key_b = np.array(key_a, dtype=np.uint8), np.array(key_b, dtype=np.uint8)
        survivors = parity_survivor_indices(key_a, key_b, block)
        assert survivors.dtype == np.intp
        assert survivors.tolist() == expected

    @given(st.data(), st.sampled_from([2, 3]), st.integers(1, 20), st.booleans(),
           st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_matches_gather_then_hash(self, data, rows, block, disagree, seed):
        # equal rows keep every block and hash the key matrix itself; rows
        # that disagree drop blocks and hash the gathered survivors
        n = data.draw(st.integers(0, 120))
        bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        first = data.draw(bits)
        keys = np.array([first] + [data.draw(bits) if disagree else first
                                   for _ in range(rows - 1)], dtype=np.uint8)
        survivors = parity_survivor_indices(keys[0], keys[1], block)
        out_len = int(len(survivors) * protocol.PA_COMPRESSION)
        expected = toeplitz_compress(keys[:, survivors].T, out_len, seed).T
        out = reconcile_and_amplify(keys, block, hash_seed=seed)
        assert out.shape == (rows, out_len)
        for got, want in zip(out, expected):
            assert got.tolist() == want.tolist()

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

    def test_peak_memory_per_input_bit(self):
        # the survivor mask takes 1 byte per bit and its int64 indices are
        # freed before the hash, so the hash's spectra dominate the peak
        n = 200_000
        row = np.random.default_rng(4).integers(0, 2, size=n, dtype=np.uint8)
        keys = np.vstack([row, row])
        tracemalloc.start()
        try:
            out = reconcile_and_amplify(keys, 8, hash_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (2, n // 2)
        assert peak / n <= 36, f"{peak / n:.1f} bytes per input bit"

    def test_restart_when_nothing_survives(self):
        key_a = [0] * 8
        key_b = [0] * 7 + [1]
        assert reconcile_and_amplify([key_a, key_b], 8).shape == (2, 0)

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

    @pytest.mark.parametrize("kind", [
        list, tuple, bytes,
        lambda bits: np.array(bits, dtype=np.uint8),
        lambda bits: np.array(bits, dtype=bool),
        lambda bits: np.array(bits, dtype=np.int64),
    ], ids=["list", "tuple", "bytes", "uint8", "bool", "int64"])
    def test_digest_is_the_same_for_every_form_of_the_bits(self, kind):
        long = np.random.default_rng(5).integers(0, 2, size=2000).tolist()
        for bits in ([], [0], [0, 1, 1], long):
            ascii_bits = "".join(str(b) for b in bits).encode()
            assert key_digest(kind(bits)) == hashlib.sha256(ascii_bits).hexdigest()
        assert key_digest(kind([0, 1, 1])) == (
            "8a080cea809d1b9d33b541f3498b1b6366ffc66df75423108947085057cf2f99"
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
        for key in res.receiver_final_keys:
            assert key == res.alice_final_key
        # before reconciliation every receiver already holds Alice's sifted bits
        sifted, table = recorded(dataclasses.replace(cfg, parity_block=0))
        assert sifted.alice_final_key == bytes(table.bit[table.sifted < VACUUM].tolist())
        for key in sifted.receiver_final_keys:
            assert key == sifted.alice_final_key

    def test_honest_five_receivers(self):
        cfg = SimConfig(receivers=5, mean_photons=6.0, rounds=500, parity_block=8, seed=43)
        res = run_session(cfg)
        assert res.qber == 0.0
        assert res.verdict.kind is VerdictKind.ACCEPT
        assert all(key == res.alice_final_key for key in res.receiver_final_keys)

    def test_decoded_bits_match_alice_on_every_kept_round(self):
        cfg = SimConfig(receivers=2, mean_photons=6.0, rounds=1000, parity_block=0, seed=44)
        _, table = recorded(cfg)
        kept = table.sifted < VACUUM
        assert (table.decoded[kept] // 2 == table.bit[kept]).all()
        assert (table.decoded[~kept] == -1).all()

    def test_angle_cancellation_for_any_ring_size(self):
        # Before measurement the polarization must be exactly k plus the
        # shuffle sum; every theta and phi cancels.
        for n in (1, 2, 3, 5):
            cfg = SimConfig(receivers=n, mean_photons=6.0, rounds=200,
                            parity_block=0, seed=50 + n, trace=True)
            _, table = recorded(cfg)
            final = dict(zip(table.trace_stages, _polarizations(table)))["rec1_backward"]
            expected_turns = (_key_angle(table.bit, table.basis_choice)
                              + table.shuffles.sum(axis=1)) % 4
            for polarization, turns in zip(final, expected_turns):
                expected = turns * QUARTER_TURN
                assert circular_distance(polarization, expected) < 1e-9

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
        (first, first_table), (second, second_table) = recorded(cfg), recorded(cfg)
        assert first.alice_final_key == second.alice_final_key
        assert first.qber == second.qber
        assert first.kept_rounds == second.kept_rounds
        assert first_table.theta.tolist() == second_table.theta.tolist()

    def test_target_key_bits_mode(self):
        cfg = SimConfig(receivers=2, mean_photons=6.0, transmission=0.9,
                        rounds=10, target_key_bits=200, parity_block=0, seed=48)
        res, table = recorded(cfg)
        assert res.kept_rounds >= 200
        assert len(res.alice_final_key) == res.kept_rounds
        kept = table.sifted < VACUUM
        assert np.count_nonzero(kept) == res.kept_rounds and kept[-1]
        # stops soon after the target is reached
        assert res.kept_rounds <= 210

    def test_parity_block_zero_skips_post_processing(self):
        cfg = SimConfig(receivers=2, mean_photons=6.0, rounds=400, parity_block=0, seed=49)
        res, table = recorded(cfg)
        kept = table.sifted < VACUUM
        assert res.alice_final_key == bytes(table.bit[kept].tolist())
        assert res.receiver_final_keys[0] == bytes((table.decoded[kept] // 2).tolist())

    @pytest.mark.parametrize(
        "rounds,mu,kept", [(4, 1e-300, 0), (1, 50.0, 1)], ids=["none-kept", "none-survived"]
    )
    def test_empty_final_key_aborts(self, rounds, mu, kept):
        # Faint light keeps no round at all; bright light keeps the one
        # round, which reconciliation cannot turn into a key bit.
        res = run_session(SimConfig(rounds=rounds, mean_photons=mu, seed=60))
        assert res.kept_rounds == kept
        assert res.alice_final_key == b"" and res.receiver_final_keys == [b"", b""]
        assert res.verdict.kind is VerdictKind.ABORT_RETRY

    @pytest.mark.parametrize("config", [
        SimConfig(rounds=1000, seed=61),
        SimConfig(rounds=1000, parity_block=0, seed=62),
        SimConfig(receivers=5, rounds=400, seed=63, dishonest_receiver=3),
        SimConfig(rounds=4, mean_photons=1e-300, seed=60),
    ], ids=["honest", "unreconciled", "liar", "empty"])
    def test_final_keys_are_one_byte_per_bit(self, config):
        res, table = recorded(config)
        kept = table.sifted < VACUUM
        alice, consensus = table.bit[kept], table.decoded[kept] // 2
        bits = len(alice)
        if config.parity_block:
            survivors = parity_survivor_indices(alice, consensus, config.parity_block)
            bits = int(len(survivors) * protocol.PA_COMPRESSION)
        for key in [res.alice_final_key, *res.receiver_final_keys]:
            assert type(key) is bytes
            assert len(key) == bits
            assert set(key) <= {0, 1}
        honest = [key for i, key in enumerate(res.receiver_final_keys, start=1)
                  if i != config.dishonest_receiver]
        assert all(key is honest[0] for key in honest)

    def test_trace_stages(self):
        cfg = SimConfig(receivers=2, mean_photons=6.0, rounds=3, parity_block=0,
                        seed=51, trace=True)
        _, table = recorded(cfg)
        assert table.trace_stages == (
            "alice_out", "rec1_forward", "rec2_forward",
            "alice_encoded", "rec2_backward", "rec1_backward",
        )
        assert table.trace_photons.shape == (3, 6)
        assert len(list(_polarizations(table))) == 6  # the ledger folds every stage
        # a lossless ring carries the count drawn at the source to Rec-1
        counts = set(table.trace_photons[0].tolist())
        assert len(counts) == 1 and isinstance(counts.pop(), int)

    def test_trace_disabled_by_default(self):
        cfg = SimConfig(receivers=2, mean_photons=6.0, rounds=3, parity_block=0, seed=51)
        _, table = recorded(cfg)
        assert table.trace_stages == ()
        assert table.trace_photons is None

    @pytest.mark.parametrize("config", [
        SimConfig(transmission=0.9, adversary="pns", target_key_bits=60_000, parity_block=0,
                  seed=93),
        SimConfig(adversary="tag", bs_ratio=0.5, target_key_bits=60_000, parity_block=0, seed=94),
        SimConfig(transmission=0.5, adversary="impersonate", target_key_bits=7_000,
                  parity_block=0, seed=95),
    ], ids=["pns", "tag", "impersonate"])
    def test_eve_is_scored_on_exactly_the_rounds_that_ran(self, config):
        # each chunk is decoded and scored once it is cut at the target, so
        # the session's keys and Eve's counts cover the recorded rounds alone
        plain, (with_records, table) = run_session(config), recorded(config)
        rounds, kept = len(table), np.flatnonzero(table.sifted < VACUUM)
        assert plain.rounds_executed == rounds > protocol._CHUNK_ROUNDS
        assert plain.kept_rounds == len(kept) == config.target_key_bits
        assert plain.alice_final_key == bytes(table.bit[kept].tolist())
        events = np.count_nonzero(table.eve_event)
        if config.adversary == "tag":  # a surviving tag on a kept round reads the bit
            expected = EveSummary("tag", len(kept), np.count_nonzero(table.eve_event[kept]),
                                  events)
        elif config.adversary == "pns":
            expected = EveSummary("pns", rounds, np.count_nonzero(table.eve_guess == table.bit),
                                  events)
        else:  # a USD success reads the bit
            expected = EveSummary("impersonate", rounds, events, events)
        assert plain.eve_summary == with_records.eve_summary == expected


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

    def test_default_session_keeps_no_round_table(self):
        # Each chunk is decoded and scored as it comes, and only its key
        # rows outlive it: a session that keeps every round's table peaked
        # at 64.6 bytes per round here, one that keeps none at 50.0.
        rounds = 2_000_000
        cfg = SimConfig(receivers=2, mean_photons=6.0, rounds=rounds, seed=72)
        run_session(SimConfig(rounds=1000, seed=72))  # warm-up: first-call allocations
        tracemalloc.start()
        try:
            res = run_session(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.verdict.accepted
        assert peak / rounds < 57, f"{peak / rounds:.1f} bytes per round"

    def test_final_keys_hold_one_byte_per_bit(self):
        # Alice's key and the one the honest receivers share take a byte
        # per bit each, where a list of ints would take 8 bytes per bit each.
        cfg = SimConfig(receivers=3, mean_photons=6.0, rounds=1_000_000, seed=74)
        run_session(SimConfig(rounds=1000, seed=74))  # warm-up: first-call allocations
        tracemalloc.start()
        try:
            res = run_session(cfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        bits = len(res.alice_final_key)
        assert res.verdict.accepted and bits > 400_000
        assert held / bits <= 2.5, f"{held / bits:.2f} bytes per final-key bit"

    def test_untraced_memory_per_round_is_flat_in_the_ring_width(self):
        # only the shuffle sum is drawn, so no per-receiver column is kept
        def peak_per_round(receivers):
            cfg = SimConfig(receivers=receivers, mean_photons=6.0, rounds=200_000, seed=71)
            tracemalloc.start()
            try:
                run_session(cfg)
                return tracemalloc.get_traced_memory()[1] / cfg.rounds
            finally:
                tracemalloc.stop()

        run_session(SimConfig(rounds=1000, seed=71))  # warm-up: first-call allocations
        narrow, wide = peak_per_round(2), peak_per_round(MAX_RECEIVERS)
        assert abs(wide - narrow) <= 0.1 * narrow, f"{narrow:.0f} vs {wide:.0f} bytes per round"

    @pytest.mark.parametrize("channel", [1, 3])
    def test_pns_memory_per_round_is_flat_in_the_ring_width(self, channel):
        # Eve's fold on hop c reads theta and the first c - 1 receivers'
        # turns only, so only those secrets are drawn without records
        def peak_per_round(receivers):
            cfg = SimConfig(receivers=receivers, mean_photons=6.0, adversary="pns",
                            pns_channel=channel, rounds=200_000, seed=73)
            tracemalloc.start()
            try:
                run_session(cfg)
                return tracemalloc.get_traced_memory()[1] / cfg.rounds
            finally:
                tracemalloc.stop()

        # warm-up: first-call allocations
        run_session(SimConfig(rounds=1000, adversary="pns", pns_channel=channel, seed=73))
        narrow, wide = peak_per_round(2), peak_per_round(MAX_RECEIVERS)
        assert abs(wide - narrow) <= 0.1 * narrow, f"{narrow:.0f} vs {wide:.0f} bytes per round"

    def test_traced_chunk_memory_per_cell(self):
        # A traced chunk's trace writes each stage straight into its column,
        # with no second copy of the trace, and its secrets and trace are
        # drawn behind it: config.MAX_RECEIVERS rests on it. One chunk of a
        # session with records that keeps none of them.
        rounds, receivers = 16_384, 10
        cfg = SimConfig(receivers=receivers, transmission=0.5, adversary="impersonate",
                        rounds=rounds, parity_block=0, seed=82, trace=True)
        shapes = []
        run_session(cfg, lambda t: None)  # warm-up: first-call allocations
        tracemalloc.start()
        try:
            run_session(cfg, lambda t: shapes.append(t.trace_photons.shape))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shapes == [(rounds, 2 * receivers + 3)]
        cell = peak / (rounds * receivers)
        assert cell < 64, f"{cell:.1f} bytes per round x receiver cell"


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

    @pytest.mark.parametrize("parity_block", [0, 8])
    def test_liar_in_a_five_receiver_ring(self, parity_block):
        cfg = SimConfig(receivers=5, mean_photons=6.0, rounds=400, parity_block=parity_block,
                        seed=56, dishonest_receiver=3)
        res = run_session(cfg)
        keys = res.receiver_final_keys
        assert keys[2] == res.alice_final_key
        victims = keys[:2] + keys[3:]
        assert all(key == victims[0] for key in victims)
        assert victims[0] != res.alice_final_key
        assert res.verdict.kind is VerdictKind.DISHONEST
        assert res.verdict.flagged_receiver == 3

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
