"""Party state machines and session orchestration for the ring protocol.

One round walks a single pulse around the ring twice. Forward, the
sender hides the polarization behind a fresh continuous angle theta and
every receiver i stacks its own hiding angle phi_i plus a secret
discrete shuffle s_i. Back at the sender, the key angle k is encoded and
theta removed; on the return trip each receiver strips only its phi_i,
so the first receiver measures k plus the sum of all shuffles. No party
alone can read k: recovering it takes the measured angle and every
shuffle, which is exactly the secret-sharing property.

Measurement happens blind to the final basis, so the first receiver
splits the pulse 50:50 and measures one arm in each basis, keeping both
results until the sender announces which basis family j was used per
round. Rounds whose basis-matching arm saw vacuum (or conflicting
detector clicks) are discarded during sifting.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import adversary as adv
from .channel import thin_batch
from .config import ConfigError, SimConfig
from .optics import (
    QUARTER_TURN,
    DecisionAngle,
    MeasurementBasis,
    MeasurementOutcome,
    PhotonBatch,
    PolarizationAngle,
    pbs_measure,
    rotate_batch,
    split_batch,
)

# Fraction of surviving bits kept by privacy amplification; public constant.
PA_COMPRESSION = 0.5
# Public salt separating the privacy-amplification seed from the session seed.
_PA_SEED_SALT = 0x9E3779B97F4A7C15

# Hard cap on rounds when running to a target key length.
_MAX_TARGET_ROUNDS = 10_000_000


class ProtocolRestart(RuntimeError):
    """Raised when reconciliation leaves nothing to build a key from."""


class SiftStatus(Enum):
    KEPT = "kept"
    VACUUM_DISCARD = "vacuum_discard"
    AMBIGUOUS_DISCARD = "ambiguous_discard"


class VerdictKind(Enum):
    ACCEPT = "accept"
    ABORT_RETRY = "abort_retry"
    DISHONEST = "dishonest"


@dataclass(frozen=True, slots=True)
class Verdict:
    kind: VerdictKind
    flagged_receiver: int | None = None

    @property
    def accepted(self) -> bool:
        return self.kind is VerdictKind.ACCEPT


@dataclass(slots=True)
class SenderState:
    """Alice's source settings and the current round's secrets."""

    mean_photons: float
    bs_ratio: float = 1.0
    theta: float = 0.0
    basis_choice: int = 1
    key_angle: DecisionAngle = DecisionAngle(0)


@dataclass(slots=True)
class ReceiverState:
    """Receiver i's secrets for the current round."""

    index: int
    hide_angle: float = 0.0
    shuffle: DecisionAngle = DecisionAngle(0)


@dataclass(frozen=True, slots=True)
class PulseSnapshot:
    stage: str
    photons: int
    polarization: float


@dataclass(slots=True)
class RoundRecord:
    """Audit trail of one round: every secret drawn plus what was observed."""

    index: int
    theta: float
    phis: tuple[float, ...]
    shuffles: tuple[int, ...]  # quarter turns per receiver
    basis_choice: int
    bit: int
    key_angle: int  # quarter turns
    rect_outcome: MeasurementOutcome
    diag_outcome: MeasurementOutcome
    status: SiftStatus | None = None
    measured_angle: int | None = None  # quarter turns of the sifted arm reading
    decoded_angle: int | None = None   # quarter turns recovered cooperatively
    decoded_bit: int | None = None
    trace: tuple[PulseSnapshot, ...] | None = None


@dataclass(slots=True)
class SessionResult:
    rounds_executed: int
    kept_rounds: int
    discard_fraction: float
    qber: float
    alice_sifted_bits: list[int]
    receiver_sifted_bits: list[list[int]]
    alice_final_key: list[int]
    receiver_final_keys: list[list[int]]
    verdict: Verdict
    records: list[RoundRecord]
    eve_summary: adv.EveSummary | None = None


def encode_map(bit: int, j: int) -> DecisionAngle:
    """Key angle for a bit in basis family j: 0 -> {0, pi/4}, 1 -> {pi/2, -pi/4}."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    if j not in (1, 2):
        raise ValueError(f"basis family must be 1 or 2, got {j}")
    if j == 1:
        return DecisionAngle(0 if bit == 0 else 2)
    return DecisionAngle(1 if bit == 0 else 3)


def angle_to_bit(k: DecisionAngle) -> int:
    """Inverse of the bit convention: {0, pi/4} read as 0, {pi/2, -pi/4} as 1."""
    return k.quarter_turns // 2


def cooperative_decode(
    rec1_decision: DecisionAngle, other_shuffles: Sequence[DecisionAngle]
) -> DecisionAngle:
    """Recover the key angle from Rec-1's decision angle and the other shuffles.

    The measured angle is k plus the sum of all shuffles, so k falls out
    of subtracting every shuffle: Rec-1 contributes (measured - s_1) and
    each remaining receiver contributes its own s_i.
    """
    k = rec1_decision
    for s in other_shuffles:
        k = k - s
    return k


def decode_table(order: tuple[int, int, int, int] = (0, 2, 1, 3)) -> list[list[DecisionAngle]]:
    """4x4 key-angle table: rows are Rec-2's angle, columns Rec-1's.

    The default ordering (0, pi/2, pi/4, -pi/4) follows the conventional
    presentation with the rectilinear pair first.
    """
    return [
        [cooperative_decode(DecisionAngle(col), [DecisionAngle(row)]) for col in order]
        for row in order
    ]


def alice_prepare(state: SenderState, rng: np.random.Generator) -> PhotonBatch:
    """Emit a fresh coherent pulse hidden behind a uniformly random angle theta.

    Its photon number is drawn here, Poisson with the configured mean;
    everything downstream only thins or reads that count.
    """
    state.theta = rng.random() * math.pi
    return PhotonBatch(int(rng.poisson(state.mean_photons)), PolarizationAngle(state.theta))


def receiver_forward(
    state: ReceiverState, light: PhotonBatch, rng: np.random.Generator
) -> PhotonBatch:
    """Stack this receiver's hiding angle phi_i and secret shuffle s_i."""
    state.hide_angle = rng.random() * math.pi
    state.shuffle = DecisionAngle(int(rng.integers(4)))
    return rotate_batch(light, state.hide_angle + state.shuffle.radians)


def alice_encode(
    state: SenderState, light: PhotonBatch, bit: int, rng: np.random.Generator
) -> PhotonBatch:
    """Encode the key bit in a random basis family and strip theta.

    The net rotation is (k - theta). When the counter-tagging beam
    splitter is configured (ratio < 1) only the transmitted part of the
    pulse leaves the box.
    """
    state.basis_choice = int(rng.integers(1, 3))
    state.key_angle = encode_map(bit, state.basis_choice)
    light = rotate_batch(light, state.key_angle.radians - state.theta)
    if state.bs_ratio < 1.0:
        light, _ = split_batch(light, state.bs_ratio, rng)
    return light


def receiver_backward(state: ReceiverState, light: PhotonBatch) -> PhotonBatch:
    """Compensate this receiver's hiding angle; the shuffle stays in."""
    return rotate_batch(light, -state.hide_angle)


def rec1_measure(
    light: PhotonBatch, rng: np.random.Generator
) -> tuple[MeasurementOutcome, MeasurementOutcome]:
    """Split 50:50 and measure one arm per basis."""
    rect_batch, diag_batch = split_batch(light, 0.5, rng)
    rect = pbs_measure(rect_batch, MeasurementBasis.RECTILINEAR, rng)
    diag = pbs_measure(diag_batch, MeasurementBasis.DIAGONAL, rng)
    return rect, diag


def sift(records: Sequence[RoundRecord], announced_bases: Sequence[int]) -> list[RoundRecord]:
    """Select the basis-matching arm per round and drop unusable rounds.

    The actual basis of the measured angle follows from the announced
    family j and the parity of the shuffle sum. Rounds whose selected
    arm reported vacuum or conflicting clicks are discarded; kept rounds
    gain their measured discrete angle.
    """
    if len(records) != len(announced_bases):
        raise ValueError("one announced basis per round is required")
    kept = []
    for record, j in zip(records, announced_bases):
        outcome = _sifted_outcome(record, j)
        if outcome.is_vacuum:
            record.status = SiftStatus.VACUUM_DISCARD
        elif outcome.is_ambiguous:
            record.status = SiftStatus.AMBIGUOUS_DISCARD
        else:
            record.status = SiftStatus.KEPT
            record.measured_angle = outcome.angle.quarter_turns
            kept.append(record)
    return kept


def _sifted_outcome(record: RoundRecord, j: int) -> MeasurementOutcome:
    """Outcome of the arm whose basis matches the measured angle's, given family j."""
    parity = (0 if j == 1 else 1) + sum(record.shuffles)
    return record.rect_outcome if parity % 2 == 0 else record.diag_outcome


def toeplitz_compress(bits: Sequence[int], out_len: int, hash_seed: int) -> list[int]:
    """2-universal compression: multiply by a seeded random Toeplitz matrix over GF(2)."""
    n = len(bits)
    if out_len < 0 or out_len > n:
        raise ValueError(f"output length must be in [0, {n}], got {out_len}")
    if out_len == 0:
        return []
    diag = np.random.default_rng(hash_seed).integers(0, 2, size=n + out_len - 1)
    x = np.asarray(bits, dtype=np.int64)
    if n * out_len <= 1 << 22:
        conv = np.convolve(diag, x)
    else:
        from scipy.signal import fftconvolve

        conv = np.rint(fftconvolve(diag.astype(float), x.astype(float))).astype(np.int64)
    return [int(v) & 1 for v in conv[n - 1 : n - 1 + out_len]]


def parity_survivor_indices(
    key_a: Sequence[int], key_b: Sequence[int], block_size: int
) -> list[int]:
    """Indices of bits in blocks whose parity agrees between the two keys."""
    if len(key_a) != len(key_b):
        raise ValueError("keys must have equal length")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    survivors: list[int] = []
    for start in range(0, len(key_a), block_size):
        stop = min(start + block_size, len(key_a))
        pa = sum(key_a[start:stop]) & 1
        pb = sum(key_b[start:stop]) & 1
        if pa == pb:
            survivors.extend(range(start, stop))
    return survivors


def reconcile_and_amplify(
    key_a: Sequence[int],
    key_b: Sequence[int],
    block_size: int,
    hash_seed: int = 0,
    keys: Sequence[Sequence[int]] | None = None,
) -> list[list[int]]:
    """Block-parity reconciliation followed by Toeplitz privacy amplification.

    Blocks whose public parities disagree between ``key_a`` and ``key_b``
    are discarded; the surviving positions of every key in ``keys``
    (default: the two compared keys) are compressed to half length by a
    shared, publicly seeded 2-universal hash. Raises ProtocolRestart when
    too few bits survive to produce any key at all.
    """
    survivors = parity_survivor_indices(key_a, key_b, block_size)
    out_len = int(len(survivors) * PA_COMPRESSION)
    if out_len == 0:
        raise ProtocolRestart("no usable bits survived reconciliation")
    return [
        toeplitz_compress([key[i] for i in survivors], out_len, hash_seed)
        for key in (keys if keys is not None else (key_a, key_b))
    ]


def key_digest(bits: Sequence[int]) -> str:
    """Public integrity digest: SHA-256 over the ASCII bit string."""
    return hashlib.sha256("".join(str(b) for b in bits).encode("ascii")).hexdigest()


def integrity_check(alice_hash: str, receiver_hashes: Sequence[str]) -> Verdict:
    """Compare key digests and attribute blame where possible.

    All digests equal means the key is shared. When exactly one receiver
    matches the sender while another does not, that receiver kept the
    true key for itself and fed the others garbage, so it is flagged.
    Every other pattern is unattributable and forces a retry.
    """
    matches = [i for i, h in enumerate(receiver_hashes) if h == alice_hash]
    if len(matches) == len(receiver_hashes):
        return Verdict(VerdictKind.ACCEPT)
    if len(matches) == 1:
        return Verdict(VerdictKind.DISHONEST, flagged_receiver=matches[0] + 1)
    return Verdict(VerdictKind.ABORT_RETRY)


def _run_round(
    index: int,
    sender: SenderState,
    receivers: list[ReceiverState],
    hop_t: list[float],
    strategy: adv.EveStrategy,
    eve_state: adv.EveState | None,
    rng: np.random.Generator,
    want_trace: bool,
) -> RoundRecord:
    n = len(receivers)
    pns_hop = strategy.channel_index if isinstance(strategy, adv.PnsSplit) else 0
    trace: list[PulseSnapshot] = []

    def snap(stage: str, light: PhotonBatch) -> None:
        if want_trace:
            trace.append(PulseSnapshot(stage, light.count, light.polarization.radians))

    def hop_to(hop: int, light: PhotonBatch) -> PhotonBatch:
        light = thin_batch(light, hop_t[hop - 1], rng)
        if hop == pns_hop:
            light = adv.pns_intercept(light, eve_state, index)
        return light

    light = alice_prepare(sender, rng)
    snap("alice_out", light)
    for i in range(1, n + 1):  # forward hops 1..N: into each receiver
        light = receiver_forward(receivers[i - 1], hop_to(i, light), rng)
        snap(f"rec{i}_forward", light)
    light = hop_to(n + 1, light)  # hop N+1: Rec-N back to Alice

    bit = int(rng.integers(2))
    light = alice_encode(sender, light, bit, rng)
    snap("alice_encoded", light)

    if isinstance(strategy, adv.TagPhoton):
        adv.tag_attack_round(
            sender.key_angle,
            rng,
            eve_state,
            alice_uses_bs=sender.bs_ratio < 1.0,
            alice_bs_ratio=sender.bs_ratio,
        )
    if isinstance(strategy, adv.Impersonate):
        # Eve keeps Alice's encoded pulse and discriminates it, then
        # re-encodes her result onto the substitute pulse the receivers
        # actually process. Her pulse is independent of the substitute,
        # so its count is a draw of its own; in angle bookkeeping the
        # substitute is the honest pulse shifted by her guess error.
        usd_mean = adv.intercepted_mean(sender.mean_photons, sender.bs_ratio, hop_t)
        offset = adv.impersonate_round(int(rng.poisson(usd_mean)), rng, eve_state)
        light = rotate_batch(light, offset * QUARTER_TURN)
        snap("eve_reencoded", light)

    for i in range(n, 0, -1):  # backward hops N+2..2N+1: into Rec-N, ..., Rec-1
        light = receiver_backward(receivers[i - 1], hop_to(2 * n + 2 - i, light))
        snap(f"rec{i}_backward", light)
    rect, diag = rec1_measure(light, rng)

    return RoundRecord(
        index=index,
        theta=sender.theta,
        phis=tuple(r.hide_angle for r in receivers),
        shuffles=tuple(r.shuffle.quarter_turns for r in receivers),
        basis_choice=sender.basis_choice,
        bit=bit,
        key_angle=sender.key_angle.quarter_turns,
        rect_outcome=rect,
        diag_outcome=diag,
        trace=tuple(trace) if want_trace else None,
    )


def _decode_phase(
    kept: list[RoundRecord],
    n: int,
    dishonest: int | None,
    rng: np.random.Generator,
) -> tuple[list[int], list[list[int]]]:
    """Exchange decision angles and decode; a dishonest receiver corrupts its report.

    Returns the publicly exchanged (consensus) decode plus each of the n
    receivers' private decodes. A liar announces a corrupted angle but
    uses its true one, so only the victims end up with a wrong key.
    """
    consensus_bits: list[int] = []
    private_bits: list[list[int]] = [[] for _ in range(n)]
    for record in kept:
        measured = DecisionAngle(record.measured_angle)
        shuffles = [DecisionAngle(q) for q in record.shuffles]
        true_decisions = [measured - shuffles[0]] + shuffles[1:]
        reported = list(true_decisions)
        if dishonest is not None:
            corruption = DecisionAngle(int(rng.integers(1, 4)))
            reported[dishonest - 1] = reported[dishonest - 1] + corruption
        consensus = cooperative_decode(reported[0], reported[1:])
        record.decoded_angle = consensus.quarter_turns
        record.decoded_bit = angle_to_bit(consensus)
        consensus_bits.append(record.decoded_bit)
        for m in range(n):
            view = list(reported)
            view[m] = true_decisions[m]
            private_bits[m].append(angle_to_bit(cooperative_decode(view[0], view[1:])))
    return consensus_bits, private_bits


def run_session(config: SimConfig, rng: np.random.Generator | None = None) -> SessionResult:
    """Run a full multi-round session and return keys plus statistics.

    Executes every round through the ring (with the configured adversary
    attached to its channel hops), then sifts, decodes cooperatively,
    optionally reconciles and compresses, and cross-checks key digests.
    Fully deterministic for a given seed and configuration.

    When ``target_key_bits`` is positive, rounds repeat until that many
    sifted bits exist; otherwise exactly ``rounds`` rounds run. A target
    that even the honest keep rate cannot reach within the round cap is
    rejected before the first round.
    """
    config.validate()
    n = config.receivers
    hop_t = config.hop_transmissions()
    target = config.target_key_bits
    # Sifting keeps a round when the selected arm, which holds half of
    # the surviving photons, is not empty. No attack raises that rate.
    mu_final = config.mean_photons * config.bs_ratio * math.prod(hop_t)
    reachable = _MAX_TARGET_ROUNDS * -math.expm1(-mu_final / 2.0)
    if target > reachable:
        raise ConfigError(
            "key_bits",
            f"{target} sifted bits need more than {_MAX_TARGET_ROUNDS} rounds"
            f" at the expected keep rate (about {reachable:.3g} bits reachable)",
        )
    if rng is None:
        rng = np.random.default_rng(config.seed)
    strategy = config.strategy()
    eve_state = None if isinstance(strategy, adv.NoAttack) else adv.EveState()

    sender = SenderState(mean_photons=config.mean_photons, bs_ratio=config.bs_ratio)
    receivers = [ReceiverState(index=i) for i in range(1, n + 1)]

    records: list[RoundRecord] = []
    kept_count = 0
    while True:
        if target > 0:
            if kept_count >= target:
                break
            if len(records) >= _MAX_TARGET_ROUNDS:
                raise RuntimeError(
                    f"target of {target} sifted bits unreachable within {_MAX_TARGET_ROUNDS} rounds"
                )
        elif len(records) >= config.rounds:
            break
        record = _run_round(
            len(records), sender, receivers, hop_t, strategy, eve_state, rng, config.trace
        )
        records.append(record)
        # The simulator may pre-count keepable rounds; parties only
        # learn sift status after the basis announcement.
        if target > 0 and _sifted_outcome(record, record.basis_choice).is_angle:
            kept_count += 1

    announced = [record.basis_choice for record in records]
    kept = sift(records, announced)
    dishonest = config.dishonest_receiver if config.dishonest_receiver else None
    consensus_bits, private_bits = _decode_phase(kept, n, dishonest, rng)

    alice_bits = [record.bit for record in kept]
    mismatches = sum(1 for a, b in zip(alice_bits, consensus_bits) if a != b)
    qber = mismatches / len(kept) if kept else 0.0
    discard_fraction = 1.0 - len(kept) / len(records) if records else 0.0

    verdict = None
    alice_final = list(alice_bits)
    receiver_finals = [list(bits) for bits in private_bits]
    if config.parity_block > 0 and kept:
        pa_seed = (config.seed ^ _PA_SEED_SALT) & 0xFFFFFFFFFFFFFFFF
        try:
            alice_final, *receiver_finals = reconcile_and_amplify(
                alice_bits, consensus_bits, config.parity_block, pa_seed,
                keys=[alice_bits, *private_bits],
            )
        except ProtocolRestart:
            alice_final, receiver_finals = [], [[] for _ in range(n)]
            verdict = Verdict(VerdictKind.ABORT_RETRY)
    if verdict is None:
        verdict = integrity_check(
            key_digest(alice_final), [key_digest(k) for k in receiver_finals]
        )

    eve_summary = None
    if eve_state is not None:
        eve_summary = _score_eve(strategy, eve_state, records, kept, rng)

    return SessionResult(
        rounds_executed=len(records),
        kept_rounds=len(kept),
        discard_fraction=discard_fraction,
        qber=qber,
        alice_sifted_bits=alice_bits,
        receiver_sifted_bits=private_bits,
        alice_final_key=alice_final,
        receiver_final_keys=receiver_finals,
        verdict=verdict,
        records=records,
        eve_summary=eve_summary,
    )


def _score_eve(
    strategy: adv.EveStrategy,
    eve_state: adv.EveState,
    records: list[RoundRecord],
    kept: list[RoundRecord],
    rng: np.random.Generator,
) -> adv.EveSummary:
    """Grant Eve the public announcements and score what she extracted."""
    if isinstance(strategy, adv.TagPhoton):
        recovered = 0
        for record in kept:
            angle = eve_state.tag_results[record.index]
            if angle is not None and angle_to_bit(angle) == record.bit:
                recovered += 1
        rate = recovered / len(kept) if kept else None
        return adv.EveSummary(
            strategy="tag",
            rounds=len(records),
            sifted_rounds=len(kept),
            recovered_bits=recovered,
            recovery_rate=rate,
        )
    if isinstance(strategy, adv.PnsSplit):
        correct = 0
        for record in records:
            stored = eve_state.stored_photons.get(record.index)
            guess = adv.ml_single_photon_estimator(stored, record.basis_choice, rng)
            eve_state.guesses.append(guess)
            if guess == record.bit:
                correct += 1
        return adv.EveSummary(
            strategy="pns",
            rounds=len(records),
            sifted_rounds=len(kept),
            recovered_bits=correct,
            guess_accuracy=correct / len(records) if records else None,
            stored_photons=len(eve_state.stored_photons),
        )
    successes = sum(eve_state.usd_successes)
    return adv.EveSummary(
        strategy="impersonate",
        rounds=len(records),
        sifted_rounds=len(kept),
        recovered_bits=successes,
        usd_success_rate=successes / len(records) if records else None,
    )
