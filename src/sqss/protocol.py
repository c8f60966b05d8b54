"""Party operations and session orchestration for the ring protocol.

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
detector clicks) are discarded during sifting. Rounds are independent,
so every operation acts on a chunk of them, one array entry per round.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from . import adversary as adv
from .channel import thin_batch
from .config import ConfigError, SimConfig
from .optics import (
    AMBIGUOUS,
    QUARTER_TURN,
    VACUUM,
    DecisionAngle,
    MeasurementBasis,
    MeasurementOutcome,
    PhotonBatch,
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
# Rounds simulated per chunk: bounds the engine's working memory.
_CHUNK_ROUNDS = 1 << 16


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
class RoundTable:
    """Every round of a session, one array per field with one entry per round.

    Indexing or iterating builds ``RoundRecord`` rows on demand, so a
    session nobody inspects pays nothing for them. The arms hold
    ``pbs_measure`` outcome codes; sifting fills in ``sifted``, the chosen
    arm's code, and decoding ``decoded``, the consensus key angle or -1.
    """

    theta: np.ndarray
    phis: np.ndarray  # (rounds, receivers)
    shuffles: np.ndarray  # (rounds, receivers), quarter turns
    basis_choice: np.ndarray
    bit: np.ndarray
    rect: np.ndarray
    diag: np.ndarray
    eve_event: np.ndarray | None = None  # photon stored, tag survived or USD success
    eve_polarization: np.ndarray | None = None  # of the pulse Eve counted (pns)
    trace_photons: np.ndarray | None = None  # (rounds, stages)
    trace_polarization: np.ndarray | None = None
    trace_stages: tuple[str, ...] = ()
    sifted: np.ndarray | None = None
    decoded: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.theta)

    def __getitem__(self, i: int) -> RoundRecord:
        i = range(len(self))[i]  # also ends iteration with IndexError
        j, bit = int(self.basis_choice[i]), int(self.bit[i])
        sifted = None if self.sifted is None else int(self.sifted[i])
        decoded = -1 if self.decoded is None else int(self.decoded[i])
        trace = tuple(map(PulseSnapshot, self.trace_stages, self.trace_photons[i].tolist(),
                          self.trace_polarization[i].tolist())) if self.trace_stages else None
        return RoundRecord(
            i, float(self.theta[i]), tuple(self.phis[i].tolist()), tuple(self.shuffles[i].tolist()),
            j, bit, encode_map(bit, j).quarter_turns,
            MeasurementOutcome.from_code(int(self.rect[i])),
            MeasurementOutcome.from_code(int(self.diag[i])),
            status=None if sifted is None else _SIFT_STATUS.get(sifted, SiftStatus.KEPT),
            measured_angle=sifted if sifted is not None and sifted < VACUUM else None,
            decoded_angle=decoded if decoded >= 0 else None,
            decoded_bit=decoded // 2 if decoded >= 0 else None,
            trace=trace,
        )


_SIFT_STATUS = {VACUUM: SiftStatus.VACUUM_DISCARD, AMBIGUOUS: SiftStatus.AMBIGUOUS_DISCARD}


def _columnwise(tables: Sequence[RoundTable], join) -> RoundTable:
    """The table whose array columns are ``join`` of the tables' columns."""
    columns = zip(*([getattr(t, f.name) for f in fields(RoundTable)] for t in tables))
    return RoundTable(*(join(c) if isinstance(c[0], np.ndarray) else c[0] for c in columns))


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
    records: RoundTable
    eve_summary: adv.EveSummary | None = None


def encode_map(bit: int, j: int) -> DecisionAngle:
    """Key angle for a bit in basis family j: 0 -> {0, pi/4}, 1 -> {pi/2, -pi/4}."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    if j not in (1, 2):
        raise ValueError(f"basis family must be 1 or 2, got {j}")
    return DecisionAngle(2 * bit + j - 1)


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


def alice_prepare(
    mean_photons: float, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, PhotonBatch]:
    """Emit ``size`` fresh coherent pulses, each hidden behind a uniformly
    random angle theta; returns the thetas and the pulses.

    Photon numbers are drawn here, Poisson with the configured mean;
    everything downstream only thins or reads those counts.
    """
    theta = rng.random(size) * math.pi
    return theta, PhotonBatch(rng.poisson(mean_photons, size), theta)


def receiver_forward(
    light: PhotonBatch, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, PhotonBatch]:
    """Stack this receiver's hiding angle phi_i and secret shuffle s_i on
    every pulse; returns the hiding angles, the shuffles (quarter turns)
    and the rotated pulses."""
    phi = rng.random(len(light.count)) * math.pi
    shuffle = rng.integers(4, size=len(phi), dtype=np.int8)
    return phi, shuffle, rotate_batch(light, phi + shuffle * QUARTER_TURN)


def alice_encode(
    light: PhotonBatch, theta: np.ndarray, bit: np.ndarray, bs_ratio: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, PhotonBatch]:
    """Encode each key bit in a random basis family j and strip theta.

    The net rotation is (k - theta). When the counter-tagging beam
    splitter is configured (ratio < 1) only the transmitted part of each
    pulse leaves the box. Returns the basis families and the pulses.
    """
    basis = rng.integers(1, 3, size=len(bit), dtype=np.int8)
    key = 2 * bit + basis - 1  # encode_map, round by round
    light = rotate_batch(light, key * QUARTER_TURN - theta)
    if bs_ratio < 1.0:
        light, _ = split_batch(light, bs_ratio, rng)
    return basis, light


def receiver_backward(light: PhotonBatch, phi: np.ndarray) -> PhotonBatch:
    """Compensate this receiver's hiding angles; the shuffles stay in."""
    return rotate_batch(light, -phi)


def rec1_measure(light: PhotonBatch, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Split 50:50 and measure one arm per basis; returns both arms' outcome codes."""
    rect_batch, diag_batch = split_batch(light, 0.5, rng)
    rect = pbs_measure(rect_batch, MeasurementBasis.RECTILINEAR, rng)
    diag = pbs_measure(diag_batch, MeasurementBasis.DIAGONAL, rng)
    return rect, diag


def sift(table: RoundTable, announced_bases: np.ndarray) -> np.ndarray:
    """Select the basis-matching arm per round and drop unusable rounds.

    The actual basis of the measured angle follows from the announced
    family j and the parity of the shuffle sum. Rounds whose selected
    arm reported vacuum or conflicting clicks are discarded. Stores the
    selected arm's outcome in ``table.sifted`` (the measured angle of a
    kept round) and returns the indices of the kept rounds.
    """
    if len(table) != len(announced_bases):
        raise ValueError("one announced basis per round is required")
    table.sifted = _sifted_outcome(table, announced_bases)
    return np.flatnonzero(table.sifted < VACUUM)


def _sifted_outcome(table: RoundTable, j: np.ndarray) -> np.ndarray:
    """Outcome codes of the arm whose basis matches the measured angle's, given families j."""
    parity = (j - 1 + table.shuffles.sum(axis=1)) % 2
    return np.where(parity == 0, table.rect, table.diag)


def _fft_length(m: int) -> int:
    """The smallest 2**a * 3**b >= m, a length numpy's FFT transforms quickly."""
    best, power3 = 1 << (m - 1).bit_length(), 3
    while power3 < best:
        best = min(best, power3 << (-(-m // power3) - 1).bit_length())
        power3 *= 3
    return best


def toeplitz_compress(bits: ArrayLike, out_len: int, hash_seed: int) -> np.ndarray:
    """2-universal compression: multiply by a seeded random Toeplitz matrix over GF(2).

    ``bits`` is one key of n bits, or an (n, keys) array whose columns are
    keys hashed by the same matrix. The product is a slice of the FFT
    convolution of the matrix's diagonal with each key.
    """
    x = np.asarray(bits, dtype=np.float64)
    n = len(x)
    if out_len < 0 or out_len > n:
        raise ValueError(f"output length must be in [0, {n}], got {out_len}")
    if out_len == 0:
        return np.zeros((0, *x.shape[1:]), dtype=np.uint8)
    diag = np.random.default_rng(hash_seed).integers(0, 2, size=n + out_len - 1)
    # a circular convolution this long leaves the wanted outputs free of wrap-around
    size = _fft_length(n + out_len - 1)
    spectrum = np.fft.rfft(x.T, size) * np.fft.rfft(diag, size)
    conv = np.fft.irfft(spectrum, size)[..., n - 1 : n - 1 + out_len].T
    return (np.rint(conv).astype(np.int64) & 1).astype(np.uint8)


def parity_survivor_indices(key_a: ArrayLike, key_b: ArrayLike, block_size: int) -> np.ndarray:
    """Indices of bits in blocks whose parity agrees between the two keys."""
    if len(key_a) != len(key_b):
        raise ValueError("keys must have equal length")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    block = np.arange(len(key_a)) // block_size
    flips = np.bincount(block, weights=np.not_equal(key_a, key_b))
    return np.flatnonzero(flips[block] % 2 == 0)


def reconcile_and_amplify(
    key_a: ArrayLike, key_b: ArrayLike, block_size: int, hash_seed: int = 0,
    keys: ArrayLike | None = None,
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
    rows = np.asarray(keys if keys is not None else (key_a, key_b), dtype=np.uint8)
    return toeplitz_compress(rows[:, survivors].T, out_len, hash_seed).T.tolist()


def key_digest(bits: ArrayLike) -> str:
    """Public integrity digest: SHA-256 over the ASCII bit string."""
    return hashlib.sha256((np.asarray(bits, dtype=np.uint8) + ord("0")).tobytes()).hexdigest()


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
    size: int, config: SimConfig, hop_t: list[float], strategy: adv.EveStrategy,
    rng: np.random.Generator,
) -> RoundTable:
    """Simulate ``size`` independent rounds at once, every stage on arrays."""
    n = config.receivers
    pns_hop = strategy.channel_index if isinstance(strategy, adv.PnsSplit) else 0
    columns: dict[str, np.ndarray] = {}  # Eve's and the trace's, where present
    snaps: dict[str, PhotonBatch] = {}

    def snap(stage: str, light: PhotonBatch) -> None:
        if config.trace:
            snaps[stage] = light

    def hop_to(hop: int, light: PhotonBatch) -> PhotonBatch:
        light = thin_batch(light, hop_t[hop - 1], rng)
        if hop == pns_hop:
            columns["eve_polarization"] = light.polarization
            light, columns["eve_event"] = adv.pns_intercept(light)
        return light

    theta, light = alice_prepare(config.mean_photons, size, rng)
    snap("alice_out", light)
    phis = np.empty((size, n))
    shuffles = np.empty((size, n), dtype=np.int8)
    for i in range(n):  # forward hops 1..N: into each receiver
        phis[:, i], shuffles[:, i], light = receiver_forward(hop_to(i + 1, light), rng)
        snap(f"rec{i + 1}_forward", light)
    light = hop_to(n + 1, light)  # hop N+1: Rec-N back to Alice

    bit = rng.integers(2, size=size, dtype=np.int8)
    basis, light = alice_encode(light, theta, bit, config.bs_ratio, rng)
    snap("alice_encoded", light)

    if isinstance(strategy, adv.TagPhoton):
        columns["eve_event"] = adv.tag_attack_rounds(size, config.bs_ratio, rng)
    if isinstance(strategy, adv.Impersonate):
        # Eve keeps Alice's encoded pulse and discriminates it, then
        # re-encodes her result onto the substitute pulse the receivers
        # actually process. Her pulse is independent of the substitute,
        # so its count is a draw of its own; in angle bookkeeping the
        # substitute is the honest pulse shifted by her guess error.
        usd_mean = adv.intercepted_mean(config.mean_photons, config.bs_ratio, hop_t)
        offset, columns["eve_event"] = adv.impersonate_rounds(rng.poisson(usd_mean, size), rng)
        light = rotate_batch(light, offset * QUARTER_TURN)
        snap("eve_reencoded", light)

    for i in range(n, 0, -1):  # backward hops N+2..2N+1: into Rec-N, ..., Rec-1
        light = receiver_backward(hop_to(2 * n + 2 - i, light), phis[:, i - 1])
        snap(f"rec{i}_backward", light)
    rect, diag = rec1_measure(light, rng)

    if snaps:
        columns["trace_photons"] = np.stack([s.count for s in snaps.values()], axis=1)
        columns["trace_polarization"] = np.stack([s.polarization for s in snaps.values()], axis=1)
    return RoundTable(theta, phis, shuffles, basis, bit, rect, diag, **columns,
                      trace_stages=tuple(snaps))


def _decode_rows(decisions: np.ndarray) -> np.ndarray:
    """``cooperative_decode`` on every row of (Rec-1's decision, other shuffles...)."""
    return (decisions[:, 0] - decisions[:, 1:].sum(axis=1)) % 4


def _decode_phase(
    table: RoundTable, kept: np.ndarray, n: int, dishonest: int | None, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Exchange decision angles and decode; a dishonest receiver corrupts its report.

    Returns the publicly exchanged (consensus) decoded bits plus an
    (n, kept) array of the receivers' private decodes. A liar announces a
    corrupted angle but uses its true one, so only the victims end up
    with a wrong key: every other receiver's view is the public one.
    """
    true_decisions = table.shuffles[kept].astype(np.int64)
    true_decisions[:, 0] = (table.sifted[kept] - true_decisions[:, 0]) % 4
    reported = true_decisions.copy()
    if dishonest is not None:
        reported[:, dishonest - 1] += rng.integers(1, 4, size=len(kept))  # decoding reduces mod 4
    consensus = _decode_rows(reported)
    table.decoded = np.full(len(table), -1, dtype=np.int8)
    table.decoded[kept] = consensus
    private_bits = np.tile(consensus // 2, (n, 1))
    if dishonest is not None:
        private_bits[dishonest - 1] = _decode_rows(true_decisions) // 2
    return consensus // 2, private_bits


def run_session(config: SimConfig, rng: np.random.Generator | None = None) -> SessionResult:
    """Run a full multi-round session and return keys plus statistics.

    Simulates the rounds through the ring in chunks (with the configured
    adversary attached to its channel hops), then sifts, decodes
    cooperatively, optionally reconciles and compresses, and cross-checks
    key digests. Fully deterministic for a given seed and configuration.

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
    keep_rate = -math.expm1(-mu_final / 2.0)
    reachable = _MAX_TARGET_ROUNDS * keep_rate
    if target > reachable:
        raise ConfigError(
            "key_bits",
            f"{target} sifted bits need more than {_MAX_TARGET_ROUNDS} rounds"
            f" at the expected keep rate (about {reachable:.3g} bits reachable)",
        )
    if rng is None:
        rng = np.random.default_rng(config.seed)
    strategy = config.strategy()

    chunks: list[RoundTable] = []
    executed = keepable = 0
    while keepable < target if target else executed < config.rounds:
        size = config.rounds - executed
        if target:
            if executed >= _MAX_TARGET_ROUNDS:
                raise RuntimeError(
                    f"target of {target} sifted bits unreachable within {_MAX_TARGET_ROUNDS} rounds"
                )
            # the rounds expected to reach the rest of the target at the
            # honest keep rate, plus four standard deviations
            rest = target - keepable
            size = math.ceil((rest + 4.0 * math.sqrt(rest * (1.0 - keep_rate))) / keep_rate)
            size = min(size, _MAX_TARGET_ROUNDS - executed)
        chunk = _run_round(min(size, _CHUNK_ROUNDS), config, hop_t, strategy, rng)
        if target:
            # The simulator may pre-count keepable rounds; parties only
            # learn sift status after the basis announcement. Rounds are
            # i.i.d., so cutting the chunk where the target is reached is
            # the same as stopping there.
            counts = np.cumsum(_sifted_outcome(chunk, chunk.basis_choice) < VACUUM)
            stop = int(np.searchsorted(counts, target - keepable)) + 1
            chunk = _columnwise([chunk], lambda c: c[0][:stop])
            keepable += int(counts[len(chunk) - 1])
        chunks.append(chunk)
        executed += len(chunk)
    table = chunks[0] if len(chunks) == 1 else _columnwise(chunks, np.concatenate)

    kept = sift(table, table.basis_choice)
    dishonest = config.dishonest_receiver if config.dishonest_receiver else None
    consensus_bits, private_bits = _decode_phase(table, kept, n, dishonest, rng)

    alice_bits = table.bit[kept]
    qber = np.count_nonzero(alice_bits != consensus_bits) / len(kept) if len(kept) else 0.0
    discard_fraction = 1.0 - len(kept) / len(table)

    alice_sifted, receiver_sifted = alice_bits.tolist(), private_bits.tolist()
    verdict = None
    alice_final, receiver_finals = list(alice_sifted), [list(bits) for bits in receiver_sifted]
    if config.parity_block > 0 and len(kept):
        pa_seed = (config.seed ^ _PA_SEED_SALT) & 0xFFFFFFFFFFFFFFFF
        try:
            alice_final, *receiver_finals = reconcile_and_amplify(
                alice_bits, consensus_bits, config.parity_block, pa_seed,
                keys=np.vstack([alice_bits, private_bits]),
            )
        except ProtocolRestart:
            alice_final, receiver_finals = [], [[] for _ in range(n)]
            verdict = Verdict(VerdictKind.ABORT_RETRY)
    if verdict is None:
        verdict = integrity_check(key_digest(alice_final), [key_digest(k) for k in receiver_finals])

    eve_summary = None
    if not isinstance(strategy, adv.NoAttack):
        eve_summary = _score_eve(strategy, table, kept, rng)

    return SessionResult(
        rounds_executed=len(table),
        kept_rounds=len(kept),
        discard_fraction=discard_fraction,
        qber=float(qber),
        alice_sifted_bits=alice_sifted,
        receiver_sifted_bits=receiver_sifted,
        alice_final_key=alice_final,
        receiver_final_keys=receiver_finals,
        verdict=verdict,
        records=table,
        eve_summary=eve_summary,
    )


def _score_eve(
    strategy: adv.EveStrategy, table: RoundTable, kept: np.ndarray, rng: np.random.Generator
) -> adv.EveSummary:
    """Grant Eve the public announcements and score what she extracted."""
    rounds, sifted = len(table), len(kept)
    if isinstance(strategy, adv.TagPhoton):
        # a surviving tag reads the key angle, and with it the bit
        recovered = int(np.count_nonzero(table.eve_event[kept]))
        return adv.EveSummary(
            strategy="tag",
            rounds=rounds,
            sifted_rounds=sifted,
            recovered_bits=recovered,
            recovery_rate=recovered / sifted if sifted else None,
        )
    if isinstance(strategy, adv.PnsSplit):
        stored = PhotonBatch(table.eve_event.astype(np.int64), table.eve_polarization)
        guesses = adv.ml_single_photon_estimator(stored, table.basis_choice, rng)
        correct = int(np.count_nonzero(guesses == table.bit))
        return adv.EveSummary(
            strategy="pns",
            rounds=rounds,
            sifted_rounds=sifted,
            recovered_bits=correct,
            guess_accuracy=correct / rounds,
            stored_photons=int(np.count_nonzero(table.eve_event)),
        )
    successes = int(np.count_nonzero(table.eve_event))
    return adv.EveSummary(
        strategy="impersonate",
        rounds=rounds,
        sifted_rounds=sifted,
        recovered_bits=successes,
        usd_success_rate=successes / rounds,
    )
