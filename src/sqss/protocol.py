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

The round engine's light is an array of photon counts, one per round.
No observer changes a polarization, so a pulse's polarization after any
stage is the fold of the parties' rotations up to there, from theta at
the source (the rotation ledger, ``_polarizations``). The hiding angles
never reach Rec-1's detectors: theta and every phi_i cancel exactly, so
the engine computes the angle Rec-1 receives in whole quarter turns, k
plus the shuffle sum (plus Eve's offset under impersonation), and reads
Malus' p from ``optics.MALUS``. Only the trace and the photons Eve
stores read a float polarization, and only then is the ledger folded.

No secret depends on the light, so a round (``_run_round``) draws every
party's secret first and then walks the light along the route
(``_route``): the hops and party stages in travel order, each with the
share of photons it passes on. Light is drawn only where it is
observed: the source count at the first observer's mean, one thinning
between observers, and Rec-1's detectors from p^k
(``optics.pbs_measure``). When nothing observes the light before Rec-1,
no count is drawn at all: each arm of its 50:50 splitter is an
independent coherent pulse of half the arriving mean, and its detectors
read it straight from the coherent law (``optics.coherent_measure``).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from enum import Enum
from itertools import accumulate, islice
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike

from . import adversary as adv
from .channel import thin_batch
from .config import MAX_ROUNDS, ConfigError, SimConfig
from .optics import (
    DIAGONAL,
    MALUS,
    QUARTER_TURN,
    RECTILINEAR,
    VACUUM,
    DecisionAngle,
    coherent_measure,
    pbs_measure,
    rotate,
)

# Fraction of surviving bits kept by privacy amplification; public constant.
PA_COMPRESSION = 0.5
# Public salt separating the privacy-amplification seed from the session seed.
_PA_SEED_SALT = 0x9E3779B97F4A7C15

# Rounds simulated per chunk: bounds the engine's working memory.
_CHUNK_ROUNDS = 1 << 16


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
class RoundTable:
    """Every round of a session, one array per field with one entry per round.

    The arms hold detector outcome codes (``optics``); sifting fills in
    ``sifted``, the chosen arm's code, and decoding ``decoded``, the
    consensus key angle or -1. With ``trace`` the pulse's photon count
    and polarization after each of ``trace_stages`` are kept too.
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
    alice_final_key: list[int]
    receiver_final_keys: list[list[int]]  # honest receivers share one list
    verdict: Verdict
    records: RoundTable
    eve_summary: adv.EveSummary | None = None


def _key_angle(bit, basis):
    """Key angle in quarter turns for a bit in basis family 1 or 2, on ints or arrays.

    Family 1 encodes in the rectilinear pair and family 2 in the diagonal
    one: bit 0 -> {0, pi/4}, bit 1 -> {pi/2, -pi/4}, so the bit reads
    back as the angle // 2 and the basis as its parity.
    """
    return 2 * bit + basis - 1


def _decode(measured, shuffle_sum):
    """Recover the key angle in quarter turns from the angle Rec-1 measured
    and the sum of every shuffle, on ints or arrays.

    The measured angle is k plus the sum of all shuffles, so k falls out
    of subtracting them. Rec-1 announces its decision angle
    (measured - s_1), which decodes the same way against the sum of the
    shuffles the other receivers announce.
    """
    return (measured - shuffle_sum) % 4


# Row and column order of the decode table, in quarter turns: (0, pi/2,
# pi/4, -pi/4), the conventional presentation with the rectilinear pair first.
DECODE_TABLE_ORDER = (0, 2, 1, 3)


def decode_table() -> list[list[DecisionAngle]]:
    """4x4 key-angle table: rows are Rec-2's angle, columns Rec-1's, both in
    ``DECODE_TABLE_ORDER``."""
    order = np.array(DECODE_TABLE_ORDER)
    keys = _decode(order, order[:, None])
    return [[DecisionAngle(int(k)) for k in row] for row in keys]


def _polarizations(table: RoundTable, offset: np.ndarray | None) -> Iterator[np.ndarray]:
    """The rotation ledger: every pulse's polarization after each stage, in
    travel order, starting from theta at the source.

    No loss, splitter or counter turns a photon, so the polarization is
    the fold of the parties' rotations: phi_i + s_i into each receiver,
    k - theta at Alice, Eve's guess ``offset`` under impersonation (None
    otherwise), then -phi_i back through each receiver. The fold is lazy:
    a reader that stops early computes no later rotation.
    """
    n = table.phis.shape[1]

    def turns() -> Iterator[np.ndarray]:
        for i in range(n):
            yield table.phis[:, i] + table.shuffles[:, i] * QUARTER_TURN
        yield _key_angle(table.bit, table.basis_choice) * QUARTER_TURN - table.theta
        if offset is not None:
            yield offset * QUARTER_TURN
        for i in reversed(range(n)):
            yield -table.phis[:, i]

    return accumulate(turns(), rotate, initial=table.theta)


def rec1_measure(
    count: np.ndarray, arrived: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Split 50:50 and measure one arm per basis; returns both arms' outcome codes.

    Each of a pulse's ``count`` photons takes either arm with probability
    one half. The pulses arrive polarized at ``arrived`` quarter turns,
    and each arm takes Malus' p from ``MALUS`` at its offset from the
    arm's aligned detector.
    """
    first = rng.binomial(count, 0.5)
    rect, diag = (
        pbs_measure(arm, MALUS[(arrived - aligned) & 3], aligned, rng)
        for arm, aligned in zip((first, count - first), (RECTILINEAR, DIAGONAL))
    )
    return rect, diag


def sift(table: RoundTable, shuffle_sum: np.ndarray) -> np.ndarray:
    """Select the basis-matching arm per round and drop unusable rounds.

    The actual basis of the measured angle follows from the announced
    family j and the parity of ``shuffle_sum``, each round's sum of
    shuffles. Rounds whose selected arm reported vacuum or conflicting
    clicks are discarded. Stores the selected arm's outcome in
    ``table.sifted`` (the measured angle of a kept round) and returns the
    indices of the kept rounds.
    """
    parity = (table.basis_choice - 1 + shuffle_sum) & 1
    table.sifted = np.where(parity == 0, table.rect, table.diag)
    return np.flatnonzero(table.sifted < VACUUM)


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
    return np.flatnonzero((flips % 2 == 0)[block])


def reconcile_and_amplify(keys: ArrayLike, block_size: int, hash_seed: int = 0) -> np.ndarray:
    """Block-parity reconciliation followed by Toeplitz privacy amplification.

    ``keys`` holds one key per row. Blocks whose public parities disagree
    between rows 0 and 1 are discarded; the surviving positions of every
    row are compressed to half length by one shared, publicly seeded
    2-universal hash. Returns the compressed rows, which are empty when
    too few bits survive to produce any key at all.
    """
    keys = np.asarray(keys, dtype=np.uint8)
    survivors = parity_survivor_indices(keys[0], keys[1], block_size)
    out_len = int(len(survivors) * PA_COMPRESSION)
    rows = keys[:, survivors]
    # one matrix maps equal rows to equal outputs, so each distinct row is hashed once
    slots: dict[bytes, int] = {}
    slot = [slots.setdefault(row.tobytes(), len(slots)) for row in rows]
    distinct = rows[[slot.index(s) for s in range(len(slots))]]
    return toeplitz_compress(distinct.T, out_len, hash_seed).T[slot]


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


def _route(config: SimConfig, hop_t: Sequence[float]) -> list[tuple[int | str, float]]:
    """The pulse's path in travel order: each hop (its number) and each party
    stage (its trace name), with the share of its photons each passes on."""
    n = config.receivers
    route: list[tuple[int | str, float]] = [("alice_out", 1.0)]
    for i in range(1, n + 1):
        route += [(i, hop_t[i - 1]), (f"rec{i}_forward", 1.0)]
    # only the transmitted part of her storage splitter leaves Alice's box,
    # behind hop N+1 and any tap on it
    route += [(n + 1, hop_t[n]), ("alice_encoded", config.bs_ratio)]
    if config.adversary == "impersonate":
        route.append(("eve_reencoded", 1.0))
    for i in range(n, 0, -1):
        route += [(2 * n + 2 - i, hop_t[2 * n + 1 - i]), (f"rec{i}_backward", 1.0)]
    return route


def _run_round(
    size: int, config: SimConfig, hop_t: list[float], rng: np.random.Generator
) -> tuple[RoundTable, np.ndarray]:
    """Simulate ``size`` independent rounds at once, every stage on arrays.

    Returns the rounds and each round's shuffle sum in quarter turns.

    No party's secret depends on the light, so every secret is drawn
    first: theta, each receiver's phi_i and s_i, Alice's bit and basis,
    and Eve's tag or USD event. The light, a photon count per round,
    then walks the route (``_route``). Its observers are Eve's PNS hop
    and, with ``trace``, every stage. The source draws its counts at the
    first observer's mean, and each later observer thins them once by
    the shares passed since the last one. With no observer, Rec-1 reads
    the uncounted coherent pulse. Only the trace and Eve's stored photons
    read a float polarization; they take it from the rotation ledger
    (``_polarizations``) once the round is complete.
    """
    n = config.receivers
    pns_hop = config.pns_channel if config.adversary == "pns" else 0
    steps, shares = zip(*_route(config, hop_t))
    observers = [k for k, step in enumerate(steps)
                 if step == pns_hop or config.trace and isinstance(step, str)]

    theta = rng.random(size) * math.pi
    light = None
    if observers:
        light = rng.poisson(config.mean_photons * math.prod(shares[: observers[0] + 1]), size)
    phis = np.empty((size, n))
    shuffles = np.empty((size, n), dtype=np.int8)
    shuffle_sum = np.zeros(size, dtype=np.int8)  # wraps mod 256, a multiple of 4
    for i in range(n):
        phis[:, i] = rng.random(size) * math.pi
        shuffles[:, i] = rng.integers(4, size=size, dtype=np.int8)
        shuffle_sum += shuffles[:, i]
    bit = rng.integers(2, size=size, dtype=np.int8)
    basis = rng.integers(1, 3, size=size, dtype=np.int8)
    columns: dict[str, np.ndarray] = {}  # eve_event, where an attack records one
    offset = None
    if config.adversary == "tag":
        columns["eve_event"] = adv.tag_attack_rounds(size, config.bs_ratio, rng)
    elif config.adversary == "impersonate":
        # Eve keeps Alice's encoded pulse and discriminates it, then
        # re-encodes her result onto the substitute pulse the receivers
        # actually process. Her pulse is independent of the substitute,
        # so its count is a draw of its own; in angle bookkeeping the
        # substitute is the honest pulse shifted by her guess error.
        usd_mean = adv.intercepted_mean(config.mean_photons, config.bs_ratio, hop_t)
        offset, columns["eve_event"] = adv.impersonate_rounds(rng.poisson(usd_mean, size), rng)
    # theta and every phi_i cancel around the ring: Rec-1 receives the key
    # angle plus every shuffle and Eve's offset, whole quarter turns
    arrived = (_key_angle(bit, basis) + shuffle_sum + (0 if offset is None else offset)) & 3

    snaps: dict[str, np.ndarray] = {}  # each traced stage's photon counts
    done = 0  # the light has passed steps[:done]
    for k in observers:
        if done:  # the source's draw covers the shares up to the first observer
            light = thin_batch(light, math.prod(shares[done : k + 1]), rng)
        done = k + 1
        if steps[k] == pns_hop:
            light, columns["eve_event"] = adv.pns_intercept(light)
        else:
            snaps[steps[k]] = light
    if light is None:
        # a split coherent pulse is two independent coherent pulses, one per arm
        mean = config.mean_photons * math.prod(shares) / 2
        rect, diag = (
            coherent_measure(mean, MALUS, (arrived - aligned) & 3, aligned, rng)
            for aligned in (RECTILINEAR, DIAGONAL)
        )
    else:
        light = thin_batch(light, math.prod(shares[done:]), rng)
        rect, diag = rec1_measure(light, arrived, rng)

    table = RoundTable(theta, phis, shuffles, basis, bit, rect, diag, **columns,
                       trace_stages=tuple(snaps))
    if config.trace or pns_hop:
        # the trace reads every stage's polarization, Eve the one at her hop
        polarizations = list(islice(_polarizations(table, offset), len(snaps) or pns_hop))
        if pns_hop:
            table.eve_polarization = polarizations[pns_hop - 1]
        if snaps:
            table.trace_photons = np.stack(list(snaps.values()), axis=1)
            table.trace_polarization = np.stack(polarizations, axis=1)
    return table, shuffle_sum


def _decode_phase(
    table: RoundTable, kept: np.ndarray, shuffle_sum: np.ndarray, dishonest: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Exchange decision angles and decode; a dishonest receiver (1-based, 0 for
    none) corrupts its report. ``shuffle_sum`` holds each kept round's sum
    of shuffles.

    Returns each distinct key of the session once, as uint8 rows over the
    kept rounds: Alice's sifted bits, the public (consensus) decode and,
    with a liar, the liar's own decode. A liar announces a corrupted angle
    but uses its true one, so only the victims end up with a wrong key:
    every other receiver holds the public one.
    """
    measured = table.sifted[kept]
    consensus = _decode(measured, shuffle_sum)
    true_decode = consensus
    if dishonest:
        # the liar corrupts Rec-1's decision angle or its own shuffle
        corruption = rng.integers(1, 4, size=len(kept))
        if dishonest == 1:
            consensus = _decode(measured + corruption, shuffle_sum)
        else:
            consensus = _decode(measured, shuffle_sum + corruption)
    table.decoded = np.full(len(table), -1, dtype=np.int8)
    table.decoded[kept] = consensus
    keys = np.empty((3 if dishonest else 2, len(kept)), dtype=np.uint8)
    keys[0] = table.bit[kept]
    keys[1] = consensus // 2
    if dishonest:
        keys[2] = true_decode // 2
    return keys


def run_session(config: SimConfig, rng: np.random.Generator | None = None) -> SessionResult:
    """Run a full multi-round session and return keys plus statistics.

    Simulates the rounds through the ring in chunks (with the configured
    adversary attached to its channel hops) and sifts each chunk, then
    decodes cooperatively, optionally reconciles and compresses, and
    cross-checks key digests; an empty final key aborts for retry. Fully
    deterministic for a given seed and configuration.

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
    reachable = MAX_ROUNDS * keep_rate
    if target > reachable:
        raise ConfigError(
            "key_bits",
            f"{target} sifted bits need more than {MAX_ROUNDS} rounds"
            f" at the expected keep rate (about {reachable:.3g} bits reachable)",
        )
    if rng is None:
        rng = np.random.default_rng(config.seed)

    chunks: list[RoundTable] = []
    sum_parts: list[np.ndarray] = []  # the kept rounds' shuffle sums
    executed = kept_count = 0
    while kept_count < target if target else executed < config.rounds:
        size = config.rounds - executed
        if target:
            if executed >= MAX_ROUNDS:
                raise RuntimeError(
                    f"target of {target} sifted bits unreachable within {MAX_ROUNDS} rounds"
                )
            # the rounds expected to reach the rest of the target at the
            # honest keep rate, plus four standard deviations
            rest = target - kept_count
            size = math.ceil((rest + 4.0 * math.sqrt(rest * (1.0 - keep_rate))) / keep_rate)
            size = min(size, MAX_ROUNDS - executed)
        chunk, shuffle_sum = _run_round(min(size, _CHUNK_ROUNDS), config, hop_t, rng)
        kept = sift(chunk, shuffle_sum)
        if target and len(kept) >= target - kept_count:
            # The simulator sees sift status before the parties learn it at
            # the basis announcement. Rounds are i.i.d., so cutting the
            # chunk where the target is reached is the same as stopping there.
            kept = kept[: target - kept_count]
            chunk = _columnwise([chunk], lambda c: c[0][: kept[-1] + 1])
        chunks.append(chunk)
        sum_parts.append(shuffle_sum[kept])
        executed += len(chunk)
        kept_count += len(kept)
    table = chunks[0] if len(chunks) == 1 else _columnwise(chunks, np.concatenate)
    del chunks, chunk  # the joined table holds every round
    kept = np.flatnonzero(table.sifted < VACUUM)  # every chunk's kept rounds, in order

    dishonest = config.dishonest_receiver
    keys = _decode_phase(table, kept, np.concatenate(sum_parts), dishonest, rng)
    # the key post-processing below sets the session's peak memory
    del shuffle_sum, sum_parts
    qber = np.count_nonzero(keys[0] != keys[1]) / len(kept) if len(kept) else 0.0
    discard_fraction = 1.0 - len(kept) / len(table)

    if config.parity_block > 0:
        pa_seed = (config.seed ^ _PA_SEED_SALT) & 0xFFFFFFFFFFFFFFFF
        keys = reconcile_and_amplify(keys, config.parity_block, pa_seed)
    held = [2 if i == dishonest else 1 for i in range(1, n + 1)]  # each receiver's row
    if keys.shape[1] == 0:  # no key to share, whatever emptied it
        verdict = Verdict(VerdictKind.ABORT_RETRY)
    else:
        digests = [key_digest(key) for key in keys]
        verdict = integrity_check(digests[0], [digests[row] for row in held])

    eve_summary = None
    if config.adversary != "none":
        eve_summary = _score_eve(config.adversary, table, kept, rng)

    rows = keys.tolist()
    return SessionResult(
        rounds_executed=len(table),
        kept_rounds=len(kept),
        discard_fraction=discard_fraction,
        qber=float(qber),
        alice_final_key=rows[0],
        receiver_final_keys=[rows[row] for row in held],
        verdict=verdict,
        records=table,
        eve_summary=eve_summary,
    )


def _score_eve(
    adversary: str, table: RoundTable, kept: np.ndarray, rng: np.random.Generator
) -> adv.EveSummary:
    """Grant Eve the public announcements and score what she extracted."""
    rounds, sifted = len(table), len(kept)
    counts = dict(strategy=adversary, rounds=rounds, sifted_rounds=sifted)
    if adversary == "tag":
        # a surviving tag reads the key angle, and with it the bit
        recovered = int(np.count_nonzero(table.eve_event[kept]))
        return adv.EveSummary(
            **counts, recovered_bits=recovered, recovery_rate=recovered / sifted if sifted else None
        )
    if adversary == "pns":
        guesses = adv.ml_single_photon_estimator(
            table.eve_event.astype(np.int64), table.eve_polarization, table.basis_choice, rng
        )
        correct = int(np.count_nonzero(guesses == table.bit))
        return adv.EveSummary(
            **counts, recovered_bits=correct, guess_accuracy=correct / rounds,
            stored_photons=int(np.count_nonzero(table.eve_event)),
        )
    successes = int(np.count_nonzero(table.eve_event))
    return adv.EveSummary(**counts, recovered_bits=successes, usd_success_rate=successes / rounds)
