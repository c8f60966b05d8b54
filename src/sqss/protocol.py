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
so every operation acts on a chunk of them, one array entry per round,
and a session sifts, decodes and scores each chunk as it comes.

The round engine's light is an array of photon counts, one per round.
No observer changes a polarization, so a pulse's polarization after any
stage is the fold of the parties' rotations up to there, from theta at
the source (the rotation ledger, ``_polarizations``). The hiding angles
never reach Rec-1's detectors: theta and every phi_i cancel exactly, so
the engine computes the angle Rec-1 receives in whole quarter turns, k
plus the shuffle sum (plus Eve's offset under impersonation), and
Rec-1's reader takes Malus' p from ``optics.MALUS``. Only the per-round
CSV's trace and the photons Eve stores read a float polarization, and
each folds the ledger itself.

A round (``_run_round``) is its physics: the bit, the basis, the shuffle
sum S mod 4 (uniform on Z4 like each shuffle, the only secret that
reaches Rec-1, sifting and the decode), Eve's events and the light,
walked along the route (``_route``): the hops and party stages in travel
order, each with the share of photons it passes on. No light depends on
theta, a phi_i or a single s_i, so ``run_session`` draws them behind
each chunk, from their exact law given S (``_draw_secrets``), only where
something reads them. The photons Eve stores on hop c (``pns``) read
theta and the first c - 1 receivers' secrets (every receiver's past
the ring's last), drawn from a stream of her own; the records read the
rest, drawn after hers from another, so they never move her draws.

Light is drawn only where it is observed: the source count at the first
observer's mean and one thinning between observers. Rec-1 reads both
arms at once from the exact joint law of what reaches its splitter
(``optics.rec1_measure``), the last count's photons or, when nothing
counted the light, the coherent pulse: neither the last loss nor the
50:50 split is drawn.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from enum import Enum
from itertools import accumulate, islice
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike

from . import adversary as adv
from .channel import thin_batch
from .config import MAX_ROUNDS, ConfigError, SimConfig
from .optics import (
    QUARTER_TURN,
    VACUUM,
    rec1_measure,
    rotate,
)

# Fraction of surviving bits kept by privacy amplification; public constant.
PA_COMPRESSION = 0.5
# Public salt separating the privacy-amplification seed from the session seed.
_PA_SEED_SALT = 0x9E3779B97F4A7C15
# Public salt separating the stream of the parties' private secrets from the physics.
_SECRETS_SEED_SALT = 0x7265636F726473
# Public salt of the stream of the secrets Eve's PNS hop reads, apart from the records'.
_EVE_SEED_SALT = 0x657665

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
    """A chunk of rounds, one array per field with one entry per round; a
    session hands each finished chunk to its ``records`` callback, if any.

    ``shuffle_sum`` is each round's sum of shuffles mod 4, in quarter turns
    0..3. ``theta``, ``phis`` and ``shuffles``, drawn behind it, are None
    unless Eve's stored photons (``pns``) or the records read them; without
    records, ``phis`` and ``shuffles`` hold only the receivers Eve passed.
    The arms hold detector outcome codes (``optics``); sifting fills in
    ``sifted``, the chosen arm's code, and decoding ``decoded``, the
    consensus key angle or -1. With ``trace`` each round's photon count
    after each of ``trace_stages`` is kept too; its polarization there is
    the ledger's fold.
    """

    shuffle_sum: np.ndarray  # int8
    basis_choice: np.ndarray
    bit: np.ndarray
    theta: np.ndarray | None = None
    phis: np.ndarray | None = None  # (rounds, receivers)
    shuffles: np.ndarray | None = None  # (rounds, receivers), quarter turns
    rect: np.ndarray | None = None
    diag: np.ndarray | None = None
    eve_event: np.ndarray | None = None  # photon stored, tag survived or USD success
    eve_offset: np.ndarray | None = None  # int8 guess error in quarter turns (impersonate)
    eve_guess: np.ndarray | None = None  # bit read from the stored photon (pns)
    trace_photons: np.ndarray | None = None  # (rounds, stages)
    trace_stages: tuple[str, ...] = ()
    sifted: np.ndarray | None = None
    decoded: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.bit)

    def rows(self, start: int, stop: int) -> RoundTable:
        """The table of rounds ``start`` to ``stop - 1``, viewing this one's arrays."""
        columns = (getattr(self, f.name) for f in fields(self))
        return RoundTable(*(c[start:stop] if isinstance(c, np.ndarray) else c for c in columns))


@dataclass(slots=True)
class SessionResult:
    """What a session ends with: its counts, the final keys and the verdict.

    Each final key is ``bytes`` with one byte, 0 or 1, per bit: ``len``
    counts its bits and ``list(key)`` gives them as ints.
    """

    rounds_executed: int
    kept_rounds: int
    discard_fraction: float
    qber: float
    alice_final_key: bytes
    receiver_final_keys: list[bytes]  # honest receivers share one object
    verdict: Verdict
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
    shuffles the other receivers announce. ``& 3`` is the residue mod 4
    on every integer, negatives included, in two's complement.
    """
    return (measured - shuffle_sum) & 3


# Row and column order of the decode table, in quarter turns: (0, pi/2,
# pi/4, -pi/4), the conventional presentation with the rectilinear pair first.
DECODE_TABLE_ORDER = (0, 2, 1, 3)


def decode_table() -> list[list[int]]:
    """4x4 key-angle table in quarter turns 0..3: rows are Rec-2's angle,
    columns Rec-1's, both in ``DECODE_TABLE_ORDER``."""
    order = np.array(DECODE_TABLE_ORDER)
    return _decode(order, order[:, None]).tolist()


def _polarizations(table: RoundTable) -> Iterator[np.ndarray]:
    """The rotation ledger: every pulse's polarization after each stage, in
    travel order, starting from theta at the source.

    No loss, splitter or counter turns a photon, so the polarization is
    the fold of the parties' rotations: phi_i + s_i into each receiver,
    k - theta at Alice, Eve's guess ``eve_offset`` under impersonation,
    then -phi_i back through each receiver. The fold is lazy:
    a reader that stops early computes no later rotation.
    """
    n = table.phis.shape[1]

    def turns() -> Iterator[np.ndarray]:
        for i in range(n):
            yield table.phis[:, i] + table.shuffles[:, i] * QUARTER_TURN
        yield _key_angle(table.bit, table.basis_choice) * QUARTER_TURN - table.theta
        if table.eve_offset is not None:
            yield table.eve_offset * QUARTER_TURN
        for i in reversed(range(n)):
            yield -table.phis[:, i]

    return accumulate(turns(), rotate, initial=table.theta)


def sift(table: RoundTable) -> np.ndarray:
    """Select the basis-matching arm per round and drop unusable rounds.

    The actual basis of the measured angle follows from the announced
    family j and the parity of the round's ``shuffle_sum``. Rounds whose
    selected arm reported vacuum or conflicting clicks are discarded. Stores the selected arm's outcome in
    ``table.sifted`` (the measured angle of a kept round) and returns the
    indices of the kept rounds.
    """
    parity = (table.basis_choice - 1 + table.shuffle_sum) & 1
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
    """2-universal compression by the modified Toeplitz family [I | T] over GF(2).

    ``bits`` is one key of n bits, or an (n, keys) array whose columns are
    keys hashed by the same matrix. With m = ``out_len``, a key x = (x1, x2)
    of head x1 (m bits) and tail x2 (n - m bits) hashes to x1 xor T x2,
    where T is the m x (n - m) Toeplitz matrix drawn from n - 1 seeded bits
    (Hayashi and Tsurumaru, IEEE Trans. Inf. Theory 62(4), 2016). Distinct
    keys collide with probability 2**-m over the seed: keys that differ
    only in the head never collide, and for any nonzero tail T x2 is
    uniform (Mansour, Nisan and Tiwari, STOC 1990). T x2 is a slice of the
    FFT convolution of T's diagonal with each tail.
    """
    x = np.asarray(bits, dtype=np.uint8)
    n = len(x)
    if out_len < 0 or out_len > n:
        raise ValueError(f"output length must be in [0, {n}], got {out_len}")
    head, tail = x[:out_len], x[out_len:]
    if out_len in (0, n):  # the empty key, or the identity block alone
        return head.copy()
    diag = np.random.default_rng(hash_seed).integers(0, 2, size=n - 1, dtype=np.uint8)
    # a circular convolution of n - 1 points leaves the wanted outputs free of wrap-around
    size = _fft_length(n - 1)
    spectrum = np.fft.rfft(tail.T, size)
    spectrum *= np.fft.rfft(diag, size)  # in place: the peak is the two spectra
    conv = np.fft.irfft(spectrum, size)[..., n - out_len - 1 : n - 1].T
    return (np.rint(conv).astype(np.int64) & 1).astype(np.uint8) ^ head


def parity_survivor_indices(key_a: ArrayLike, key_b: ArrayLike, block_size: int) -> np.ndarray:
    """Indices of bits in blocks whose parity agrees between the two keys.

    The keys are cut into consecutive blocks of ``block_size`` bits, the
    last one possibly shorter. Returns the ascending indices (``np.intp``)
    of every bit whose block holds an even number of disagreements. The
    temporaries take 1 byte per bit.
    """
    n = len(key_a)
    if n != len(key_b):
        raise ValueError("keys must have equal length")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    width = min(block_size, n) or 1  # a block longer than the keys is the whole key
    flips = np.zeros((-(-n // width), width), dtype=bool)  # a zero-padded tail flips nothing
    np.not_equal(key_a, key_b, out=flips.reshape(-1)[:n])
    kept = ~np.logical_xor.reduce(flips, axis=1)
    return np.flatnonzero(np.repeat(kept, width)[:n])


def reconcile_and_amplify(keys: ArrayLike, block_size: int, hash_seed: int = 0) -> np.ndarray:
    """Block-parity reconciliation followed by Toeplitz privacy amplification.

    ``keys`` holds one key per row. Blocks whose public parities disagree
    between rows 0 and 1 are discarded; the surviving positions of every
    row are compressed to half length by one shared, publicly seeded
    2-universal hash. When every block survives, ``keys`` is hashed as it
    is, with no copy. Returns the compressed rows, which are empty when
    too few bits survive to produce any key at all.
    """
    keys = np.asarray(keys, dtype=np.uint8)
    survivors = parity_survivor_indices(keys[0], keys[1], block_size)
    rows = keys if len(survivors) == keys.shape[1] else np.take(keys, survivors, axis=1)
    del survivors  # the indices go before the hash's peak
    out_len = int(rows.shape[1] * PA_COMPRESSION)
    # one matrix maps equal rows to equal outputs, so each distinct row is hashed once
    slots: dict[bytes, int] = {}
    slot = [slots.setdefault(row.tobytes(), len(slots)) for row in rows]
    distinct = rows[[slot.index(s) for s in range(len(slots))]]
    del rows  # the gathered rows go before the hash's peak
    return toeplitz_compress(distinct.T, out_len, hash_seed).T[slot]


# Maps each byte b to b + ord("0") mod 256: a bit to its ASCII digit.
_ASCII_BITS = bytes((b + ord("0")) & 0xFF for b in range(256))


def key_digest(bits: bytes | ArrayLike) -> str:
    """Public integrity digest: SHA-256 over the ASCII bit string.

    ``bits`` is a final key (``bytes``, one byte per bit) or any sequence
    or array of bits; each gives the same digest for the same bits.
    """
    if not isinstance(bits, bytes):
        bits = np.asarray(bits, dtype=np.uint8).tobytes()
    return hashlib.sha256(bits.translate(_ASCII_BITS)).hexdigest()


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


def _route(config: SimConfig) -> list[tuple[int | str, float]]:
    """The pulse's path in travel order: each hop (its number) and each party
    stage (its trace name), with the share of its photons each passes on."""
    n, t = config.receivers, config.hop_transmission()
    route: list[tuple[int | str, float]] = [("alice_out", 1.0)]
    for i in range(1, n + 1):
        route += [(i, t), (f"rec{i}_forward", 1.0)]
    # only the transmitted part of her storage splitter leaves Alice's box,
    # behind hop N+1 and any tap on it
    route += [(n + 1, t), ("alice_encoded", config.bs_ratio)]
    if config.adversary == "impersonate":
        route.append(("eve_reencoded", 1.0))
    for i in range(n, 0, -1):
        route += [(2 * n + 2 - i, t), (f"rec{i}_backward", 1.0)]
    return route


def _run_round(size: int, config: SimConfig, rng: np.random.Generator) -> RoundTable:
    """Simulate ``size`` independent rounds at once into one table.

    One value on Z4 per round gives Alice's bit and basis, two fair bits;
    another gives the shuffles' sum S, the only secret the light carries
    to Rec-1, sifting and the decode (S is uniform on Z4 like each
    shuffle). Eve's tag or USD event follows; under impersonation her
    guess offset is the ``eve_offset`` column. The light, a photon count
    per round, then walks the route (``_route``). Its observers are Eve's
    PNS hop and, with ``trace``, every stage, which writes its count into
    its ``trace_photons`` column. The source draws at the first observer's
    mean, each later observer thins once by the shares passed since the
    last one, and Rec-1 reads the rest of the way with its detectors.
    """
    pns_hop = config.pns_channel if config.adversary == "pns" else 0
    steps, shares = zip(*_route(config))
    observers = [k for k, step in enumerate(steps)
                 if step == pns_hop or config.trace and isinstance(step, str)]

    z4 = rng.integers(4, size=(2, size), dtype=np.int8)
    bit, basis = z4[0] & 1, (z4[0] >> 1) + 1
    stages = tuple(step for step in steps if isinstance(step, str)) if config.trace else ()
    table = RoundTable(z4[1], basis, bit, trace_stages=stages)
    light = None
    if observers:
        light = rng.poisson(config.mean_photons * math.prod(shares[: observers[0] + 1]), size)
    if config.adversary == "tag":
        table.eve_event = adv.tag_attack_rounds(size, config.bs_ratio, rng)
    elif config.adversary == "impersonate":
        # Eve keeps Alice's encoded pulse and discriminates it, then
        # re-encodes her result onto the substitute pulse the receivers
        # actually process. Her pulse is independent of the substitute,
        # so its count is a draw of its own; in angle bookkeeping the
        # substitute is the honest pulse shifted by her guess error.
        t = config.hop_transmission()
        usd_mean = adv.intercepted_mean(config.mean_photons, config.bs_ratio, t)
        counts = rng.poisson(usd_mean, size)
        table.eve_offset, table.eve_event = adv.impersonate_rounds(counts, rng)
    # theta and every phi_i cancel around the ring: Rec-1 receives the key
    # angle plus every shuffle and Eve's offset, whole quarter turns
    offset = 0 if table.eve_offset is None else table.eve_offset
    arrived = (_key_angle(bit, basis) + table.shuffle_sum + offset) & 3

    if stages:
        table.trace_photons = np.empty((size, len(stages)), dtype=np.int64)
    done = 0  # the light has passed steps[:done]
    for k in observers:
        if done:  # the source's draw covers the shares up to the first observer
            light = thin_batch(light, math.prod(shares[done : k + 1]), rng)
        done = k + 1
        if steps[k] == pns_hop:
            light, table.eve_event = adv.pns_intercept(light)
        else:
            table.trace_photons[:, stages.index(steps[k])] = light
    # Rec-1 reads the share passed since the last observer: of its count or the source's mean
    share = math.prod(shares[done:]) * (config.mean_photons if light is None else 1.0)
    table.rect, table.diag = rec1_measure(arrived, light, share, rng)
    return table


def _draw_secrets(
    table: RoundTable, receivers: int, rng: np.random.Generator, upto: int | None = None
) -> None:
    """Fill in the secrets behind the table's shuffle sums that are not drawn
    yet, up to receiver ``upto`` (all ``receivers`` by default): theta, then
    each phi_i and s_i in receiver order, from their exact law given those sums.

    Theta and the phi_i are independent of everything else: uniforms on
    [0, pi). N independent uniform shuffles conditioned on their sum S
    are any N - 1 of them i.i.d. uniform on Z4 and the last one completing
    the sum mod 4. So shuffles drawn short of receiver N are free, and a
    draw that reaches it completes the sum with the first shuffle it draws:
    s_1 when it draws them all.
    """
    size, start = len(table), 0 if table.phis is None else table.phis.shape[1]
    width = (receivers if upto is None else upto) - start
    if table.theta is None:
        table.theta = rng.random(size) * math.pi
    phis = rng.random((width, size))
    phis *= math.pi
    shuffles = rng.integers(4, size=(width, size), dtype=np.int8)
    if start:  # behind the receivers drawn before
        phis, shuffles = np.vstack((table.phis.T, phis)), np.vstack((table.shuffles.T, shuffles))
    if width and start + width == receivers:  # the first shuffle drawn here completes the sum
        shuffles[start] = 0
        shuffles[start] = (table.shuffle_sum - shuffles.sum(axis=0, dtype=np.int8)) & 3
    table.phis, table.shuffles = phis.T, shuffles.T


def _decode_phase(
    table: RoundTable, kept: np.ndarray, dishonest: int, rng: np.random.Generator
) -> np.ndarray:
    """Exchange decision angles and decode the ``kept`` rounds against their
    ``shuffle_sum``; a dishonest receiver (1-based, 0 for none) corrupts
    its report.

    Returns each distinct key of the chunk once, as uint8 rows over the
    kept rounds: Alice's sifted bits, the public (consensus) decode and,
    with a liar, the liar's own decode. A liar announces a corrupted angle
    but uses its true one, so only the victims end up with a wrong key:
    every other receiver holds the public one.
    """
    measured, shuffle_sum = table.sifted[kept], table.shuffle_sum[kept]
    consensus = true_decode = _decode(measured, shuffle_sum)
    if dishonest:
        # the liar raises its own shuffle, or Rec-1 its decision angle
        # (measured - s_1), which decodes as a lowered shuffle sum
        corruption = rng.integers(1, 4, size=len(kept))
        consensus = _decode(measured, shuffle_sum + (-corruption if dishonest == 1 else corruption))
    table.decoded = np.full(len(table), -1, dtype=np.int8)
    table.decoded[kept] = consensus
    keys = np.empty((3 if dishonest else 2, len(kept)), dtype=np.uint8)
    keys[0] = table.bit[kept]
    keys[1] = consensus // 2
    if dishonest:
        keys[2] = true_decode // 2
    return keys


def run_session(
    config: SimConfig, records: Callable[[RoundTable], object] | None = None
) -> SessionResult:
    """Run a full multi-round session and return keys plus statistics.

    Simulates the rounds through the ring in chunks (with the configured
    adversary attached to its channel hops), and sifts, decodes
    cooperatively and scores Eve on each chunk as it comes, keeping only
    its key rows and Eve's counts. Then it optionally reconciles and
    compresses, and cross-checks key digests; an empty final key aborts
    for retry. Every draw comes from ``config.seed``.

    ``records``, if given, is called with each finished chunk in round
    order: sifted, cut at the target, decoded, scored, with its secrets and,
    with ``trace``, its photon counts. No chunk is kept. The secrets are
    drawn behind each chunk's physics (``_draw_secrets``), from streams of
    their own, only where something reads them. Under ``pns`` Eve measures
    her stored photons on hop c at the ledger's polarization there, which
    reads theta and the first min(c - 1, N) receivers' secrets: those are
    drawn from her stream. ``records`` then read every secret, the rest
    drawn from theirs, so records move no other draw.

    When ``target_key_bits`` is positive, rounds repeat until that many
    sifted bits exist; otherwise exactly ``rounds`` rounds run. A target
    that even the honest keep rate cannot reach within the round cap is
    rejected before the first round. A target that an attack keeps out
    of reach fails once the cap is hit.
    """
    config.validate()
    n = config.receivers
    target = config.target_key_bits
    # Sifting keeps a round when the selected arm, which holds half of
    # the photons reaching Rec-1, is not empty. No attack raises that rate.
    mu_final = config.mean_photons * math.prod(share for _, share in _route(config))
    keep_rate = -math.expm1(-mu_final / 2.0)
    reachable = MAX_ROUNDS * keep_rate
    if target > reachable:
        raise ConfigError(
            "key_bits",
            f"{target} sifted bits need more than {MAX_ROUNDS} rounds"
            f" at the expected keep rate (about {reachable:.3g} bits reachable)",
        )
    rng = np.random.default_rng(config.seed)
    pns = config.adversary == "pns"
    if pns:  # Eve's fold on hop c reads theta and the first c - 1 receivers' turns
        eve_reads = min(config.pns_channel - 1, n)
        eve_secrets = np.random.default_rng(np.random.SeedSequence([config.seed, _EVE_SEED_SALT]))
    if records is not None:
        secrets = np.random.default_rng(np.random.SeedSequence([config.seed, _SECRETS_SEED_SALT]))

    key_rows = []
    eve_counts = np.zeros(3, dtype=np.int64)
    executed = kept_count = 0
    while kept_count < target if target else executed < config.rounds:
        size = config.rounds - executed
        if target:
            if executed >= MAX_ROUNDS:
                raise ConfigError(
                    "key_bits",
                    f"only {kept_count} of {target} sifted bits were kept within {MAX_ROUNDS}"
                    f" rounds: the keep rate fell below the honest {keep_rate:.3g}",
                )
            # the rounds expected to reach the rest of the target at the
            # honest keep rate, plus four standard deviations
            rest = target - kept_count
            size = math.ceil((rest + 4.0 * math.sqrt(rest * (1.0 - keep_rate))) / keep_rate)
            size = min(size, MAX_ROUNDS - executed)
        chunk = _run_round(min(size, _CHUNK_ROUNDS), config, rng)
        kept = sift(chunk)
        if target and len(kept) >= target - kept_count:
            # The simulator sees sift status before the parties learn it at
            # the basis announcement. Rounds are i.i.d., so cutting the
            # chunk where the target is reached is the same as stopping there.
            kept = kept[: target - kept_count]
            chunk = chunk.rows(0, kept[-1] + 1)
        if pns:  # Eve measures her stored photons at the polarization on her hop
            _draw_secrets(chunk, n, eve_secrets, eve_reads)
            chunk.eve_guess = adv.ml_single_photon_estimator(
                chunk.eve_event, next(islice(_polarizations(chunk), config.pns_channel - 1, None)),
                chunk.basis_choice, rng,
            )
        if records is not None:
            _draw_secrets(chunk, n, secrets)
        key_rows.append(_decode_phase(chunk, kept, config.dishonest_receiver, rng))
        if config.adversary != "none":
            eve_counts += _score_eve(config.adversary, chunk, kept)
        if records is not None:
            records(chunk)
        executed += len(chunk)
        kept_count += len(kept)
    keys = np.hstack(key_rows)
    del key_rows, chunk, kept  # gone before reconciliation reaches its peak
    qber = np.count_nonzero(keys[0] != keys[1]) / kept_count if kept_count else 0.0
    discard_fraction = 1.0 - kept_count / executed

    if config.parity_block > 0:
        pa_seed = (config.seed ^ _PA_SEED_SALT) & 0xFFFFFFFFFFFFFFFF
        keys = reconcile_and_amplify(keys, config.parity_block, pa_seed)
    held = [2 if i == config.dishonest_receiver else 1 for i in range(1, n + 1)]  # their rows
    finals = [row.tobytes() for row in keys]
    if not finals[0]:  # no key to share, whatever emptied it
        verdict = Verdict(VerdictKind.ABORT_RETRY)
    else:
        digests = [key_digest(key) for key in finals]
        verdict = integrity_check(digests[0], [digests[row] for row in held])

    return SessionResult(
        rounds_executed=executed,
        kept_rounds=kept_count,
        discard_fraction=discard_fraction,
        qber=float(qber),
        alice_final_key=finals[0],
        receiver_final_keys=[finals[row] for row in held],
        verdict=verdict,
        eve_summary=None if config.adversary == "none"
        else adv.EveSummary(config.adversary, *eve_counts.tolist()),
    )


def _score_eve(adversary: str, table: RoundTable, kept: np.ndarray) -> np.ndarray:
    """What Eve extracted from one chunk, granted the public announcements: the
    rounds she is scored on (the kept ones under ``tag``, every one otherwise),
    her recovered bits there and her events (surviving tags, stored photons or
    USD successes)."""
    if adversary == "tag":  # a surviving tag on a kept round reads the key angle, and the bit
        recovered = table.eve_event[kept]
    elif adversary == "pns":
        recovered = table.eve_guess == table.bit
    else:
        recovered = table.eve_event
    return np.array([len(recovered), np.count_nonzero(recovered), np.count_nonzero(table.eve_event)])
