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

The round engine's light is the law of each pulse's photon count. No
observer changes a polarization, so a pulse's polarization after any
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
the ring's last), drawn like every draw of the session from its one
generator; the records read the others, drawn from a stream of their
own, so they never move a draw of the session.

No photon count is drawn: Eve's PNS hop reads her event from one uniform
(``adversary.pns_intercept``), and Rec-1 draws one uniform per round
against the law of what reaches its splitter: the coherent pulse of mean
lambda q (``optics.coherent_dark``), or under ``pns`` the share q of what
Eve forwards (``adversary.pns_dark``). Sifting reads only the arm it
keeps from it: the definite one with one comparison
(``optics.rec1_definite``), or, under impersonation, where Eve's offset
can make it the split one, both arms (``optics.rec1_measure``). The
records rank both arms from the same uniforms behind the chunk, and the
trace is drawn behind it from the records' stream, given what Rec-1 read
(``_draw_trace``), so neither moves another draw.
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
    AMBIGUOUS,
    QUARTER_TURN,
    VACUUM,
    coherent_dark,
    rec1_definite,
    rec1_measure,
    rotate,
    uniform_z4,
)

# Fraction of surviving bits kept by privacy amplification; public constant.
PA_COMPRESSION = 0.5
# Public salt separating the records' stream of the parties' secrets from the physics.
_SECRETS_SEED_SALT = 0x7265636F726473

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
    unless Eve (``pns``, from the session's draws) or the records read them;
    without records, ``phis`` and ``shuffles`` end at the receivers Eve passed
    (None where she passed none). ``rec1_uniform`` is Rec-1's uniform per
    round, kept past sifting only for the records to rank (None in the table
    they get). Sifting fills in ``sifted``, the code of the arm it keeps. Only
    for the records, ``decoded`` holds each round's consensus key angle, or -1
    where sifting dropped it. Both arms' detector outcome codes
    (``optics``), ``rect`` and ``diag``, are ranked from the same uniforms
    behind the chunk: they are None unless the records read them. With
    ``trace`` the records also get each round's photon count after each of
    ``trace_stages``, drawn behind the chunk (``_draw_trace``); its
    polarization there is the ledger's fold.
    """

    shuffle_sum: np.ndarray  # int8
    basis_choice: np.ndarray
    bit: np.ndarray
    theta: np.ndarray | None = None
    phis: np.ndarray | None = None  # (rounds, receivers)
    shuffles: np.ndarray | None = None  # (rounds, receivers), quarter turns
    rec1_uniform: np.ndarray | None = None
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
        columns = (getattr(self, name) for name in _TABLE_FIELDS)
        return RoundTable(*(c[start:stop] if isinstance(c, np.ndarray) else c for c in columns))


# RoundTable's field names in order, read once rather than on every cut
_TABLE_FIELDS = tuple(field.name for field in fields(RoundTable))


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
    a reader that stops early computes no later rotation, and one that
    reads theta alone needs no receiver's secrets.
    """

    def turns() -> Iterator[np.ndarray]:
        n = table.phis.shape[1]
        for i in range(n):
            yield table.phis[:, i] + table.shuffles[:, i] * QUARTER_TURN
        yield _key_angle(table.bit, table.basis_choice) * QUARTER_TURN - table.theta
        if table.eve_offset is not None:
            yield table.eve_offset * QUARTER_TURN
        for i in reversed(range(n)):
            yield -table.phis[:, i]

    return accumulate(turns(), rotate, initial=table.theta)


def sift(table: RoundTable, dark: np.ndarray, column: np.ndarray) -> np.ndarray:
    """Read the basis-matching arm per round and drop unusable rounds.

    The actual basis of the measured angle follows from the announced
    family j and the parity of the round's ``shuffle_sum``. Rec-1's
    definite arm has the basis of the angle it receives, which differs
    only by Eve's offset under impersonation: without one the matching arm
    is the definite one, read from each round's ``rec1_uniform`` in Rec-1's
    law (``dark`` and ``column``) with one comparison. An odd offset makes
    it the split one, so a table with offsets ranks both arms. Rounds whose
    matching arm reported vacuum or conflicting clicks are discarded.
    Stores that arm's outcome in ``table.sifted`` (the measured angle of
    a kept round) and returns the indices of the kept rounds.
    """
    arrived, u = _arrived(table), table.rec1_uniform
    if table.eve_offset is None:
        table.sifted = rec1_definite(arrived, dark, column, u)
    else:
        even = ((table.basis_choice - 1 + table.shuffle_sum) & 1) == 0
        rect, diag = rec1_measure(arrived, dark, column, u)
        table.sifted = diag + (rect - diag) * even  # np.where is several times slower here
    return np.flatnonzero(table.sifted < VACUUM)


def _fft_length(m: int) -> int:
    """The smallest 2**a * 3**b >= m, a length numpy's FFT transforms quickly."""
    best, power3 = 1 << (m - 1).bit_length(), 3
    while power3 < best:
        best = min(best, power3 << (-(-m // power3) - 1).bit_length())
        power3 *= 3
    return best


def toeplitz_compress(
    bits: ArrayLike, out_len: int, hash_seed: int | np.random.Generator
) -> np.ndarray:
    """2-universal compression by the modified Toeplitz family [I | T] over GF(2).

    ``bits`` is one key of n bits, or an (n, keys) array whose columns are
    keys hashed by the same matrix. With m = ``out_len``, a key x = (x1, x2)
    of head x1 (m bits) and tail x2 (n - m bits) hashes to x1 xor T x2,
    where T is the m x (n - m) Toeplitz matrix drawn from n - 1 public bits
    (Hayashi and Tsurumaru, IEEE Trans. Inf. Theory 62(4), 2016). Bit i is
    the low bit of byte i of the next ceil((n - 1) / 8) raw 64-bit words of
    ``default_rng(hash_seed)``, a generator itself if given one, read
    little-endian on every host (``optics.uniform_z4``); m = 0 or n draws
    none. Distinct keys collide with probability 2**-m over T: keys that
    differ only in the head never collide, and for any nonzero tail T x2 is
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
    diag = uniform_z4(n - 1, np.random.default_rng(hash_seed)) & 1
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
    of every bit whose block holds an even number of disagreements; equal
    keys return every index before any block is reduced. The temporaries
    take 1 byte per bit.
    """
    n = len(key_a)
    if n != len(key_b):
        raise ValueError("keys must have equal length")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    width = min(block_size, n) or 1  # a block longer than the keys is the whole key
    flips = np.zeros((-(-n // width), width), dtype=bool)  # a zero-padded tail flips nothing
    np.not_equal(key_a, key_b, out=flips.reshape(-1)[:n])
    if not flips.any():  # equal keys keep every block
        return np.arange(n, dtype=np.intp)
    kept = ~np.logical_xor.reduce(flips, axis=1)
    return np.flatnonzero(np.repeat(kept, width)[:n])


def reconcile_and_amplify(
    keys: ArrayLike, block_size: int, hash_seed: int | np.random.Generator = 0
) -> np.ndarray:
    """Block-parity reconciliation followed by Toeplitz privacy amplification.

    ``keys`` holds one key per row, and its distinct rows are found first:
    one matrix maps equal rows to equal outputs, so each is hashed once.
    Blocks whose public parities disagree between rows 0 and 1 are
    discarded; where those rows are equal no block disagrees, and no
    parity is computed. The surviving positions of every distinct row are
    compressed to half length by one shared, public 2-universal hash drawn
    from ``hash_seed`` (``toeplitz_compress``); when every block survives,
    no column is gathered. Returns the compressed rows, one per row of
    ``keys``, empty when too few bits survive to give any key.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    keys = np.asarray(keys, dtype=np.uint8)
    slots: dict[bytes, int] = {}
    slot = [slots.setdefault(row.tobytes(), len(slots)) for row in keys]
    rows = keys[[slot.index(s) for s in range(len(slots))]]
    del slots  # the rows' bytes go before the hash's peak
    if slot[1] != slot[0]:  # equal keys have no disagreeing block
        survivors = parity_survivor_indices(keys[0], keys[1], block_size)
        if len(survivors) < keys.shape[1]:
            rows = np.take(rows, survivors, axis=1)
        del survivors  # the indices go before the hash's peak
    out_len = int(rows.shape[1] * PA_COMPRESSION)
    return toeplitz_compress(rows.T, out_len, hash_seed).T[slot]


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


def _light(config: SimConfig) -> tuple[tuple, tuple, int, float, float]:
    """The route's steps and shares, the steps up to Eve's PNS hop (0 without
    her), the mean photon number there and the share q of it that reaches Rec-1."""
    steps, shares = zip(*_route(config))
    hop = steps.index(config.pns_channel) + 1 if config.adversary == "pns" else 0
    lam = config.mean_photons * math.prod(shares[:hop])
    return steps, shares, hop, lam, math.prod(shares[hop:])


def _arrived(table: RoundTable) -> np.ndarray:
    """Rec-1's angle in quarter turns: key angle + shuffles + Eve's offset."""
    arrived = _key_angle(table.bit, table.basis_choice)
    arrived += table.shuffle_sum
    if table.eve_offset is not None:
        arrived += table.eve_offset
    arrived &= 3
    return arrived


def _run_round(size: int, config: SimConfig, rng: np.random.Generator, mean: float) -> RoundTable:
    """Simulate ``size`` independent rounds at once into one table.

    One value on Z4 per round gives Alice's bit and basis, two fair bits;
    another gives the shuffles' sum S, the only secret the light carries to
    Rec-1, sifting and the decode (S is uniform on Z4 like each shuffle).
    Both rows come from one ``optics.uniform_z4`` draw.
    Eve's tag, USD or PNS event (on pulses of ``mean`` photons) follows;
    under impersonation her guess offset is the ``eve_offset`` column.
    Rec-1 then draws one uniform per round (``rec1_uniform``) and no count:
    sifting reads it against the law of the light at Rec-1's splitter.
    """
    z4 = uniform_z4((2, size), rng)
    bit, basis = z4[0] & 1, (z4[0] >> 1) + 1
    table = RoundTable(z4[1], basis, bit)
    if config.adversary == "tag":
        table.eve_event = adv.tag_attack_rounds(size, config.bs_ratio, rng)
    elif config.adversary == "impersonate":
        # Eve keeps Alice's encoded pulse and discriminates it, then
        # re-encodes her result onto the substitute pulse the receivers
        # actually process; in angle bookkeeping the substitute is the
        # honest pulse shifted by her guess error.
        table.eve_offset, table.eve_event = adv.impersonate_rounds(adv.intercepted_mean(
            config.mean_photons, config.bs_ratio, config.hop_transmission()), size, rng)
    elif config.adversary == "pns":  # Eve's reading of the pulse on her hop
        table.eve_event = adv.pns_intercept(mean, size, rng)
    table.rec1_uniform = rng.random(size)
    return table


def _truncated_exp(rate, u: np.ndarray) -> np.ndarray:
    """At uniforms ``u`` (overwritten), the inverse CDF of e^(-rate t) on [0, 1]."""
    return np.minimum(np.divide(-np.log1p(u * np.expm1(-rate)), rate, out=u, where=rate > 0), 1.0)


def _time_left(rate: np.ndarray, lit: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The time s left after Eve's first photon where she kept one of two or
    more: density on [0, 1] proportional to e^(kappa s) times 1 - e^(-a s) for
    each ``lit`` row's ``rate`` a (Rec-1's three detectors, then the loss),
    kappa the rate of the lit detectors and the loss. M, the latest of
    truncated Exp(a) draws, is kept with probability (1 - e^(-kappa (1 - M))) /
    (1 - e^(-kappa)), so a try succeeds one time in four or more, and s is
    drawn on [M, 1] with density proportional to e^(kappa s)."""
    kappa = rate[3] + (rate[:3] * lit[:3]).sum(axis=0)
    s, todo = np.empty(len(kappa)), np.arange(len(kappa))
    while len(todo):
        u = _truncated_exp(rate, rng.random((4, len(todo))))
        k, w = kappa[todo], 1.0 - np.where(lit[:, todo], u, 0.0).max(axis=0)
        ok = rng.random(len(todo)) * -np.expm1(-k) <= -np.expm1(-k * w)
        s[todo] = 1.0 - w * _truncated_exp(k * w, rng.random(len(todo)))  # the rest try again
        todo = todo[~ok]
    return s


def _draw_trace(table: RoundTable, config: SimConfig, rng: np.random.Generator) -> None:
    """Draw each round's photon count after every stage (``trace_photons``)
    behind the chunk, from its exact law given Eve's event and the detectors
    Rec-1 lit (its ranked arms, ``rect`` and ``diag``), which take 1/2, 1/4
    and 1/4 of the photons at its splitter.
    Photons are routed independently (Poisson splitting): a lit detector holds
    a zero-truncated Poisson count, a dark one none, each loss is Poisson.
    Eve's count n >= 2 forwards the photons after her first over the time s
    left (``_time_left``); n <= 1 forwards n, which is 1 where a detector lit,
    and with probability r / (1 + r), r = lam (1 - q), where none did. A stage
    counts the photons at the splitter (before her hop, n) plus those lost
    behind it, each pool of lost photons split over the stretches between
    stages by binomial thinning (``thin_batch``)."""
    steps, shares, hop, lam, q = _light(config)
    size = len(table)
    flip = (table.diag - table.rect) * (_arrived(table) & 1)  # np.where is slower on int8
    definite, other = table.rect + flip, table.diag - flip
    stored = table.eve_event if hop else np.zeros(size, dtype=bool)
    lit = np.array([definite != VACUUM, other != VACUUM, other == AMBIGUOUS])
    lit = np.vstack((lit, stored & ~lit.any(axis=0)))  # her forwarded photons all lost
    rate = lam * np.array([[q / 2], [q / 4], [q / 4], [1.0 - q]])
    s = np.full(size, 0.0 if hop else 1.0)
    s[stored] = _time_left(rate, lit[:, stored], rng)
    # zero-truncated: the first arrival t by inverse CDF, then 1 + Poisson(m (1 - t))
    m, photons = (rate * s)[lit], np.zeros((4, size), dtype=np.int64)
    photons[lit] = 1 + rng.poisson(np.maximum(m + np.log1p(rng.random(len(m)) * np.expm1(-m)), 0))
    photons[3] = np.where(lit[3], photons[3], rng.poisson(rate[3] * s))  # the lost photons
    if hop:
        photons[3] += ~stored & ~lit.any(axis=0) & (rng.random(size) * (1.0 + rate[3]) < rate[3])
    table.trace_stages = tuple(step for step in steps if isinstance(step, str))
    table.trace_photons = np.empty((size, len(table.trace_stages)), dtype=np.int64)
    upstream = rng.poisson(config.mean_photons - lam, size)
    for lo, hi, held, pool in ((0, hop, photons.sum(axis=0) + stored, upstream),
                               (hop, len(steps), photons[:3].sum(axis=0), photons[3])):
        before, end = 1.0, math.prod(shares[lo:hi])
        for step, p in zip(steps[lo:hi], np.cumprod(shares[lo:hi])):
            if isinstance(step, str):  # the pool's photons still to be lost
                pool = thin_batch(pool, (p - end) / (before - end), rng) if p > end else 0 * pool
                table.trace_photons[:, table.trace_stages.index(step)] = held + pool
                before = p


def _draw_secrets(
    table: RoundTable, receivers: int, rng: np.random.Generator, upto: int | None = None
) -> None:
    """Fill in the secrets behind the table's shuffle sums that are not drawn
    yet, up to receiver ``upto`` (all ``receivers`` by default): theta, then
    each phi_i and s_i in receiver order, from their exact law given those
    sums, from ``rng``: the session's generator for Eve, else the records' stream.

    Theta and the phi_i are independent of everything else: uniforms on
    [0, pi). N independent uniform shuffles conditioned on their sum S
    are any N - 1 of them i.i.d. uniform on Z4 (``optics.uniform_z4``)
    and the last one completing the sum mod 4. So shuffles drawn short of
    receiver N are free, and a draw that reaches it completes the sum with
    the first shuffle it draws: s_1 when it draws them all.
    """
    size, start = len(table), 0 if table.phis is None else table.phis.shape[1]
    width = (receivers if upto is None else upto) - start
    if table.theta is None:
        table.theta = rng.random(size) * math.pi
    if not width:  # no receiver's secrets left to draw
        return
    phis = rng.random((width, size))
    phis *= math.pi
    shuffles = uniform_z4((width, size), rng)
    if start:  # behind the receivers drawn before
        phis, shuffles = np.vstack((table.phis.T, phis)), np.vstack((table.shuffles.T, shuffles))
    if start + width == receivers:  # the first shuffle drawn here completes the sum
        shuffles[start] = 0
        shuffles[start] = (table.shuffle_sum - shuffles.sum(axis=0, dtype=np.int8)) & 3
    table.phis, table.shuffles = phis.T, shuffles.T


def _decode_phase(
    table: RoundTable, kept: np.ndarray, dishonest: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Exchange decision angles and decode the ``kept`` rounds against their
    ``shuffle_sum``; a dishonest receiver (1-based, 0 for none) corrupts
    its report.

    Returns the chunk's keys, as uint8 rows over the kept rounds: Alice's
    sifted bits, the public (consensus) decode and, with a liar, the liar's
    own decode; and the consensus key angle of each kept round, which only
    the records read (``RoundTable.decoded``). A liar announces a corrupted
    angle but uses its true one, so only the victims end up with a wrong
    key: every other receiver holds the public one.
    """
    measured, shuffle_sum = table.sifted[kept], table.shuffle_sum[kept]
    consensus = true_decode = _decode(measured, shuffle_sum)
    if dishonest:
        # the liar raises its own shuffle, or Rec-1 its decision angle
        # (measured - s_1), which decodes as a lowered shuffle sum
        corruption = rng.integers(1, 4, size=len(kept))
        consensus = _decode(measured, shuffle_sum + (-corruption if dishonest == 1 else corruption))
    keys = np.empty((3 if dishonest else 2, len(kept)), dtype=np.uint8)
    keys[0] = table.bit[kept]
    keys[1] = consensus // 2
    if dishonest:
        keys[2] = true_decode // 2
    return keys, consensus


def run_session(
    config: SimConfig, records: Callable[[RoundTable], object] | None = None
) -> SessionResult:
    """Run a full multi-round session and return keys plus statistics.

    Simulates the rounds through the ring in chunks (with the configured
    adversary attached to its channel hops), and sifts, decodes
    cooperatively and scores Eve on each chunk as it comes, keeping only
    its key rows and Eve's counts. Then it optionally reconciles and
    compresses, and cross-checks key digests; an empty final key aborts
    for retry. Every draw comes from one generator, seeded by ``config.seed``.

    ``records``, if given, is called with each finished chunk in round
    order: sifted, cut at the target, decoded and scored, then with both of
    Rec-1's arms ranked from the uniforms sifting read, its secrets and,
    with ``trace``, its photon counts. No chunk is kept. The secrets are
    drawn behind each chunk's physics (``_draw_secrets``), only where
    something reads them. Under ``pns`` Eve measures her stored photons on
    hop c at the ledger's polarization there, which reads theta and the
    first min(c - 1, N) receivers' secrets, drawn from the session's
    generator. ``records`` then read every secret, the rest and the trace
    drawn from a stream of their own, so records move no other draw.

    When ``target_key_bits`` is positive, rounds repeat until that many
    sifted bits exist; otherwise exactly ``rounds`` rounds run. A target
    that even the honest keep rate cannot reach within the round cap is
    rejected before the first round. A target that an attack keeps out
    of reach fails once the cap is hit.
    """
    config.validate()
    n = config.receivers
    target = config.target_key_bits
    # Sifting keeps a round when the selected arm, which holds half of the
    # lam * q photons reaching Rec-1, is not empty. No attack raises that rate.
    _, _, hop, lam, q = _light(config)
    keep_rate = -math.expm1(-lam * q / 2.0)
    reachable = MAX_ROUNDS * keep_rate
    if target > reachable:
        raise ConfigError(
            "key_bits",
            f"{target} sifted bits need more than {MAX_ROUNDS} rounds"
            f" at the expected keep rate (about {reachable:.3g} bits reachable)",
        )
    rng = np.random.default_rng(config.seed)
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
        chunk = _run_round(min(size, _CHUNK_ROUNDS), config, rng, lam)
        dark, column = adv.pns_dark(lam, q, chunk.eve_event) if hop else coherent_dark(lam * q)
        kept = sift(chunk, dark, column)
        if records is None:  # read: gone before Eve's estimator and the decode
            chunk.rec1_uniform = None
        if target and len(kept) >= target - kept_count:
            # The simulator sees sift status before the parties learn it at
            # the basis announcement. Rounds are i.i.d., so cutting the
            # chunk where the target is reached is the same as stopping there.
            kept = kept[: target - kept_count]
            chunk = chunk.rows(0, kept[-1] + 1)
        if hop:  # Eve measures her stored photons at the polarization on her hop
            _draw_secrets(chunk, n, rng, min(config.pns_channel - 1, n))
            chunk.eve_guess = adv.ml_single_photon_estimator(
                chunk.eve_event, next(islice(_polarizations(chunk), config.pns_channel - 1, None)),
                chunk.basis_choice, rng,
            )
        keys, consensus = _decode_phase(chunk, kept, config.dishonest_receiver, rng)
        key_rows.append(keys)
        if config.adversary != "none":
            eve_counts += _score_eve(config.adversary, chunk, kept)
        if records is not None:  # both arms, ranked from the uniforms sifting read
            chunk.decoded = np.full(len(chunk), -1, dtype=np.int8)
            chunk.decoded[kept] = consensus
            chunk.rect, chunk.diag = rec1_measure(
                _arrived(chunk), dark, column[: len(chunk)], chunk.rec1_uniform)
            _draw_secrets(chunk, n, secrets)
            if config.trace:
                _draw_trace(chunk, config, secrets)
            chunk.rec1_uniform = None  # read
            records(chunk)
        executed += len(chunk)
        kept_count += len(kept)
    keys = key_rows[0] if len(key_rows) == 1 else np.hstack(key_rows)
    del key_rows, chunk, kept, consensus  # gone before reconciliation reaches its peak
    qber = np.count_nonzero(keys[0] != keys[1]) / kept_count if kept_count else 0.0
    discard_fraction = 1.0 - kept_count / executed

    if config.parity_block > 0:
        keys = reconcile_and_amplify(keys, config.parity_block, rng)
    held = [2 if i == config.dishonest_receiver else 1 for i in range(1, n + 1)]  # their rows
    finals = [row.tobytes() for row in keys]
    if not finals[0]:  # no key to share, whatever emptied it
        verdict = Verdict(VerdictKind.ABORT_RETRY)
    else:  # each distinct key digested once: on an honest ring Alice's is the public one
        digests = {key: key_digest(key) for key in dict.fromkeys(finals)}
        verdict = integrity_check(digests[finals[0]], [digests[finals[row]] for row in held])

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
