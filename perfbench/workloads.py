"""The benchmark's workloads: their inputs, one operation each, and its correctness gates.

An operation is one ``run_session`` call (session workloads) or one
``monte_carlo_p_error`` batch (``mc_impersonate``). Operation ``i`` of a
run is seeded from the workload seed and ``i`` alone, so the same seed
gives the same inputs. Every operation passes exact checks; a run's
operations are then pooled for statistical checks against the paper's
closed forms.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from sqss import analysis, protocol
from sqss.config import SimConfig

# A correct engine fails a run's statistical gates less than once in this many runs.
FALSE_ALARM_RUNS = 10**6


def op_seed(seed: int, index: int) -> int:
    """Seed of operation ``index`` in a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def sigma_bound(gates: int) -> float:
    """Two-sided z bound that keeps ``gates`` independent gates' false alarms under 1/FALSE_ALARM_RUNS."""
    return statistics.NormalDist().inv_cdf(1.0 - 0.5 / (FALSE_ALARM_RUNS * gates))


@dataclass(slots=True)
class Op:
    """What the benchmark keeps of one operation."""

    index: int
    rounds: int  # protocol rounds, or Monte Carlo trials (one impersonation round each)
    key_bits: int  # final key bits, or Monte Carlo trials (one sifted bit each)
    digest: str
    problems: list[str]
    stats: dict[str, float] = field(default_factory=dict)
    # Operations of one stratum do the same work at the same speed: one mu*T of
    # the Monte Carlo grid. A session workload has a single stratum.
    stratum: float | None = None
    wall: float = 0.0  # wall seconds of the operation
    seconds: float = 0.0  # the same in reference seconds (run.py)


@dataclass(frozen=True)
class SessionWorkload:
    name: str
    config: SimConfig
    smoke_config: SimConfig

    def run(self, seed: int, index: int, smoke: bool = False):
        config = replace(self.smoke_config if smoke else self.config, seed=op_seed(seed, index))
        return config, protocol.run_session(config)

    def summarize(self, index: int, config: SimConfig, result) -> Op:
        problems = []
        if result.qber != 0.0:
            problems.append(f"qber {result.qber} on an honest ring")
        if any(key != result.alice_final_key for key in result.receiver_final_keys):
            problems.append("a receiver's final key differs from the sender's")
        if not result.verdict.accepted:
            problems.append(f"verdict {result.verdict.kind.value}")
        if not result.alice_final_key:
            problems.append("empty final key")
        if config.target_key_bits:
            if result.kept_rounds < config.target_key_bits:
                problems.append(f"kept {result.kept_rounds} < target {config.target_key_bits}")
        elif result.rounds_executed != config.rounds:
            problems.append(f"ran {result.rounds_executed} rounds, asked {config.rounds}")
        digest = hashlib.sha256(
            repr((result.rounds_executed, result.kept_rounds, result.alice_final_key)).encode()
        ).hexdigest()
        stats = {"discarded": result.rounds_executed - result.kept_rounds}
        if result.eve_summary is not None:
            stats["eve_correct"] = result.eve_summary.recovered_bits
        return Op(index, result.rounds_executed, len(result.alice_final_key), digest, problems, stats)

    def pooled(self, ops: list[Op]) -> tuple[list[str], dict[str, float]]:
        """Statistical gates over a run's independent operations, plus info values."""
        rounds = sum(op.rounds for op in ops)
        discarded = sum(op.stats["discarded"] for op in ops)
        config = self.config
        hop_t = config.hop_transmissions()
        problems: list[str] = []
        info: dict[str, float] = {"pooled_rounds": rounds}
        if config.adversary == "none":
            mu_final = config.mean_photons * config.bs_ratio * math.prod(hop_t)
            expected = math.exp(-mu_final / 2.0)
            gap = _sigma_gap(discarded / rounds, expected, rounds)
            info["discard_gap_sigma"] = gap
            if gap > sigma_bound(1):
                problems.append(f"discard fraction {gap:.2f} sigma from exp(-mu_final/2)")
        elif config.adversary == "pns":
            accuracy = sum(op.stats["eve_correct"] for op in ops) / rounds
            gap = _sigma_gap(accuracy, 0.5, rounds)
            info["eve_accuracy_gap_sigma"] = gap
            if gap > sigma_bound(1):
                problems.append(f"Eve guess accuracy {accuracy:.4f} is {gap:.2f} sigma from 1/2")
            # Not gated: the implementation re-draws the photon count of a pulse
            # Eve counted below two photons, so this gap is a known defect.
            expected = pns_discard_oracle(config)
            info["pns_discard_gap_sigma"] = _sigma_gap(discarded / rounds, expected, rounds)
        return problems, info


@dataclass(frozen=True)
class McWorkload:
    name: str
    grid: tuple[float, ...]
    trials: int
    smoke_trials: int

    def run(self, seed: int, index: int, smoke: bool = False):
        mu_t = self.grid[index % len(self.grid)]
        rng = np.random.default_rng(op_seed(seed, index))
        trials = self.smoke_trials if smoke else self.trials
        return (mu_t, trials), analysis.monte_carlo_p_error(mu_t, 1.0, trials, rng)

    def summarize(self, index: int, spec, estimate) -> Op:
        mu_t, trials = spec
        problems = []
        errors = round(estimate.mean * estimate.trials)
        if estimate.trials != trials:
            problems.append(f"ran {estimate.trials} trials, asked {trials}")
        if not 0 <= errors <= estimate.trials or abs(errors - estimate.mean * estimate.trials) > 1e-6:
            problems.append(f"mean {estimate.mean} is not a count over {estimate.trials} trials")
        digest = hashlib.sha256(repr((mu_t, estimate.trials, estimate.mean)).encode()).hexdigest()
        return Op(index, estimate.trials, estimate.trials, digest, problems,
                  {"errors": errors}, stratum=mu_t)

    def pooled(self, ops: list[Op]) -> tuple[list[str], dict[str, float]]:
        problems: list[str] = []
        info: dict[str, float] = {}
        bound = sigma_bound(len(self.grid))
        for mu_t in self.grid:
            group = [op for op in ops if op.stratum == mu_t]
            if not group:
                continue
            trials = sum(op.rounds for op in group)
            rate = sum(op.stats["errors"] for op in group) / trials
            gap = _sigma_gap(rate, analysis.p_error_closed_form(mu_t, 1.0), trials)
            info[f"p_error_gap_sigma_mu_t_{mu_t}"] = gap
            if gap > bound:
                problems.append(f"p_error at mu*T={mu_t} is {gap:.2f} sigma from the closed form")
        return problems, info


def _sigma_gap(observed: float, expected: float, n: int) -> float:
    return abs(observed - expected) / math.sqrt(expected * (1.0 - expected) / n)


def pns_discard_oracle(config: SimConfig) -> float:
    """Vacuum-discard fraction under PNS when Eve's photon count is carried on.

    The pulse reaching Eve's hop holds n ~ Poisson(lam) photons; she keeps
    one when n >= 2. Each remaining photon reaches Rec-1 with probability
    q and lands in the sifted arm with probability 1/2, so the sifted arm
    is empty with probability (1 - q/2)**m for the m photons she forwards.
    """
    hop_t = config.hop_transmissions()
    c = config.pns_channel
    lam = config.mean_photons * math.prod(hop_t[:c])
    q = config.bs_ratio * math.prod(hop_t[c:])
    cutoff = int(lam + 20.0 * math.sqrt(lam) + 20.0)
    return sum(
        analysis.poisson_pmf(n, lam) * (1.0 - q / 2.0) ** (n - 1 if n >= 2 else n)
        for n in range(cutoff + 1)
    )


# Sizes are workload definitions: later changes must not alter them.
WORKLOADS = {
    w.name: w
    for w in (
        SessionWorkload(
            "keybits_n2",
            SimConfig(receivers=2, mean_photons=6.0, target_key_bits=4000, parity_block=8),
            SimConfig(receivers=2, mean_photons=6.0, target_key_bits=200, parity_block=8),
        ),
        SessionWorkload(
            "pns_n5_lossy",
            SimConfig(receivers=5, mean_photons=6.0, transmission=0.9, adversary="pns",
                      pns_channel=1, parity_block=8, rounds=2000),
            SimConfig(receivers=5, mean_photons=6.0, transmission=0.9, adversary="pns",
                      pns_channel=1, parity_block=8, rounds=200),
        ),
        McWorkload("mc_impersonate", grid=(0.5, 1.0, 3.0, 6.0), trials=100_000, smoke_trials=10_000),
    )
}
