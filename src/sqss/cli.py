"""Command-line front end: sessions, curves, decode table, attack experiments.

Four subcommands cover the toolkit: ``simulate`` runs a configured
session and reports key statistics, ``curve`` tabulates the closed-form
error-rate curve, ``table`` prints the cooperative decode table, and
``attack`` measures an eavesdropping strategy against its reference
value. All output is deterministic for a fixed seed and configuration;
floats are rendered with repr so CSV files parse back losslessly.

Exit codes: 0 accept/success, 2 abort-and-retry verdict, 3 dishonest
receiver flagged, 64 configuration or I/O diagnostics.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import analysis, protocol
from .adversary import intercepted_mean
from .config import ConfigError, SimConfig, apply_overrides, load_config
from .optics import DecisionAngle, MeasurementOutcome, OutcomeKind

EXIT_ACCEPT = 0
EXIT_ABORT_RETRY = 2
EXIT_DISHONEST = 3
EXIT_CONFIG = 64

_ROUND_COLUMNS = (
    "index,theta,phis,shuffles,basis_choice,bit,key_angle,rect_outcome,"
    "diag_outcome,status,measured_angle,decoded_angle,decoded_bit,trace"
)


@dataclass(frozen=True, slots=True)
class AttackSummary:
    strategy: str
    trials: int
    metric: str
    value: float
    std_error: float
    reference: float


def _fmt(value: float) -> str:
    return repr(float(value))


def _encode_outcome(outcome: MeasurementOutcome) -> str:
    if outcome.kind is OutcomeKind.ANGLE:
        return f"angle:{outcome.angle.quarter_turns}"
    return outcome.kind.value


def _decode_outcome(text: str) -> MeasurementOutcome:
    if text.startswith("angle:"):
        return MeasurementOutcome.of_angle(DecisionAngle(int(text.split(":", 1)[1])))
    if text == OutcomeKind.VACUUM.value:
        return MeasurementOutcome.vacuum()
    if text == OutcomeKind.AMBIGUOUS.value:
        return MeasurementOutcome.ambiguous()
    raise ValueError(f"unknown outcome encoding '{text}'")


def round_records_to_csv(records: Sequence[protocol.RoundRecord]) -> str:
    """Render round records to CSV; every field survives a parse round trip."""
    lines = [_ROUND_COLUMNS]
    for r in records:
        trace = ""
        if r.trace is not None:
            trace = "|".join(
                f"{s.stage}:{s.photons}:{_fmt(s.polarization)}" for s in r.trace
            )
        lines.append(
            ",".join(
                (
                    str(r.index),
                    _fmt(r.theta),
                    ";".join(_fmt(p) for p in r.phis),
                    ";".join(str(s) for s in r.shuffles),
                    str(r.basis_choice),
                    str(r.bit),
                    str(r.key_angle),
                    _encode_outcome(r.rect_outcome),
                    _encode_outcome(r.diag_outcome),
                    r.status.value if r.status is not None else "",
                    "" if r.measured_angle is None else str(r.measured_angle),
                    "" if r.decoded_angle is None else str(r.decoded_angle),
                    "" if r.decoded_bit is None else str(r.decoded_bit),
                    trace,
                )
            )
        )
    return "\n".join(lines) + "\n"


def round_records_from_csv(text: str) -> list[protocol.RoundRecord]:
    lines = text.strip().split("\n")
    if lines[0] != _ROUND_COLUMNS:
        raise ValueError("unrecognized round CSV header")
    records = []
    for line in lines[1:]:
        (idx, theta, phis, shuffles, j, bit, key_angle, rect, diag, status,
         measured, decoded, decoded_bit, trace) = line.split(",")
        snapshots = None
        if trace:
            snapshots = tuple(
                protocol.PulseSnapshot(stage, int(photons), float(pol))
                for stage, photons, pol in (part.split(":") for part in trace.split("|"))
            )
        records.append(
            protocol.RoundRecord(
                index=int(idx),
                theta=float(theta),
                phis=tuple(float(p) for p in phis.split(";")) if phis else (),
                shuffles=tuple(int(s) for s in shuffles.split(";")) if shuffles else (),
                basis_choice=int(j),
                bit=int(bit),
                key_angle=int(key_angle),
                rect_outcome=_decode_outcome(rect),
                diag_outcome=_decode_outcome(diag),
                status=protocol.SiftStatus(status) if status else None,
                measured_angle=int(measured) if measured else None,
                decoded_angle=int(decoded) if decoded else None,
                decoded_bit=int(decoded_bit) if decoded_bit else None,
                trace=snapshots,
            )
        )
    return records


def curve_points_to_csv(points: Sequence[analysis.ErrorCurvePoint]) -> str:
    lines = ["mu_t,p_e,p_error"]
    lines.extend(f"{_fmt(p.mu_t)},{_fmt(p.p_e)},{_fmt(p.p_error)}" for p in points)
    return "\n".join(lines) + "\n"


def curve_points_from_csv(text: str) -> list[analysis.ErrorCurvePoint]:
    lines = text.strip().split("\n")
    if lines[0] != "mu_t,p_e,p_error":
        raise ValueError("unrecognized curve CSV header")
    points = []
    for line in lines[1:]:
        mu_t, p_e, p_error = (float(v) for v in line.split(","))
        points.append(analysis.ErrorCurvePoint(mu_t=mu_t, p_e=p_e, p_error=p_error))
    return points


def attack_summary_to_csv(summary: AttackSummary) -> str:
    return (
        "strategy,trials,metric,value,std_error,reference\n"
        f"{summary.strategy},{summary.trials},{summary.metric},"
        f"{_fmt(summary.value)},{_fmt(summary.std_error)},{_fmt(summary.reference)}\n"
    )


def attack_summary_from_csv(text: str) -> AttackSummary:
    lines = text.strip().split("\n")
    if lines[0] != "strategy,trials,metric,value,std_error,reference":
        raise ValueError("unrecognized attack CSV header")
    strategy, trials, metric, value, std_error, reference = lines[1].split(",")
    return AttackSummary(
        strategy=strategy,
        trials=int(trials),
        metric=metric,
        value=float(value),
        std_error=float(std_error),
        reference=float(reference),
    )


def _load_effective_config(args: argparse.Namespace) -> SimConfig:
    config = load_config(args.config) if args.config else SimConfig()
    if args.override:
        config = apply_overrides(config, args.override)
    if args.seed is not None:
        config.seed = args.seed
    return config


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_effective_config(args)
    if getattr(args, "trace", False):
        config.trace = True
    config.validate()
    result = protocol.run_session(config)

    lines = [
        f"rounds={result.rounds_executed}",
        f"kept={result.kept_rounds}",
        f"discard_fraction={_fmt(result.discard_fraction)}",
        f"qber={_fmt(result.qber)}",
        f"final_key_bits={len(result.alice_final_key)}",
        f"verdict={result.verdict.kind.value}",
    ]
    if result.verdict.flagged_receiver is not None:
        lines.append(f"flagged_receiver={result.verdict.flagged_receiver}")
    lines.append(f"alice_key_sha256={protocol.key_digest(result.alice_final_key)}")
    for i, key in enumerate(result.receiver_final_keys, start=1):
        lines.append(f"rec{i}_key_sha256={protocol.key_digest(key)}")
    if result.eve_summary is not None:
        s = result.eve_summary
        lines.append(f"eve_strategy={s.strategy}")
        lines.append(f"eve_recovered_bits={s.recovered_bits}")
        for label, value in (
            ("eve_recovery_rate", s.recovery_rate),
            ("eve_guess_accuracy", s.guess_accuracy),
            ("eve_usd_success_rate", s.usd_success_rate),
        ):
            if value is not None:
                lines.append(f"{label}={_fmt(value)}")
    print("\n".join(lines))

    if args.out:
        Path(args.out).write_text(round_records_to_csv(result.records), encoding="utf-8")

    if result.verdict.kind is protocol.VerdictKind.ABORT_RETRY:
        return EXIT_ABORT_RETRY
    if result.verdict.kind is protocol.VerdictKind.DISHONEST:
        return EXIT_DISHONEST
    return EXIT_ACCEPT


def cmd_curve(args: argparse.Namespace) -> int:
    if args.step <= 0.0:
        raise ConfigError("step", f"must be > 0, got {args.step}")
    if args.stop < args.start or args.start < 0.0:
        raise ConfigError("range", f"need 0 <= start <= stop, got [{args.start}, {args.stop}]")
    count = int(math.floor((args.stop - args.start) / args.step + 1e-9)) + 1
    # round away step-accumulation noise so grid values print cleanly
    values = [round(args.start + i * args.step, 10) for i in range(count)]
    text = curve_points_to_csv(analysis.error_curve(values))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_ACCEPT


def cmd_table(args: argparse.Namespace) -> int:
    order = (0, 2, 1, 3)
    table = protocol.decode_table(order)
    labels = [DecisionAngle(q).label for q in order]
    width = 6
    header = "rec2\\rec1".ljust(10) + "".join(lbl.rjust(width) for lbl in labels)
    print(header)
    for row_label, row in zip(labels, table):
        print(row_label.ljust(10) + "".join(entry.label.rjust(width) for entry in row))
    print()
    print("entry = key angle k recovered from rec1's decision angle (column)")
    print("and rec2's shuffle (row) via k = d1 - d2 on the quarter-turn cycle;")
    print("the conventional tabulation lists the d2 - d1 values, which swaps")
    print("the two diagonal angles (pi/4 <-> -pi/4) and fixes 0 and pi/2.")
    return EXIT_ACCEPT


def cmd_attack(args: argparse.Namespace) -> int:
    config = _load_effective_config(args)
    config.adversary = args.strategy
    config.validate()
    rng = np.random.default_rng(config.seed)
    if args.trials is not None:
        config.rounds = args.trials

    if args.strategy == "impersonate":
        if config.rounds < analysis.MIN_TRIALS:
            raise ConfigError("trials", f"the Monte Carlo needs at least {analysis.MIN_TRIALS}"
                              f" (--trials, or rounds in the config), got {config.rounds}")
        usd_mean = intercepted_mean(
            config.mean_photons, config.bs_ratio, config.hop_transmissions()
        )
        estimate = analysis.monte_carlo_p_error(usd_mean, 1.0, config.rounds, rng)
        reference = analysis.p_error_closed_form(usd_mean, 1.0)
        summary = AttackSummary(
            strategy="impersonate",
            trials=estimate.trials,
            metric="induced_qber",
            value=estimate.mean,
            std_error=estimate.std_error,
            reference=reference,
        )
    else:
        config.target_key_bits = 0
        result = protocol.run_session(config, rng=rng)
        s = result.eve_summary
        if args.strategy == "tag":
            value = s.recovery_rate if s.recovery_rate is not None else 0.0
            n = result.kept_rounds
            reference = config.bs_ratio
            metric = "sifted_bit_recovery_rate"
        else:
            value = s.guess_accuracy if s.guess_accuracy is not None else 0.0
            n = result.rounds_executed
            reference = 0.5
            metric = "bit_guess_accuracy"
        std_error = math.sqrt(value * (1.0 - value) / n) if n > 1 else 0.0
        summary = AttackSummary(
            strategy=args.strategy,
            trials=n,
            metric=metric,
            value=value,
            std_error=std_error,
            reference=reference,
        )

    print(f"strategy={summary.strategy}")
    print(f"trials={summary.trials}")
    print(f"{summary.metric}={_fmt(summary.value)}")
    print(f"std_error={_fmt(summary.std_error)}")
    print(f"reference={_fmt(summary.reference)}")
    if args.out:
        Path(args.out).write_text(attack_summary_to_csv(summary), encoding="utf-8")
    return EXIT_ACCEPT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqss",
        description="Simulator and security analysis for ring-topology quantum secret sharing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="key=value configuration file")
        p.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
        p.add_argument("--out", metavar="PATH", help="write CSV output to this path")
        p.add_argument(
            "--override",
            action="append",
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )

    p_sim = sub.add_parser("simulate", help="run a full session and report statistics")
    common(p_sim)
    p_sim.add_argument("--trace", action="store_true", help="record per-hop pulse snapshots")
    p_sim.set_defaults(func=cmd_simulate)

    p_curve = sub.add_parser("curve", help="tabulate the closed-form error-rate curve")
    p_curve.add_argument("--start", type=float, default=0.0, help="first mu*t value")
    p_curve.add_argument("--stop", type=float, default=12.0, help="last mu*t value")
    p_curve.add_argument("--step", type=float, default=0.1, help="grid spacing")
    p_curve.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    p_curve.set_defaults(func=cmd_curve)

    p_table = sub.add_parser("table", help="print the cooperative decode table")
    p_table.set_defaults(func=cmd_table)

    p_attack = sub.add_parser("attack", help="measure an eavesdropping strategy")
    p_attack.add_argument("strategy", choices=("pns", "tag", "impersonate"))
    common(p_attack)
    p_attack.add_argument("--trials", type=int, help="number of rounds/trials to run")
    p_attack.set_defaults(func=cmd_attack)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
