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
import contextlib
import math
import sys
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from . import analysis, protocol
from .adversary import intercepted_mean
from .config import MAX_ROUNDS, ConfigError, SimConfig, apply_overrides, load_config
from .optics import ANGLE_LABELS, VACUUM

EXIT_ACCEPT = 0
EXIT_ABORT_RETRY = 2
EXIT_DISHONEST = 3
EXIT_CONFIG = 64

# Most points a curve grid may print.
_MAX_CURVE_POINTS = 10**5
# Rounds rendered to CSV text at a time: bounds the strings alive at once.
_CSV_ROWS = 1024
# The report key of Eve's rate under each strategy.
_EVE_RATE_KEYS = {"tag": "eve_recovery_rate", "pns": "eve_guess_accuracy",
                  "impersonate": "eve_usd_success_rate"}

_ROUND_COLUMNS = (
    "index,theta,phis,shuffles,basis_choice,bit,key_angle,rect_outcome,"
    "diag_outcome,status,measured_angle,decoded_angle,decoded_bit,trace"
)


def _fmt(value: float) -> str:
    return repr(float(value))


# Text of each outcome code; a discarded round's status appends "_discard".
_OUTCOME_TEXT = ("angle:0", "angle:1", "angle:2", "angle:3", "vacuum", "ambiguous")


def round_rows(table: protocol.RoundTable, first: int) -> Iterator[str]:
    """The CSV lines of a session's sifted and decoded chunk, one per round,
    numbered from ``first`` (README: Per-round CSV)."""
    traces = [""] * len(table)
    if table.trace_stages:
        polarizations = zip(*(p.tolist() for p in protocol._polarizations(table)))
        traces = [
            "|".join(f"{stage}:{n}:{_fmt(pol)}"
                     for stage, n, pol in zip(table.trace_stages, *hops, strict=True))
            for hops in zip(table.trace_photons.tolist(), polarizations)
        ]
    for i, (theta, phis, shuffles, j, bit, key, rect, diag, code, dec, trace) in enumerate(zip(
        table.theta.tolist(), table.phis.tolist(), table.shuffles.tolist(),
        table.basis_choice.tolist(), table.bit.tolist(),
        protocol._key_angle(table.bit, table.basis_choice).tolist(), table.rect.tolist(),
        table.diag.tolist(), table.sifted.tolist(), table.decoded.tolist(), traces,
    ), start=first):
        kept = code < VACUUM
        yield ",".join((
            str(i), _fmt(theta), ";".join(map(_fmt, phis)), ";".join(map(str, shuffles)),
            str(j), str(bit), str(key), _OUTCOME_TEXT[rect], _OUTCOME_TEXT[diag],
            "kept" if kept else _OUTCOME_TEXT[code] + "_discard",
            str(code) if kept else "", str(dec) if kept else "", str(dec // 2) if kept else "",
            trace,
        )) + "\n"


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO | None]:
    """The --out file at ``path``, or None; it is removed if the work fails."""
    out = open(path, "w", encoding="utf-8") if path else contextlib.nullcontext()
    try:
        with out as stream:
            yield stream
    except BaseException:
        if path and Path(path).is_file():  # never a device such as /dev/null
            Path(path).unlink()
        raise


def _csv_writer(out: TextIO) -> Callable[[protocol.RoundTable], None]:
    """A records callback: the CSV header goes to ``out`` now, then each chunk's
    rows as it comes, rendered ``_CSV_ROWS`` at a time and numbered across chunks."""
    out.write(_ROUND_COLUMNS + "\n")
    first = 0

    def write(table: protocol.RoundTable) -> None:
        nonlocal first
        for start in range(0, len(table), _CSV_ROWS):
            out.writelines(round_rows(table.rows(start, start + _CSV_ROWS), first + start))
        first += len(table)

    return write


def curve_points_to_csv(points: Sequence[analysis.ErrorCurvePoint]) -> str:
    lines = ["mu_t,p_e,p_error"]
    lines.extend(f"{_fmt(p.mu_t)},{_fmt(p.p_e)},{_fmt(p.p_error)}" for p in points)
    return "\n".join(lines) + "\n"


def _load_effective_config(args: argparse.Namespace) -> SimConfig:
    config = load_config(args.config) if args.config else SimConfig()
    if args.override:
        config = apply_overrides(config, args.override)
    if args.seed is not None:
        config.seed = args.seed
    return config


def cmd_simulate(args: argparse.Namespace, out: TextIO | None) -> int:
    config = _load_effective_config(args)
    config.trace = config.trace or args.trace
    config.validate()
    if config.trace and out is None:
        raise ConfigError("trace", "the trace is only written to the per-round CSV; give --out")
    result = protocol.run_session(config, out and _csv_writer(out))

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
        if s.rate is not None:
            lines.append(f"{_EVE_RATE_KEYS[s.strategy]}={_fmt(s.rate)}")
    print("\n".join(lines))

    if result.verdict.kind is protocol.VerdictKind.ABORT_RETRY:
        return EXIT_ABORT_RETRY
    if result.verdict.kind is protocol.VerdictKind.DISHONEST:
        return EXIT_DISHONEST
    return EXIT_ACCEPT


def cmd_curve(args: argparse.Namespace, out: TextIO | None) -> int:
    if not 0.0 < args.step < math.inf:
        raise ConfigError("step", f"must be finite and > 0, got {args.step}")
    if not 0.0 <= args.start <= args.stop < math.inf:
        raise ConfigError("range", "need 0 <= start <= stop < inf,"
                          f" got [{args.start}, {args.stop}]")
    span = (args.stop - args.start) / args.step
    if not span + 1.0 <= _MAX_CURVE_POINTS:
        raise ConfigError("step", f"a grid of {span + 1.0:.3g} points is more than"
                          f" {_MAX_CURVE_POINTS:g}")
    count = int(math.floor(span + 1e-9)) + 1
    # round away step-accumulation noise so grid values print cleanly; the
    # 1e-9 slack or the rounding may reach just past stop, so values clamp to it
    values = [min(round(args.start + i * args.step, 10), args.stop) for i in range(count)]
    text = curve_points_to_csv(analysis.error_curve(values))
    (out or sys.stdout).write(text)
    return EXIT_ACCEPT


def cmd_table(args: argparse.Namespace, out: None) -> int:
    table = protocol.decode_table()
    labels = [ANGLE_LABELS[q] for q in protocol.DECODE_TABLE_ORDER]
    width = 6
    header = "rec2\\rec1".ljust(10) + "".join(lbl.rjust(width) for lbl in labels)
    print(header)
    for row_label, row in zip(labels, table):
        print(row_label.ljust(10) + "".join(ANGLE_LABELS[k].rjust(width) for k in row))
    print()
    print("entry = key angle k recovered from rec1's decision angle (column)")
    print("and rec2's shuffle (row) via k = d1 - d2 on the quarter-turn cycle;")
    print("the conventional tabulation lists the d2 - d1 values, which swaps")
    print("the two diagonal angles (pi/4 <-> -pi/4) and fixes 0 and pi/2.")
    return EXIT_ACCEPT


def cmd_attack(args: argparse.Namespace, out: TextIO | None) -> int:
    config = _load_effective_config(args)
    config.adversary = args.strategy
    config.validate()
    if args.trials is not None:
        config.rounds = args.trials

    if args.strategy == "impersonate":
        if not analysis.MIN_TRIALS <= config.rounds <= analysis.MAX_TRIALS:
            raise ConfigError("trials", f"must be in {analysis.MIN_TRIALS}..{analysis.MAX_TRIALS}"
                              f" (--trials, or rounds in the config), got {config.rounds}")
        usd_mean = intercepted_mean(config.mean_photons, config.bs_ratio, config.hop_transmission())
        rng = np.random.default_rng(config.seed)
        estimate = analysis.monte_carlo_p_error(usd_mean, 1.0, config.rounds, rng)
        n, value, std_error = estimate.trials, estimate.mean, estimate.std_error
        metric, reference = "induced_qber", analysis.p_error_closed_form(usd_mean, 1.0)
    else:
        if not 1 <= config.rounds <= MAX_ROUNDS:
            raise ConfigError("trials", f"must be in 1..{MAX_ROUNDS}, got {config.rounds}")
        config.target_key_bits = 0
        config.parity_block = 0  # only Eve's counts are read, never the keys
        s = protocol.run_session(config).eve_summary
        n, value = s.trials, s.rate or 0.0
        if args.strategy == "tag":
            metric, reference = "sifted_bit_recovery_rate", config.bs_ratio
        else:
            metric, reference = "bit_guess_accuracy", 0.5
        std_error = math.sqrt(value * (1.0 - value) / n) if n > 1 else 0.0

    print(f"strategy={args.strategy}")
    print(f"trials={n}")
    print(f"{metric}={_fmt(value)}")
    print(f"std_error={_fmt(std_error)}")
    print(f"reference={_fmt(reference)}")
    if out:
        out.write(
            "strategy,trials,metric,value,std_error,reference\n"
            f"{args.strategy},{n},{metric},{_fmt(value)},{_fmt(std_error)},{_fmt(reference)}\n"
        )
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
    p_sim.add_argument("--trace", action="store_true",
                       help="record per-hop pulse snapshots in the --out CSV")
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
        # every --out opens before any work, so an unwritable one fails first
        with _output(getattr(args, "out", None)) as out:
            return args.func(args, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
