"""sqss benchmark: session and Monte Carlo throughput, with a separate traced per-layer pass.

Run from the repository root:

    python3 perfbench/run.py --workload keybits_n2 --seed 1 --seconds 16 --trace 0

One run of a workload, in one process:

1. set-up: several fresh interpreters each import sqss and run the
   workload's first operation and one more (``setup_probe.py``);
2. warm-up: one operation, so lazy imports never land in a timed one;
3. memory: one operation under tracemalloc;
4. timed: operations back to back for ``--seconds`` (closed loop, one
   caller), or half of it with ``--trace 1``, whose other half is the
   traced pass that gives the per-layer metrics;
5. a re-run of the warm-up seed, which must give the same key digest.

Every operation is checked (``workloads.py``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds provenance and
info values, which also go to ``perfbench/out/`` with the spans.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import refclock
from refclock import ReferenceClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# Each fresh interpreter runs two operations with these indices from 2 * probe.
PROBE_INDEX_BASE = 1_000_000
# Shortest stretch of timed operations between two reference loops, in seconds.
BLOCK_S = 0.1
# A timed pass stops after this many times its budget in wall seconds.
WALL_CAP = 2.0
# Exact one-sided confidence of the error_rate bound.
ERROR_CONFIDENCE = 0.95

END_TO_END_UNITS = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "rounds_per_s_p10": "1/s",
    "key_bits_per_s": "1/s",
    "trials_per_s": "1/s",
    "trials_per_s_p10": "1/s",
    "peak_mem_mb": "MB",
    "error_rate": "fraction",
}
PER_LAYER_UNITS = {
    "protocol.round.us_per_round": "us",
    "protocol.round.self_us_per_round": "us",
    "optics.us_per_round": "us",
    "optics.calls_per_round": "count",
    "channel.us_per_round": "us",
    "channel.calls_per_round": "count",
    "adversary.intercept.us_per_round": "us",
    "adversary.intercept.calls_per_round": "count",
    "adversary.score.us_per_round": "us",
    "protocol.sift.us_per_round": "us",
    "protocol.sift.keep_ratio": "fraction",
    "protocol.decode.us_per_kept": "us",
    "protocol.reconcile.us_per_bit": "us",
    "protocol.reconcile.survivor_ratio": "fraction",
    "protocol.toeplitz.us_per_bit": "us",
    "protocol.toeplitz.calls_per_session": "count",
    "protocol.toeplitz.ms_1e5": "ms",
    "protocol.toeplitz.ms_1e6": "ms",
    "protocol.digest.us_per_bit": "us",
    "protocol.session.unattributed_us_per_round": "us",
    "analysis.mc.us_per_trial": "us",
    "analysis.mc.self_us_per_trial": "us",
    "adversary.usd.us_per_trial": "us",
    "setup.import_s": "s",
    "setup.lazy_import_s": "s",
    "trace.overhead_ratio": "ratio",
    "adversary.pns.discard_gap_sigma": "sigma",
}


def import_sqss():
    """Import sqss from this checkout's ``src``; raises ImportError when it is not there."""
    sys.path.insert(0, str(SRC))
    import sqss

    if Path(sqss.__file__).resolve().parent != (SRC / "sqss").resolve():
        raise ImportError(f"sqss resolved to {sqss.__file__}, not under {SRC}")
    return sqss


def slow_tail(values: list[float]) -> float:
    """Slow tail of throughput samples: the 10th percentile, moved inward
    until at least ten samples lie below it, but never past the median."""
    ordered = sorted(values)
    return ordered[min(max(10, len(ordered) // 10), (len(ordered) - 1) // 2)]


def median_rate(ops, work) -> float:
    """Median rate of ``work(op)`` per second over timed operations, stratum by stratum.

    A median over a mix of strata (Monte Carlo batches at four mu*T,
    which differ in speed by a third) falls in a gap between their
    clusters and jumps from run to run. So the median is taken within
    each stratum, and the strata are combined as one operation of each
    run back to back: the harmonic mean of their medians, since their
    operations do equal work. With a single stratum it is the plain median.
    """
    by_stratum: dict = {}
    for op in ops:
        by_stratum.setdefault(op.stratum, []).append(work(op) / op.seconds)
    return len(by_stratum) / sum(1.0 / statistics.median(r) for r in by_stratum.values())


def failure_upper_bound(failed: int, attempted: int) -> float:
    """Exact (Clopper-Pearson) one-sided upper confidence bound on the failure probability."""
    if failed >= attempted:
        return 1.0

    def tail(p: float) -> float:
        return sum(math.comb(attempted, k) * p**k * (1 - p) ** (attempted - k)
                   for k in range(failed + 1))

    lo, hi = failed / attempted, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if tail(mid) > 1 - ERROR_CONFIDENCE else (lo, mid)
    return hi


def measure_setup(workload: str, seed: int, probes: int, smoke: bool) -> list[dict]:
    """Set-up cost in fresh interpreters, one after another, in reference seconds.

    Each interpreter runs the reference loop itself, before and after its
    work, so the scale comes from the CPU it ran on.
    """
    records = []
    for k in range(probes):
        launched = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
             str(PROBE_INDEX_BASE + 2 * k), str(int(smoke))],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        record = json.loads(proc.stdout.splitlines()[-1])
        # CLOCK_MONOTONIC is system-wide, so the child's reading compares with
        # ours; its first reference loop ran inside this interval.
        before = record.pop("loop_before_s")
        record["setup_s"] = record.pop("first_done") - launched - before
        scale = refclock.scale(before, record.pop("loop_after_s"))
        for key in ("setup_s", "import_s", "first_op_s", "warm_op_s"):
            record[key] *= scale
        records.append(record)
    return records


def toeplitz_ms(protocol, n: int, repeats: int = 3) -> float | None:
    """Warm privacy amplification of a fixed-seed n-bit key to n/2 bits, in reference ms."""
    compress = getattr(protocol, "toeplitz_compress", None)
    if compress is None:
        return None
    import numpy as np

    bits = np.random.default_rng(n).integers(0, 2, size=n).tolist()
    compress(bits, n // 2, 7)
    clock, times = ReferenceClock(), []
    for _ in range(repeats):
        _, wall, scale = clock.measure(lambda: compress(bits, n // 2, 7))
        times.append(wall * scale)
    return statistics.median(times) * 1e3


def provenance(workload: str, seed: int, smoke: bool) -> dict:
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "git_sha": sha,
        "src_sqss_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "sqss").glob("*.py")),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result line plus provenance, info and spans."""
    from sqss import protocol
    from tracing import ROOTS, Tracer, layer_metrics
    from workloads import WORKLOADS, McWorkload

    wl = WORKLOADS[workload]
    kind = "mc" if isinstance(wl, McWorkload) else "session"

    def execute(index: int):
        spec, result = wl.run(seed, index, smoke)
        return wl.summarize(index, spec, result)

    def loop(first: int, budget: float, tracer: Tracer | None = None):
        """Operations back to back until they add up to ``budget`` reference seconds.

        The reference loop runs between blocks of operations at least
        BLOCK_S long, so that it costs at most a fifth of the run however
        short an operation becomes; each operation is timed on its own and
        scaled by its block's factor. On a host slower than the reference
        by more than WALL_CAP, the loop stops early so that the run's wall
        time stays bounded.
        """
        ops, spent, clock = [], 0.0, ReferenceClock()
        deadline = time.perf_counter() + WALL_CAP * budget

        def block() -> list:
            done, begin = [], time.perf_counter()
            while not done or time.perf_counter() - begin < BLOCK_S:
                index = first + len(ops) + len(done)
                start = time.perf_counter()
                if tracer is None:
                    op = execute(index)
                else:
                    op = tracer.root(ROOTS[kind], index, lambda: execute(index))
                op.wall = time.perf_counter() - start
                done.append(op)
            return done

        while not ops or (spent < budget and time.perf_counter() < deadline):
            done, _, scale = clock.measure(block)
            for op in done:
                op.seconds = op.wall * scale
                spent += op.seconds
            ops += done
        return ops

    probes = measure_setup(workload, seed, 1 if smoke else SETUP_PROBES, smoke)
    warm = execute(0)
    tracemalloc.start()
    try:
        mem = execute(1)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    timed = loop(2, seconds / 2 if trace else seconds)
    traced: list = []
    tracer = Tracer()
    if trace:
        tracer.install()
        try:
            traced = loop(2 + len(timed), seconds / 2, tracer)
        finally:
            tracer.uninstall()
    rerun = execute(0)

    pooled_ops = [warm, mem, *timed, *traced]
    pooled_problems, info = wl.pooled(pooled_ops)
    problems = [f"op {op.index}: {p}" for op in pooled_ops + [rerun] for p in op.problems]
    problems += [f"setup probe: {p}" for rec in probes for p in rec["problems"]]
    if rerun.digest != warm.digest:
        problems.append("re-running the warm-up seed gave another key digest")
    attempted = len(pooled_ops) + 1 + sum(rec["ops"] for rec in probes)
    failed = sum(1 for op in pooled_ops + [rerun] if op.problems)
    failed += sum(rec["failed"] for rec in probes) + (rerun.digest != warm.digest)
    if pooled_problems:
        problems += pooled_problems
        failed = attempted
    info.update(
        samples=len(timed),
        traced_samples=len(traced),
        wall_rounds_per_s=statistics.median(op.rounds / op.wall for op in timed),
        reference_s_per_wall_s=statistics.median(op.seconds / op.wall for op in timed),
        problems=problems,
    )

    if trace:
        rounds = sum(op.rounds for op in traced) if kind == "session" else 0
        trials = sum(op.rounds for op in traced) if kind == "mc" else 0
        kept = rounds - sum(op.stats.get("discarded", 0) for op in traced)
        scale = statistics.median(op.seconds / op.wall for op in traced)
        metrics = layer_metrics(tracer.totals(scale), tracer.present, rounds, kept,
                                len(traced) if kind == "session" else 0, trials)
        metrics.update({
            "protocol.toeplitz.ms_1e5": toeplitz_ms(protocol, 10**5),
            "protocol.toeplitz.ms_1e6": toeplitz_ms(protocol, 10**6),
            "setup.import_s": statistics.median(rec["import_s"] for rec in probes),
            "setup.lazy_import_s": statistics.median(
                rec["first_op_s"] - rec["warm_op_s"] for rec in probes),
            "trace.overhead_ratio": statistics.median(op.seconds for op in traced)
            / statistics.median(op.seconds for op in timed),
            "adversary.pns.discard_gap_sigma": info.get("pns_discard_gap_sigma", 0.0),
        })
        units = PER_LAYER_UNITS
    else:
        rate = median_rate(timed, lambda op: op.rounds)
        tail = slow_tail([op.rounds / op.seconds for op in timed])
        metrics = {
            "setup_s": statistics.median(rec["setup_s"] for rec in probes),
            "rounds_per_s": rate,
            "rounds_per_s_p10": tail,
            "key_bits_per_s": median_rate(timed, lambda op: op.key_bits),
            "trials_per_s": rate,
            "trials_per_s_p10": tail,
            "peak_mem_mb": peak_bytes / 1e6,
            "error_rate": failure_upper_bound(failed, attempted),
        }
        units = END_TO_END_UNITS
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
        "provenance": provenance(workload, seed, smoke),
        "info": info,
        "tracer": tracer if trace else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny operations and one set-up probe, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        import_sqss()
    except ImportError as exc:
        print(f"perfbench: cannot import sqss from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    OUT.mkdir(exist_ok=True)
    if out["tracer"] is not None:
        # One spans file per workload, replaced by each traced run, to bound disk use.
        out["tracer"].save(OUT / f"{args.workload}-spans.npz")
    record = {key: out[key] for key in ("provenance", "info", "result")}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": out["provenance"], "info": out["info"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
