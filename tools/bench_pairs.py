"""Paired benchmark runs of a parent commit and this checkout, summarized in one BENCH file.

Usage::

    python3 tools/bench_pairs.py --parent REF --workloads keybits_n2,pns_n5_lossy \\
        --pairs 8 --seeds 3501 --seconds 16 --out BENCH_NN.json \\
        [--claim keybits_n2:rounds_per_s] [--change "what the change does"]

REF's committed files are exported with ``git archive`` into a temporary
directory, which is removed afterwards; the change side is this
checkout's working tree. Pair k of each workload runs
``perfbench/run.py --seed FIRST+k --trace 0`` once in each tree, back to
back, the parent first in even pairs and the change first in odd ones,
so a drift of the host's speed falls on both sides alike.

Each metric of ``BENCHMARK.json``'s ``end_to_end`` list gets, per side,
the median, interquartile range (numpy percentile, linear), min and max
over the runs, then the pairs in which the change is better and the
ratio of the medians, change over parent. Each run's
``reference_s_per_wall_s`` is kept. Each metric's line printed at the
end says whether the medians lie further apart than the parent's
interquartile range. Flags are printed and written under
``flags``; no bound is changed:

- a run whose ``reference_s_per_wall_s`` is below ``SLOW_HOST``: there
  ``run.py`` stops its timed pass at ``WALL_CAP`` times its budget in wall
  seconds before the budget is spent, so ``attempted`` and ``error_rate``
  follow the host's speed and not the program;
- a metric whose change median is worse than the parent median by more
  than its ``BENCHMARK.json`` bound.

Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# Below this reference speed run.py's WALL_CAP ends a timed pass before its budget.
SLOW_HOST = 0.7


def sig(x: float) -> float:
    """``x`` to six significant digits, as the BENCH files write it."""
    return float(f"{x:.6g}")


def parse_run(stdout: str) -> dict:
    """A ``perfbench/run.py`` run from its last two lines of output: its
    metric values, failed operations and reference scale."""
    *_, head, last = stdout.splitlines()
    result = json.loads(last)
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed": result["failed"],
        "scale": json.loads(head)["info"]["reference_s_per_wall_s"],
    }


def first_sides(pairs: int) -> list[str]:
    """Which side runs first in each pair: the parent, then the change, alternating."""
    return [SIDES[k % 2] for k in range(pairs)]


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """One workload's entry from its ``runs``, each {"parent": run, "change": run}
    of ``parse_run``, for the ``end_to_end`` metrics of ``BENCHMARK.json``."""
    metrics = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        values = {side: np.array([run[side]["metrics"][name] for run in runs]) for side in SIDES}
        entry = {"better": spec["better"], "bound": spec["bound"]}
        for side, v in values.items():
            q1, q3 = np.percentile(v, [25, 75])
            entry[side] = {"median": sig(np.median(v)), "iqr": sig(q3 - q1),
                           "min": sig(v.min()), "max": sig(v.max())}
        gain = values["change"] - values["parent"]
        entry["pairs"] = len(runs)
        entry["change_better_in"] = int(((gain > 0) if higher else (gain < 0)).sum())
        parent = np.median(values["parent"])
        entry["median_ratio"] = round(float(np.median(values["change"]) / parent), 4) if parent \
            else None
        metrics[name] = entry
    return {
        "failed_operations": {side: [run[side]["failed"] for run in runs] for side in SIDES},
        "reference_s_per_wall_s": {side: [sig(run[side]["scale"]) for run in runs]
                                   for side in SIDES},
        "metrics": metrics,
    }


def flags(workload: str, entry: dict) -> list[str]:
    """Slow-host runs and metrics past their bound in one workload's entry."""
    found = [f"{workload} pair {k} {side}: reference_s_per_wall_s {scale} < {SLOW_HOST}"
             for side in SIDES
             for k, scale in enumerate(entry["reference_s_per_wall_s"][side]) if scale < SLOW_HOST]
    for name, m in entry["metrics"].items():
        parent, change = m["parent"]["median"], m["change"]["median"]
        worse = (parent - change) if m["better"] == "higher" else (change - parent)
        if worse > m["bound"] * abs(parent):
            found.append(f"{workload} {name}: median {parent:.6g} -> {change:.6g} is worse "
                         f"by more than its bound {m['bound']}")
    return found


def rule_line(workload: str, name: str, m: dict) -> str:
    """One metric against the claim rule: pairs won, the median ratio, and
    whether the medians lie further apart than the parent's IQR."""
    gap = abs(m["change"]["median"] - m["parent"]["median"])
    return (f"{workload} {name}: change better in {m['change_better_in']} of {m['pairs']} pairs, "
            f"median ratio {m['median_ratio']}, gap {gap:.3g} "
            f"{'above' if gap > m['parent']['iqr'] else 'within'} the parent IQR "
            f"{m['parent']['iqr']:.3g}")


def claim_text(m: dict) -> str:
    """One metric's result in words: pairs better, the medians and their
    gap against the parent's interquartile range."""
    parent, change = m["parent"], m["change"]
    word = "higher" if m["better"] == "higher" else "lower"
    return (f"{word} on {m['change_better_in']} of {m['pairs']} pairs; median "
            f"{parent['median']:.4g} -> {change['median']:.4g} (x{m['median_ratio']}), gap "
            f"{abs(change['median'] - parent['median']):.2g} against a parent IQR of "
            f"{parent['iqr']:.2g}")


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in ``tree``, parsed."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return parse_run(done.stdout)


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", type=int, required=True, help="the first pair's seed")
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC whose result the file states")
    parser.add_argument("--change", default="", help="what the change does, in words")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_sha, head = git("rev-parse", args.parent), git("rev-parse", "HEAD")
    dirty = ", uncommitted changes included" if git("status", "--porcelain") else ""
    workloads = {}
    scratch = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", parent_sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(scratch)], stdin=archive.stdout, check=True)
        if archive.wait():
            raise RuntimeError(f"git archive {parent_sha} exited {archive.returncode}")
        trees = {"parent": scratch, "change": ROOT}
        for workload in args.workloads.split(","):
            runs, order = [], first_sides(args.pairs)
            for k, first in enumerate(order):
                seed, run = args.seeds + k, {}
                for side in (first, "change" if first == "parent" else "parent"):
                    run[side] = bench(trees[side], workload, seed, args.seconds)
                    print(f"{workload} seed {seed} {side}: {run[side]['metrics']}", flush=True)
                runs.append(run)
            workloads[workload] = {"seeds": [args.seeds + k for k in range(args.pairs)],
                                   "first_side": order, **summarize(runs, end_to_end)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    found = [f for name, entry in workloads.items() for f in flags(name, entry)]
    out = {"change": args.change}
    if args.claim:
        workload, metric = args.claim.split(":")
        out["claim"] = {"workload": workload, "metric": metric,
                        "result": claim_text(workloads[workload]["metrics"][metric])}
    out["provenance"] = {
        "parent_commit": parent_sha,
        "change": f"this checkout's working tree at {head}{dirty}",
        "host": f"{os.cpu_count()} vCPUs, {platform.machine()}, {platform.system()} "
                f"{platform.release()}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "command": f"python3 perfbench/run.py --workload <name> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairing": "parent and change run back to back on each seed, the first side "
                   "alternating pair by pair (first_side); the parent from git archive",
        "statistics": "median and interquartile range (numpy percentile, linear) over the "
                      "runs of each side",
    }
    out["workloads"] = workloads
    out["flags"] = found
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for workload, entry in workloads.items():
        for name, m in entry["metrics"].items():
            print(rule_line(workload, name, m))
    for line in found:
        print(f"FLAG {line}")
    if args.claim:
        print(f"claim {args.claim}: {out['claim']['result']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
