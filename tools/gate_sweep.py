"""Run tier-1, or a selection of it, under K seed offsets and report every
failure with its offset.

Usage::

    python tools/gate_sweep.py --offsets K [-k EXPR] [-- PYTEST_ARGS]

Each offset, 1 to K, runs ``python -m pytest`` from the repository root
in a fresh process, with ``tools`` first on ``PYTHONPATH`` and
``GATE_SWEEP_OFFSET`` set, so that ``tools/sitecustomize.py`` mixes the
offset into every ``numpy.random.default_rng`` seed, in the ``sqss``
subprocesses that the tests start too. No committed seed, size or bound
changes, and offset 0 would be the committed suite. A correct engine trips each statistical gate at
its nominal false-alarm rate (a two-sided 3-sigma gate about one offset
in 370, a p > 1e-4 gate one in 10^4); a defect trips it at most offsets.
Prints each failing test with its offset and message, then a count per
test and the wall time. Exits 1 if any offset failed.
"""

from __future__ import annotations

import argparse
import collections
import os
import subprocess
import sys
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent


def run_offset(offset: int, pytest_args: list[str]) -> tuple[int, list[str]]:
    """Run pytest under ``offset``; returns its exit code and its FAILED/ERROR lines."""
    env = dict(os.environ, GATE_SWEEP_OFFSET=str(offset))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(TOOLS), str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    # -vv: the summary line of a failure keeps its message at any terminal width
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-vv", "-p", "no:cacheprovider", "--tb=no", "-rfE",
         *pytest_args],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    lines = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--offsets", type=int, required=True, help="number of offsets K")
    parser.add_argument("-k", dest="select", help="pytest -k expression")
    parser.add_argument("pytest_args", nargs="*", help="further pytest arguments, after --")
    args = parser.parse_args(argv)
    if args.offsets < 1:
        parser.error("--offsets must be >= 1")
    pytest_args = (["-k", args.select] if args.select else []) + args.pytest_args

    start = time.perf_counter()
    failing: dict[str, list[int]] = collections.defaultdict(list)
    broken = []
    for offset in range(1, args.offsets + 1):
        code, lines = run_offset(offset, pytest_args)
        for line in lines:
            print(f"offset {offset}: {line}", flush=True)
            failing[line.split()[1]].append(offset)
        if code not in (0, 1) or code == 1 and not lines:
            broken.append(offset)
            print(f"offset {offset}: pytest exited {code} without a test failure", flush=True)
    wall = time.perf_counter() - start

    print(f"{args.offsets} offsets, {sum(map(len, failing.values()))} failures,"
          f" {len(broken)} broken runs, {wall:.1f} s wall")
    for test, seen in sorted(failing.items()):
        print(f"{len(seen):5d}  {test}")
    return 1 if failing or broken else 0


if __name__ == "__main__":
    sys.exit(main())
