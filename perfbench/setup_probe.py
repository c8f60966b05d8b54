"""Set-up cost of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <first index> <smoke 0|1>

Runs the reference loop, imports sqss, runs the workload's operations
``first index`` and the next one, checks both, runs the reference loop
again, and prints one JSON line: the wall seconds of both reference
loops, the import time, the CLOCK_MONOTONIC reading when the first
operation ended (the parent started its clock before launching this
interpreter), and the times of the first and the second, warm,
operation. All times are wall seconds; the parent scales them.
"""

import json
import sys
import time
from pathlib import Path

import refclock


def main() -> None:
    workload, seed, first, smoke = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    loop_before = refclock.loop()
    start = time.monotonic()
    import sqss  # noqa: F401

    imported = time.monotonic()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    ops, ends = [], []
    for index in (first, first + 1):
        begin = time.monotonic()
        spec, result = wl.run(seed, index, smoke)
        ends.append(time.monotonic())
        ops.append(wl.summarize(index, spec, result))
        ops[-1].wall = ends[-1] - begin
    loop_after = refclock.loop()
    print(json.dumps({
        "loop_before_s": loop_before,
        "loop_after_s": loop_after,
        "import_s": imported - start,
        "first_done": ends[0],
        "first_op_s": ops[0].wall,
        "warm_op_s": ops[1].wall,
        "ops": len(ops),
        "failed": sum(1 for op in ops if op.problems),
        "problems": [p for op in ops for p in op.problems],
    }))


if __name__ == "__main__":
    main()
