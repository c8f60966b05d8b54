"""Smoke self-test of the benchmark, from the repository root:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at tiny size in both modes and
asserts that each run prints exactly the metrics BENCHMARK.json names,
with their units. Then corrupts one receiver's final key from outside
the benchmark and asserts that the run counts it in ``failed`` and
``error_rate``. Last, asserts that the benchmark refuses to run, without
a result line, in a directory that holds only BENCHMARK.json and the
benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = 7


def check_result_line(stdout: str, names: dict[str, str]) -> dict:
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, result
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == names, f"emitted {emitted}, BENCHMARK.json names {names}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
    return result


def smoke_runs(spec: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"]: m["unit"] for m in spec[section]}
        for workload in spec["workloads"]:
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload["name"],
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=180, check=True, cwd=run.ROOT,
            )
            check_result_line(proc.stdout, names)
            print(f"ok  {workload['name']} --trace {trace}: {len(names)} metrics with units")


def corrupted_key_counts() -> None:
    run.import_sqss()
    from sqss import protocol

    honest = protocol.run_session

    def corrupting(config, rng=None):
        result = honest(config, rng)
        victim = result.receiver_final_keys[-1]
        result.receiver_final_keys[-1] = [1 - victim[0], *victim[1:]]
        return result

    clean = run.run("keybits_n2", SEED, 1.0, False, smoke=True)["result"]
    protocol.run_session = corrupting
    try:
        dirty = run.run("keybits_n2", SEED, 1.0, False, smoke=True)["result"]
    finally:
        protocol.run_session = honest
    assert clean["failed"] == 0 and clean["correct"], clean
    assert dirty["failed"] > 0 and not dirty["correct"], dirty
    assert dirty["metrics"]["error_rate"]["value"] >= dirty["failed"] / dirty["attempted"], dirty
    assert dirty["metrics"]["error_rate"]["value"] > clean["metrics"]["error_rate"]["value"]
    print(f"ok  corrupted receiver key: {dirty['failed']} of {dirty['attempted']} operations failed")


def refuses_without_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload", "keybits_n2",
             "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  refuses to run without src/: exit {proc.returncode}")


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    smoke_runs(spec)
    corrupted_key_counts()
    refuses_without_sources()


if __name__ == "__main__":
    main()
