"""The statistics of ``tools/bench_pairs.py``, fed synthetic benchmark
result lines: medians, quartiles, pairs better, the ratio of medians and
the flags. No benchmark runs here."""

import json
from pathlib import Path

import numpy as np
import pytest
from session_records import load_script

ROOT = Path(__file__).resolve().parent.parent
PAIRS = load_script(ROOT / "tools" / "bench_pairs.py")
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BOUND = {spec["name"]: spec["bound"] for spec in END_TO_END}


def output(scale=1.0, failed=0, **values):
    """What ``perfbench/run.py`` prints last: a progress line, the
    provenance and info line, and the result line, every end-to-end metric
    at 1.0 but ``values``."""
    metrics = {spec["name"]: {"value": values.get(spec["name"], 1.0), "unit": spec["unit"]}
               for spec in END_TO_END}
    head = {"provenance": {"seed": 1}, "info": {"reference_s_per_wall_s": scale}}
    result = {"correct": not failed, "attempted": 100, "failed": failed, "metrics": metrics}
    return "\n".join(["warming up", json.dumps(head), json.dumps(result)]) + "\n"


def pairs(parent_rates, change_rates, **change_values):
    """One run per pair and side, ``rounds_per_s`` at the given rates."""
    return [{"parent": PAIRS.parse_run(output(rounds_per_s=p)),
             "change": PAIRS.parse_run(output(**{"rounds_per_s": c, **change_values}))}
            for p, c in zip(parent_rates, change_rates)]


def test_parse_run_reads_the_last_two_lines():
    run = PAIRS.parse_run(output(scale=0.9, failed=2, rounds_per_s=5e6))
    assert run["scale"] == 0.9 and run["failed"] == 2
    assert run["metrics"]["rounds_per_s"] == 5e6 and set(run["metrics"]) == {
        spec["name"] for spec in END_TO_END}


def test_first_side_alternates_from_the_parent():
    assert PAIRS.first_sides(5) == ["parent", "change", "parent", "change", "parent"]


def test_medians_quartiles_and_pairs_better():
    parent, change = [10.0, 12.0, 11.0, 13.0], [12.0, 11.0, 14.0, 15.0]
    entry = PAIRS.summarize(pairs(parent, change), END_TO_END)
    rate = entry["metrics"]["rounds_per_s"]
    q1, q3 = np.percentile(parent, [25, 75])
    assert rate["parent"] == {"median": 11.5, "iqr": q3 - q1, "min": 10.0, "max": 13.0}
    assert rate["change"]["median"] == 13.0
    assert rate["pairs"] == 4 and rate["change_better_in"] == 3
    assert rate["median_ratio"] == round(13.0 / 11.5, 4)
    assert entry["failed_operations"] == {"parent": [0] * 4, "change": [0] * 4}
    assert entry["reference_s_per_wall_s"] == {"parent": [1.0] * 4, "change": [1.0] * 4}


def test_lower_is_better_counts_the_other_way():
    entry = PAIRS.summarize(pairs([1.0] * 3, [1.0] * 3, peak_mem_mb=0.5), END_TO_END)
    assert entry["metrics"]["peak_mem_mb"]["change_better_in"] == 3
    assert entry["metrics"]["rounds_per_s"]["change_better_in"] == 0  # ties are not better


def test_equal_runs_raise_no_flag():
    assert PAIRS.flags("w", PAIRS.summarize(pairs([1.0] * 3, [1.0] * 3), END_TO_END)) == []


@pytest.mark.parametrize("metric, value, flagged", [
    ("rounds_per_s", 0.80, True), ("rounds_per_s", 0.82, False),
    ("peak_mem_mb", 1.12, True), ("peak_mem_mb", 1.08, False), ("peak_mem_mb", 0.5, False),
])
def test_a_metric_past_its_bound_is_flagged(metric, value, flagged):
    # rounds_per_s may fall 19%, peak_mem_mb rise 10%
    found = PAIRS.flags("w", PAIRS.summarize(pairs([1.0] * 3, [1.0] * 3, **{metric: value}),
                                             END_TO_END))
    expected = f"w {metric}: median 1 -> {value:.6g} is worse by more than its bound {BOUND[metric]}"
    assert found == ([expected] if flagged else [])


def test_a_slow_host_run_is_flagged():
    runs = pairs([1.0] * 2, [1.0] * 2)
    runs[1]["change"]["scale"] = 0.65
    found = PAIRS.flags("w", PAIRS.summarize(runs, END_TO_END))
    assert found == ["w pair 1 change: reference_s_per_wall_s 0.65 < 0.7"]


def test_claim_text_states_pairs_medians_and_gap():
    entry = PAIRS.summarize(pairs([10.0, 12.0, 11.0, 13.0], [12.0, 11.0, 14.0, 15.0]), END_TO_END)
    assert PAIRS.claim_text(entry["metrics"]["rounds_per_s"]) == (
        "higher on 3 of 4 pairs; median 11.5 -> 13 (x1.1304), gap 1.5 against a parent IQR of 1.5")


def test_rule_line_states_pairs_ratio_and_gap_against_the_parent_iqr():
    entry = PAIRS.summarize(pairs([10.0, 12.0, 11.0, 13.0], [12.0, 11.0, 14.0, 15.0]), END_TO_END)
    assert PAIRS.rule_line("w", "rounds_per_s", entry["metrics"]["rounds_per_s"]) == (
        "w rounds_per_s: change better in 3 of 4 pairs, median ratio 1.1304, gap 1.5 within the "
        "parent IQR 1.5")
    wide = PAIRS.summarize(pairs([10.0, 10.0], [12.0, 12.0]), END_TO_END)["metrics"]["rounds_per_s"]
    assert "gap 2 above the parent IQR 0" in PAIRS.rule_line("w", "rounds_per_s", wide)
