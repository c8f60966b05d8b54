"""The checks CI runs beyond tier-1 (``tools/ci_checks.py``) decide as their
rows say. Fed synthetic values and benchmark last lines, every row passes
clean input and fails, naming the field, each value that misses. No row
runs here: no benchmark and no 10^7-round session."""

import json
from pathlib import Path

import pytest
from session_records import load_script

CHECKS = load_script(Path(__file__).resolve().parent.parent / "tools" / "ci_checks.py")
REQUIRED = [(key, metric) for key, (present, nonzero) in CHECKS.SMOKE.items()
            for metric in present + nonzero]
NONZERO = [(key, metric) for key, (_, nonzero) in CHECKS.SMOKE.items() for metric in nonzero]
BELOW = [(row, field, bound * factor) for row, (_, _, _, below) in CHECKS.BOUNDS.items()
         for field, bound in below.items() for factor in (1, 1.5)]


def smoke_line(key, failed=0):
    """A benchmark result line for the smoke row ``key``: ``failed``
    failures, and every metric the row requires at 1.0."""
    metrics = {name: {"value": 1.0, "unit": "us"} for name in sum(CHECKS.SMOKE[key], ())}
    return json.dumps({"workload": key[0], "failed": failed, "metrics": metrics})


def bounded(row, **changed):
    """What the row ``row`` could measure: every value it must equal, every
    bounded one at half its bound, then the ``changed`` values."""
    _, _, equal, below = CHECKS.BOUNDS[row]
    return CHECKS.judge({**equal, **{k: v / 2 for k, v in below.items()}, **changed}, equal, below)


def test_eleven_rows():
    assert len(CHECKS.BOUNDS) == 6 and len(CHECKS.SMOKE) == 5


@pytest.mark.parametrize("key", list(CHECKS.SMOKE))
def test_a_clean_smoke_line_passes(key):
    shown, missed = CHECKS.check_smoke(key, smoke_line(key))
    assert missed == [] and "failed=0 (== 0)" in shown


@pytest.mark.parametrize("key", list(CHECKS.SMOKE))
def test_a_failed_operation_fails(key):
    assert CHECKS.check_smoke(key, smoke_line(key, failed=1))[1] == ["failed"]


@pytest.mark.parametrize("key", list(CHECKS.SMOKE))
def test_a_failed_benchmark_process_fails(key):
    assert CHECKS.check_smoke(key, smoke_line(key), code=1)[1] == ["exit"]


@pytest.mark.parametrize("key, metric", REQUIRED)
def test_a_required_metric_without_a_value_fails(key, metric):
    line = json.loads(smoke_line(key))
    line["metrics"][metric]["value"] = None
    assert CHECKS.check_smoke(key, json.dumps(line))[1] == [metric]
    del line["metrics"][metric]
    assert CHECKS.check_smoke(key, json.dumps(line))[1] == [metric]


@pytest.mark.parametrize("key, metric", NONZERO)
def test_a_layer_that_is_never_called_fails(key, metric):
    line = json.loads(smoke_line(key))
    line["metrics"][metric]["value"] = 0.0
    assert CHECKS.check_smoke(key, json.dumps(line))[1] == [metric]


def test_the_traced_runs_require_their_layers_to_be_called():
    assert "adversary.intercept.calls_per_round" in CHECKS.SMOKE[("pns_n5_lossy", 1)][1]
    assert "adversary.usd.us_per_trial" in CHECKS.SMOKE[("mc_impersonate", 1)][1]


@pytest.mark.parametrize("last_line", ["", "Traceback (most recent call last):", "{"])
def test_a_last_line_that_is_not_json_fails(last_line):
    for key in CHECKS.SMOKE:
        shown, missed = CHECKS.check_smoke(key, last_line)
        assert "failed" in missed and "not JSON" in shown


@pytest.mark.parametrize("row", list(CHECKS.BOUNDS))
def test_values_within_bounds_pass(row):
    assert bounded(row)[1] == []


@pytest.mark.parametrize("row, field, value", BELOW)
def test_a_value_at_or_over_its_bound_fails(row, field, value):
    shown, missed = bounded(row, **{field: value})
    assert missed == [field] and f"{field}={value:.3g} (<" in shown


@pytest.mark.parametrize("row, field, value", [
    ("honest 10^7", "verdict", "abort_retry"),
    ("pns 10^7", "verdict", "abort_retry"),
    ("impersonate 10^7", "verdict", "accept"),
    ("MC walk mu=1e5", "exit", 1),
    ("MC walk mu=9.2e18", "exit", 1),
    ("CSV 10^6", "exit", 64),
    ("CSV 10^6", "lines", 10**6),
])
def test_a_wrong_verdict_exit_or_line_count_fails(row, field, value):
    shown, missed = bounded(row, **{field: value})
    assert missed == [field] and f"{field}={value!r} (==" in shown
