"""Smoke tests for the narrative scripts under ``demos/``.

Importing every demo catches a name the package no longer exports;
every demo also runs end to end, each in under a second.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


@pytest.mark.parametrize("name", [
    "single_round_walkthrough.py", "dishonest_receiver.py", "lossy_ring.py", "attack_gallery.py",
    "error_rate_curve.py",
])
def test_quick_demo_runs(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
