"""The seed-offset hook ``tools/gate_sweep.py`` relies on: with ``tools``
first on ``PYTHONPATH``, ``tools/sitecustomize.py`` mixes
``GATE_SWEEP_OFFSET`` into every seed a session draws from, its physics,
Eve's secrets and the privacy-amplification hash alike."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PNS_SESSION = ["simulate", "--override", "adversary=pns", "--override", "receivers=3",
               "--override", "pns_channel=3", "--override", "transmission=0.9",
               "--override", "rounds=5000", "--override", "seed=5"]


def simulate(offset: int) -> dict[str, str]:
    """The ``key=value`` lines of a short ``pns`` session run under ``offset``."""
    env = dict(os.environ, GATE_SWEEP_OFFSET=str(offset),
               PYTHONPATH=os.pathsep.join((str(ROOT / "tools"), str(ROOT / "src"))))
    proc = subprocess.run([sys.executable, "-m", "sqss", *PNS_SESSION], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return dict(line.split("=", 1) for line in proc.stdout.splitlines())


def test_an_offset_moves_every_stream_and_repeats():
    plain, offset, again = simulate(0), simulate(7), simulate(7)
    assert offset == again
    assert offset["alice_key_sha256"] != plain["alice_key_sha256"]
    assert offset["eve_recovered_bits"] != plain["eve_recovered_bits"]
    assert offset["eve_guess_accuracy"] != plain["eve_guess_accuracy"]
