"""The one helper module of the tests: a session's records joined into one
table, and the small helpers more than one test module reads.

A test that reads what a session records runs the real ``run_session``
through ``recorded``, never a hand-built copy of its chunk pipeline. No
test module imports another (``test_imports.py``).
"""

import importlib.util
import math
import random
from dataclasses import fields
from pathlib import Path

import numpy as np

from sqss.config import SimConfig
from sqss.optics import dark_points
from sqss.protocol import RoundTable, SessionResult, run_session


def recorded(config: SimConfig) -> tuple[SessionResult, RoundTable]:
    """Run ``config`` with a records callback; returns the result and every
    chunk it was handed, joined column by column into one table."""
    chunks: list[RoundTable] = []
    result = run_session(config, chunks.append)
    columns = zip(*([getattr(t, f.name) for f in fields(RoundTable)] for t in chunks))
    table = RoundTable(*(np.concatenate(c) if isinstance(c[0], np.ndarray) else c[0]
                         for c in columns))
    return result, table


def counted_dark(count, q):
    """Rec-1's dark table for pulses counted at ``count`` photons, each
    reaching its splitter with probability ``q``: a class per distinct
    count m, g_k = y_k^m (0^0 = 1: a pulse that brings no photon stays
    dark). Returns the table and each pulse's column."""
    counts, column = np.unique(count, return_inverse=True)
    return np.power(dark_points(q), counts), column


def circular_distance(a, b):
    """Distance between two polarizations on the half-circle, which wraps at pi."""
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def _poisson(r: random.Random, lam: float) -> int:
    """Knuth's method: count uniforms until their product drops below exp(-lam)."""
    limit, k, product = math.exp(-lam), 0, r.random()
    while product > limit:
        k += 1
        product *= r.random()
    return k


def load_script(path: Path):
    """The script at ``path`` (under ``tools/`` or ``demos/``), imported as a
    module named after its file."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
