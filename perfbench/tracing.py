"""Spans around the calls into each sqss layer, recorded from outside the package.

Each function is replaced under the name its caller looks it up by:
``protocol`` imports the optics and channel functions by name, reaches
``pns_intercept`` through its ``adv`` module alias, and ``analysis``
imports ``impersonate_round`` by name. A name missing from the code
under test is skipped, and the metrics of a layer with no name left
report ``None``.

Spans are kept in flat arrays (name, start, end, parent, session) while
the traced pass runs; self time is a span's duration minus its
children's, computed once the pass ends.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

from sqss import adversary, analysis, protocol

# (module, attribute, layer, size of the call's input and output, or None)
PATCHES = (
    (protocol, "_run_round", "protocol.round", None),
    (protocol, "sift", "protocol.sift", None),
    (protocol, "_decode_phase", "protocol.decode", None),
    (protocol, "parity_survivor_indices", "protocol.reconcile",
     lambda args, out: (len(args[0]), len(out))),
    (protocol, "toeplitz_compress", "protocol.toeplitz", lambda args, out: (len(args[0]), len(out))),
    (protocol, "key_digest", "protocol.digest", lambda args, out: (len(args[0]), 0)),
    (protocol, "integrity_check", "protocol.digest", None),
    (protocol, "_score_eve", "adversary.score", None),
    (protocol, "rotate", "optics", None),
    (protocol, "rotate_batch", "optics", None),
    (protocol, "beam_split", "optics", None),
    (protocol, "split_batch", "optics", None),
    (protocol, "sample_photon_count", "optics", None),
    (protocol, "pbs_measure", "optics", None),
    (adversary, "pbs_measure", "optics", None),
    (protocol, "attenuate", "channel", None),
    (protocol, "thin_batch", "channel", None),
    (adversary, "pns_intercept", "adversary.intercept", None),
    (analysis, "impersonate_round", "adversary.usd", None),
)
# Root spans: the benchmark's own call into the package for one operation.
ROOTS = {"session": "protocol.session", "mc": "analysis.mc"}

LAYERS = tuple(dict.fromkeys([layer for _, _, layer, _ in PATCHES] + list(ROOTS.values())))


class Tracer:
    def __init__(self) -> None:
        self.layer_id = {layer: i for i, layer in enumerate(LAYERS)}
        self.starts = array("q")
        self.ends = array("q")
        self.names = array("B")
        self.parents = array("i")
        self.sessions = array("i")
        self.sizes: list[tuple[int, int, int]] = []  # (span, input size, output size)
        self.stack = [-1]
        self.session = -1
        self.present = set(ROOTS.values())
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, layer_id: int) -> int:
        span = len(self.starts)
        self.starts.append(0)
        self.ends.append(0)
        self.names.append(layer_id)
        self.parents.append(self.stack[-1])
        self.sessions.append(self.session)
        self.stack.append(span)
        return span

    def _wrap(self, fn, layer: str, size):
        layer_id = self.layer_id[layer]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer_id)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[span] = clock()
                self.starts[span] = start
                self.stack.pop()
            if size is not None:
                self.sizes.append((span, *size(args, out)))
            return out

        return traced

    def install(self) -> None:
        for module, name, layer, size in PATCHES:
            fn = getattr(module, name, None)
            if fn is None:
                continue
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(fn, layer, size))
            self.present.add(layer)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def root(self, layer: str, session: int, call):
        """Run ``call()`` inside a root span for one operation."""
        self.session = session
        span = self._open(self.layer_id[layer])
        start = time.perf_counter_ns()
        try:
            out = call()
        finally:
            self.ends[span] = time.perf_counter_ns()
            self.starts[span] = start
            self.stack.pop()
        return out

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            layers=np.array(LAYERS),
            name=np.frombuffer(self.names, dtype=np.uint8),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            session=np.frombuffer(self.sessions, dtype=np.int32),
        )

    def totals(self, scale: float = 1.0) -> dict[str, dict[str, float]]:
        """Per layer: span count, total and self microseconds times ``scale``, and summed call sizes."""
        name = np.frombuffer(self.names, dtype=np.uint8)
        parent = np.frombuffer(self.parents, dtype=np.int32)
        duration = (np.frombuffer(self.ends, dtype=np.int64)
                    - np.frombuffer(self.starts, dtype=np.int64)) * (1e-3 * scale)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
        own = duration - covered
        size_in = np.zeros(len(duration))
        size_out = np.zeros(len(duration))
        for span, n_in, n_out in self.sizes:
            size_in[span], size_out[span] = n_in, n_out
        out = {}
        for layer, i in self.layer_id.items():
            mask = name == i
            out[layer] = {
                "calls": int(mask.sum()),
                "us": float(duration[mask].sum()),
                "self_us": float(own[mask].sum()),
                "in": float(size_in[mask].sum()),
                "out": float(size_out[mask].sum()),
            }
        return out


def layer_metrics(totals, present, rounds: int, kept: int, sessions: int, trials: int) -> dict:
    """Per-layer metrics of a traced pass; a layer the workload never enters reports 0."""

    def ratio(layer: str, key: str, denominator: float, over: str | None = None):
        if layer not in present:
            return None
        numerator = totals[layer][key]
        if over is not None:
            denominator = totals[layer][over]
        return numerator / denominator if denominator else 0.0

    return {
        "protocol.round.us_per_round": ratio("protocol.round", "us", rounds),
        "protocol.round.self_us_per_round": ratio("protocol.round", "self_us", rounds),
        "optics.us_per_round": ratio("optics", "us", rounds),
        "optics.calls_per_round": ratio("optics", "calls", rounds),
        "channel.us_per_round": ratio("channel", "us", rounds),
        "channel.calls_per_round": ratio("channel", "calls", rounds),
        "adversary.intercept.us_per_round": ratio("adversary.intercept", "us", rounds),
        "adversary.intercept.calls_per_round": ratio("adversary.intercept", "calls", rounds),
        "adversary.score.us_per_round": ratio("adversary.score", "us", rounds),
        "protocol.sift.us_per_round": ratio("protocol.sift", "us", rounds),
        "protocol.sift.keep_ratio": kept / rounds if rounds else 0.0,
        "protocol.decode.us_per_kept": ratio("protocol.decode", "us", kept),
        "protocol.reconcile.us_per_bit": ratio("protocol.reconcile", "us", 0, over="in"),
        "protocol.reconcile.survivor_ratio": ratio("protocol.reconcile", "out", 0, over="in"),
        "protocol.toeplitz.us_per_bit": ratio("protocol.toeplitz", "us", 0, over="in"),
        "protocol.toeplitz.calls_per_session": ratio("protocol.toeplitz", "calls", sessions),
        "protocol.digest.us_per_bit": ratio("protocol.digest", "us", 0, over="in"),
        "protocol.session.unattributed_us_per_round": ratio("protocol.session", "self_us", rounds),
        "analysis.mc.us_per_trial": ratio("analysis.mc", "us", trials),
        "analysis.mc.self_us_per_trial": ratio("analysis.mc", "self_us", trials),
        "adversary.usd.us_per_trial": ratio("adversary.usd", "us", trials),
    }
