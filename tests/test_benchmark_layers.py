"""The layers the benchmark's traced pass reports still name code in the package.

``perfbench/tracing.py`` finds each layer by the attribute names in its
``PATCHES`` and skips a name the package no longer has, so a renamed
function silently turns its layer's metrics into None. CI's traced
smoke run fails on that; this test fails first, on every Python.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# The layers whose metrics CI's traced smoke runs require.
REQUIRED = (
    "protocol.round", "protocol.sift", "protocol.decode", "channel", "optics",
    "protocol.reconcile", "protocol.toeplitz", "protocol.digest", "adversary.score",
    "adversary.intercept", "adversary.usd",
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer", REQUIRED)
def test_every_required_layer_names_code_in_the_package(layer):
    names = [(module, name) for module, name, patched, _ in load_tracing().PATCHES
             if patched == layer]
    assert names, f"{layer} is not a layer of the tracer"
    present = [f"{module.__name__}.{name}" for module, name in names
               if callable(getattr(module, name, None))]
    assert present, f"no name of {layer} is left: {[name for _, name in names]}"
