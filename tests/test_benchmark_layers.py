"""The layers the benchmark's traced pass reports still name code in the package.

``perfbench/tracing.py`` finds each layer by the attribute names in its
``PATCHES`` and skips a name the package no longer has, so a renamed
function silently turns its layer's metrics into None. CI's traced
smoke runs (``tools/ci_checks.py``) fail on that; this test fails first,
on every Python.
"""

from pathlib import Path

import pytest
from session_records import load_script

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def required_layers():
    """The layer of each metric CI's smoke runs require, less the tracer's roots,
    which wrap no name of the package."""
    smoke = load_script(ROOT / "tools" / "ci_checks.py").SMOKE
    layers = dict.fromkeys(metric.rsplit(".", 1)[0] for present, nonzero in smoke.values()
                           for metric in present + nonzero)
    return [layer for layer in layers if layer not in load_script(TRACING).ROOTS.values()]


@pytest.mark.parametrize("layer", required_layers())
def test_every_required_layer_names_code_in_the_package(layer):
    names = [(module, name) for module, name, patched, _ in load_script(TRACING).PATCHES
             if patched == layer]
    assert names, f"{layer} is not a layer of the tracer"
    present = [f"{module.__name__}.{name}" for module, name in names
               if callable(getattr(module, name, None))]
    assert present, f"no name of {layer} is left: {[name for _, name in names]}"
