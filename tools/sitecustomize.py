"""Seed-offset hook of ``tools/gate_sweep.py``: mixes ``GATE_SWEEP_OFFSET``
into every seed that ``numpy.random.default_rng`` is given.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that holds one. Only ``gate_sweep.py`` puts this directory on
``PYTHONPATH``, for the test processes it starts and, through the
environment, for their children. A seed becomes a ``SeedSequence`` whose
spawn key ends in the offset, so equal seeds stay equal within a run and
every offset gives other streams. With the offset unset or 0 nothing is
patched. ``random.Random`` and hypothesis keep their own seeds.
"""

import os

_OFFSET = int(os.environ.get("GATE_SWEEP_OFFSET", "0"))

if _OFFSET:
    import numpy as np

    _default_rng = np.random.default_rng

    def _offset_default_rng(seed=None):
        if isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, _OFFSET),
                                          pool_size=seed.pool_size)
        elif seed is not None and not isinstance(seed, (np.random.BitGenerator,
                                                         np.random.Generator)):
            seed = np.random.SeedSequence(seed, spawn_key=(_OFFSET,))
        return _default_rng(seed)

    np.random.default_rng = _offset_default_rng
