"""Lossy fiber links.

Loss acts on the photon count only, never on a polarization: a link of
length l km with attenuation alpha dB/km passes each photon with
probability T = 10^(-alpha*l/10), which scales the mean photon number by
T. Every hop of the ring is the same link, so the ring has one hop
transmission (``SimConfig.hop_transmission``). Thinnings compose. The
round engine reads the law of the thinned pulse and draws no count; the
trace splits the photons lost on the ring over the stretches between its
stages with ``thin_batch``.
"""

from __future__ import annotations

import numpy as np


def transmission(length_km: float, loss_db_per_km: float) -> float:
    """Intensity transmission 10^(-alpha*l/10) of a link ``length_km`` long
    with attenuation ``loss_db_per_km``; both must be >= 0."""
    if length_km < 0 or loss_db_per_km < 0:
        raise ValueError(f"link length and loss must be >= 0, got {length_km}, {loss_db_per_km}")
    return 10.0 ** (-(loss_db_per_km * length_km) / 10.0)


def thin_batch(count: np.ndarray, t: float, rng: np.random.Generator) -> np.ndarray:
    """Lossy propagation of pulses of ``count`` photons: each photon
    independently survives with probability t."""
    if not 0.0 < t <= 1.0:
        raise ValueError(f"transmission must be in (0, 1], got {t}")
    if t == 1.0:
        return count
    return rng.binomial(count, t)

