"""Lossy fiber links and the ring topology connecting the parties.

Loss acts on the photon count only: a link of length l km with
attenuation alpha dB/km passes each photon with probability
T = 10^(-alpha*l/10), which scales the mean photon number by T.
Polarization is never affected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optics import PhotonBatch


@dataclass(frozen=True, slots=True)
class FiberLink:
    length_km: float
    loss_db_per_km: float

    def __post_init__(self) -> None:
        if self.length_km < 0:
            raise ValueError(f"length_km must be >= 0, got {self.length_km}")
        if self.loss_db_per_km < 0:
            raise ValueError(f"loss_db_per_km must be >= 0, got {self.loss_db_per_km}")


def transmission(link: FiberLink) -> float:
    """Intensity transmission 10^(-alpha*l/10) of one link."""
    return 10.0 ** (-(link.loss_db_per_km * link.length_km) / 10.0)


def thin_batch(batch: PhotonBatch, t: float, rng: np.random.Generator) -> PhotonBatch:
    """Lossy propagation: each photon independently survives with probability t."""
    if not 0.0 < t <= 1.0:
        raise ValueError(f"transmission must be in (0, 1], got {t}")
    if t == 1.0:
        return batch
    return PhotonBatch(rng.binomial(batch.count, t), batch.polarization)


@dataclass(frozen=True)
class Topology:
    """Physical ring Alice -> Rec-1 -> ... -> Rec-N -> Alice.

    ``links[i]`` joins party i to party i+1 around the ring, with Alice
    at position 0, so there are N+1 links for N receivers. The backward
    path reuses the same physical links in reverse order; the pulse
    therefore crosses 2N+1 lossy hops between Alice's source and Rec-1's
    detectors.
    """

    links: tuple[FiberLink, ...]

    def __post_init__(self) -> None:
        if len(self.links) < 2:
            raise ValueError("a ring needs at least 2 links (one receiver)")

    @classmethod
    def equal_ring(cls, receivers: int, length_km: float, loss_db_per_km: float) -> "Topology":
        if receivers < 1:
            raise ValueError(f"receivers must be >= 1, got {receivers}")
        return cls(tuple(FiberLink(length_km, loss_db_per_km) for _ in range(receivers + 1)))

    @property
    def receivers(self) -> int:
        return len(self.links) - 1

    def hop_transmissions(self) -> list[float]:
        """Per-hop transmissions in pulse travel order.

        Forward hops 1..N+1 walk the ring from Alice back to Alice;
        backward hops N+2..2N+1 retrace links N, N-1, ..., 1.
        """
        forward = [transmission(link) for link in self.links]
        backward = [transmission(self.links[i]) for i in range(self.receivers, 0, -1)]
        return forward + backward


def uniform_hop_transmissions(receivers: int, t: float) -> list[float]:
    """Hop transmissions for an equal-distance ring with per-link value t."""
    if receivers < 1:
        raise ValueError(f"receivers must be >= 1, got {receivers}")
    if not 0.0 < t <= 1.0:
        raise ValueError(f"transmission must be in (0, 1], got {t}")
    return [t] * (2 * receivers + 1)


def solve_loss_budget(target_transmission: float) -> float:
    """Total loss delta = alpha*l in dB that yields the given transmission."""
    if not 0.0 < target_transmission <= 1.0:
        raise ValueError(f"transmission must be in (0, 1], got {target_transmission}")
    return -10.0 * math.log10(target_transmission)
