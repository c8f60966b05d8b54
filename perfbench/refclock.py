"""Reference seconds: wall time scaled by the host's momentary speed.

The host's speed swings by about a fifth over tens of seconds on a
shared VM, and by up to 1.6x between two states that alternate within
seconds, for pure-Python loops in CPU time as much as in wall time,
while two measurements a few hundred milliseconds apart move together.
So a fixed pure-Python loop runs right before and right after each
measurement, on the same CPU, and the measurement is scaled by
REFERENCE_S over the loop's mean time.
"""

import math
import time

REFERENCE_ITERATIONS = 80_000
# Seconds the loop takes at reference speed; a reference second is a wall
# second at the speed at which the loop takes this long.
REFERENCE_S = 0.02


def loop() -> float:
    """Run the reference loop once; returns its wall seconds."""
    start = time.perf_counter()
    acc, window = 0.0, []
    for i in range(REFERENCE_ITERATIONS):
        x = (i * 0.618) % math.pi
        window.append((x, i & 3))
        if len(window) > 64:
            window.clear()
        acc += math.cos(x)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Reference seconds per wall second between two loops of these wall seconds."""
    return 2.0 * REFERENCE_S / (before + after)


class ReferenceClock:
    """Measures calls back to back; the loop after one call serves as the loop before the next."""

    def __init__(self) -> None:
        self.last: float | None = None

    def measure(self, call):
        """Run ``call()``; returns its result, wall seconds and reference seconds per wall second."""
        before = loop() if self.last is None else self.last
        start = time.perf_counter()
        out = call()
        wall = time.perf_counter() - start
        self.last = loop()
        return out, wall, scale(before, self.last)
