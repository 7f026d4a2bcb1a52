"""Machine-speed probe: report times at a fixed reference speed.

The machine this benchmark was written on changes speed by up to 2x from one
second to the next: other tenants share its cores, and a process's CPU time
tracks its wall time, so it is the CPU that slows, not the scheduler. Raw
wall times of one build therefore spread by about 30% between runs. Every
timed interval is scaled by probes taken right before and right after it;
a probe is a fixed mix of pure-Python float arithmetic and small-array
NumPy calls, the kinds of work respfit does, and shares no code with it.

A time at reference speed is raw_seconds * REFERENCE_S / probe_seconds: the
time the interval would take on a machine where one probe takes REFERENCE_S.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 1e-3


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    start = time.perf_counter()
    x, y = 30.0, 20.0
    for _ in range(3000):
        v = 0.14 * math.exp(-0.05 * (100.0 - y)) * x
        x += 0.01 * (1.0 - 0.5 * v * x)
        y += 0.01 * (1.0 - 0.8 * v * y)
    a = np.linspace(0.0, 1.0, 51)
    for _ in range(100):
        a = np.clip((2.0 * a - 3.0) * a * a + 1.0, 0.0, 1.0)
    return time.perf_counter() - start


class SpeedScale:
    """Scales consecutive intervals to reference speed.

    Each call to scale() probes once; that probe ends the interval just
    measured and starts the next one, so intervals must follow each other
    with little other work in between.
    """

    def __init__(self):
        probe()  # the first call pays NumPy's one-time costs
        self._before = probe()
        self.probes = [self._before]

    def scale(self, seconds: float) -> float:
        after = probe()
        self.probes.append(after)
        scaled = seconds * 2.0 * REFERENCE_S / (self._before + after)
        self._before = after
        return scaled
