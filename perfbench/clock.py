"""Wall time rescaled by an interleaved calibration loop.

The host this benchmark was built on switches between a fast and a slow
state, about 1.8x apart, every few seconds (other tenants share the CPU).
A median over a 30 s run then measures how long the host spent in each
state as much as it measures the program. :class:`NormalizedClock` cancels
that: at every :meth:`~NormalizedClock.mark` it times a fixed pure-Python
loop (heap, dict and random-number work, none of it the program's code),
and it rescales the wall time between two marks by the mean of the two
adjacent calibrations. Readings are *reference seconds*: wall seconds on a
host that runs the loop in :data:`REFERENCE_S`. In the host's fast state
they are close to plain wall seconds.

The calibration itself is excluded: each segment starts when the previous
mark's calibration ends.
"""

from __future__ import annotations

import heapq
import random
import time

#: Calibration loop iterations (about 5 ms on the reference host).
ITERATIONS = 8000
#: Loop time on the reference host in its fast state (2 vCPU Xeon VM).
REFERENCE_S = 0.0046


def calibrate() -> float:
    """Seconds one calibration loop takes now."""
    start = time.perf_counter()
    rng = random.Random(12345)
    draw = rng.random
    push, pop = heapq.heappush, heapq.heappop
    heap: list = []
    table: dict = {}
    for i in range(ITERATIONS):
        push(heap, (draw(), i))
        table[i & 255] = i
        if len(heap) > 64:
            pop(heap)
    return time.perf_counter() - start


class NormalizedClock:
    """Monotonic reference-second clock advanced only at marks."""

    def __init__(self) -> None:
        self.now = 0.0
        #: Every calibration time measured, in seconds.
        self.samples: list = []
        self._segment_start = None
        self._last_cal = 0.0

    def mark(self) -> float:
        """Close the segment since the last mark; return the clock reading."""
        end = time.perf_counter()
        cal = calibrate()
        self.samples.append(cal)
        if self._segment_start is not None:
            scale = REFERENCE_S / ((self._last_cal + cal) / 2)
            self.now += (end - self._segment_start) * scale
        self._last_cal = cal
        self._segment_start = time.perf_counter()
        return self.now


class WallClock:
    """Plain wall time with the same interface, for untraced and traced
    single operations, whose times are compared with each other."""

    def __init__(self) -> None:
        self.samples: list = []

    @staticmethod
    def mark() -> float:
        return time.perf_counter()
