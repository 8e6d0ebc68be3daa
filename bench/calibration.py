"""Scale measured times to a machine of fixed reference speed.

The machines this benchmark runs on are shared, and their speed for
interpreted Python drifts by a third within minutes, which swamps the
differences a change makes.  So a fixed pure-Python kernel, owned by the
benchmark and never by the library, runs between ops about every 30 ms.
Each op's time is multiplied by ``NOMINAL_S / k``, with ``k`` the median of
the last few kernel times: it reads as the time on a machine where the
kernel takes exactly ``NOMINAL_S``.  Raw times are reported alongside.
"""

from __future__ import annotations

import statistics
from collections import deque
from time import perf_counter

NOMINAL_S = 0.001
EVERY_S = 0.03
WINDOW = 3


def kernel() -> int:
    """Tuple hashing and dict updates, the staple of the library's inner loops."""
    table = {}
    for i in range(3000):
        key = (i, i * 7 % 13)
        table[key] = table.get(key, 0) ^ 1
    return len(table)


def kernel_seconds() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Clock:
    """Rolling speed estimate; ``scale()`` converts raw seconds to reference seconds."""

    def __init__(self):
        self.recent = deque(maxlen=WINDOW)
        self.samples = []
        self._next = 0.0
        for _ in range(WINDOW):
            self.measure()

    def measure(self):
        t = kernel_seconds()
        self.recent.append(t)
        self.samples.append(t)
        self._next = perf_counter() + EVERY_S

    def tick(self):
        if perf_counter() >= self._next:
            self.measure()

    def scale(self) -> float:
        return NOMINAL_S / statistics.median(self.recent)
