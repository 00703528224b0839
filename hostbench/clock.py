"""Host seconds normalised to a reference host speed.

The benchmark's host is shared: its speed switches between states about
1.6x apart for seconds at a time, and CPU time moves with wall time, so
a raw median over one run mostly measures the host's state during that
run.  The clock therefore runs a fixed calibration kernel (interpreter
loop plus small numpy gathers, scans and scatters, the mix the
simulator's host code runs, and nothing from ``repro``) after every
timed call, and reports each call as::

    raw seconds * REFERENCE_S / mean(kernel seconds just before and after)

that is, the seconds the call would take on the host at the speed where
the kernel takes ``REFERENCE_S``.  Over six runs each of ``hub-skew`` and
``observed-matrix`` this cut the run-to-run spread of the pass median
about two times, and of the single warm-up pass 1.3 to 4.5 times.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Tuple

import numpy as np

__all__ = ["Clock", "REFERENCE_S"]

#: the kernel's median seconds on the host the committed figures come
#: from (a 2-vCPU shared VM); normalised seconds are seconds at that speed
REFERENCE_S = 0.0027


class Clock:
    """Times calls in raw and normalised host seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._index = rng.integers(0, 1 << 15, size=1 << 15)
        self._values = rng.random(1 << 15)
        self._scatter = np.zeros(1 << 15)
        self._table = {i: i for i in range(4096)}
        self.kernel()  # first touch of the arrays, not a sample
        self._last = self.kernel()

    def kernel(self) -> float:
        """Seconds one run of the calibration kernel takes now."""
        start = perf_counter()
        table = self._table
        total = 0
        for x in range(6000):
            total += table[x & 4095]
        for _ in range(6):
            gathered = self._values[self._index]
            np.cumsum(gathered)
            np.add.at(self._scatter, self._index[:2000], 1.0)
            np.bincount(self._index[:4000])
            np.flatnonzero(gathered > 0.5)
        return perf_counter() - start

    def time(
        self, fn: Callable[..., Any], *args: Any
    ) -> Tuple[Any, float, float]:
        """``fn(*args)``'s value, raw seconds and normalised seconds."""
        before = self._last
        start = perf_counter()
        value = fn(*args)
        raw = perf_counter() - start
        self._last = after = self.kernel()
        return value, raw, raw * REFERENCE_S * 2.0 / (before + after)
