"""Host-time spans around the calls the benchmark makes into each layer.

The probes measure the program from outside, through its public seams:

* :class:`TimedDevice` — a :class:`~repro.gpusim.device.Device` subclass
  passed as ``gpu_peel(device=...)``; spans ``device.malloc``,
  ``device.free``, ``device.read_back`` and ``device.launch``.
* :class:`TimedEngine` — an :class:`~repro.gpusim.engine.ExecutionEngine`
  delegate that keeps the wrapped engine's ``name`` (so the
  ``engine.<name>`` counter tag and the dataflow engine prediction are
  unchanged); spans ``engine.<kernel>`` and tallies the launch's
  :class:`~repro.gpusim.scheduler.KernelStats`.  Multi-GPU workers take
  it through ``multi_gpu_peel(engine=...)``.

A :class:`Probe` keeps its spans in memory as ``(name, start, end,
parent)`` on one host clock; the parent is the innermost span open when
the span began.  A layer's self time is its span's duration minus the
part of that interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.gpusim.device import Device
from repro.gpusim.engine import ExecutionEngine, get_engine
from repro.gpusim.memory import DeviceArray
from repro.gpusim.scheduler import KernelStats
from repro.gpusim.spec import DeviceSpec

__all__ = ["Probe", "Span", "TimedDevice", "TimedEngine", "self_times"]


@dataclass
class Span:
    """One timed call: host seconds on :func:`time.perf_counter`."""

    name: str
    start: float
    end: float
    #: index of the enclosing span in the same probe, or ``None``
    parent: Optional[int]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Probe:
    """Span and count recorder for one traced pass or set-up."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: counts taken at the same boundaries as the spans
        self.counts: Counter = Counter()
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(
            name, perf_counter(), float("nan"),
            self._open[-1] if self._open else None,
        )
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._open.pop()

    def engine(self) -> "TimedEngine":
        """The default engine, wrapped."""
        return TimedEngine(self, get_engine(None))

    def device(self, spec: DeviceSpec | None = None) -> "TimedDevice":
        """A device built as ``gpu_peel`` builds one, on the timed engine."""
        return TimedDevice(self, spec=spec, engine=self.engine())

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, summed ``seconds`` and ``self_s``.

        Span names after the first ``:`` are labels (``driver:gpu-vp``)
        and are folded into the name before it.
        """
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "seconds": 0.0, "self_s": 0.0}
        )
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out[span.name.split(":", 1)[0]]
            row["calls"] += 1
            row["seconds"] += span.seconds
            row["self_s"] += own
        return out


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span (so overlapping or overhanging children are
    counted once and only inside their parent)."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(
            (spans[c].start, spans[c].end) for c in children[index]
        ):
            lo = max(lo, cursor)
            hi = min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.seconds - covered)
    return out


class TimedEngine(ExecutionEngine):
    """Runs every launch on ``inner`` inside an ``engine.<kernel>`` span."""

    def __init__(self, probe: Probe, inner: ExecutionEngine) -> None:
        self.probe = probe
        self.inner = inner
        self.name = inner.name

    def run(self, kernel_fn: Any, *args: Any, **kwargs: Any) -> KernelStats:
        probe = self.probe
        with probe.span(f"engine.{kernel_fn.__name__}"):
            stats = self.inner.run(kernel_fn, *args, **kwargs)
        probe.counts["engine.warp_instructions"] += stats.issued
        probe.counts["engine.sim_cycles"] += stats.cycles
        probe.counts[f"engine.served.{stats.served_by}"] += 1
        return stats


class TimedDevice(Device):
    """A :class:`Device` whose host-facing calls are spans of ``probe``."""

    def __init__(self, probe: Probe, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.probe = probe

    def malloc(self, name: str, size: Any, fill: int = 0) -> DeviceArray:
        with self.probe.span("device.malloc"):
            array = super().malloc(name, size, fill)
        self.probe.counts["device.malloc_bytes"] += array.device_bytes
        return array

    def free(self, name: str) -> None:
        with self.probe.span("device.free"):
            super().free(name)

    def read_back(self, array: DeviceArray) -> Any:
        with self.probe.span("device.read_back"):
            return super().read_back(array)

    def launch(self, *args: Any, **kwargs: Any) -> KernelStats:
        with self.probe.span("device.launch"):
            return super().launch(*args, **kwargs)
