"""The memory tracker: allocation lifetimes and peak attribution.

A :class:`MemoryTracker` is attached to a
:class:`~repro.gpusim.device.Device` (a driver's ``memtrace=True``) and
receives a hook call for every global-memory transition the device
performs: ``malloc``, ``free``, invalid frees, read-backs of freed
arrays, and per-block shared-memory allocations inside kernels.  From
those it maintains:

* the **full lifetime** of every allocation — name, bytes, alloc/free
  timestamps on the simulated-millisecond timeline, the owning scope
  (``"host"`` for host-program mallocs, the kernel or charge label for
  allocations made while a launch is in flight), and the peel round the
  host annotated via :meth:`set_round`;
* **per-round high-water marks** of ``in_use``;
* the **peak attribution snapshot**: whenever ``in_use`` sets a new
  high-water mark, the exact set of live arrays (plus the ``(context)``
  pseudo-allocation for the CUDA-context overhead the device books at
  construction) is captured, so the Table V peak is explainable as a
  sum of named arrays rather than an opaque scalar;
* **findings** for the three memory detectors of
  :data:`repro.sanitize.report.DETECTORS` — ``memory-leak`` (live at
  :meth:`finish`), ``double-free`` (an
  :class:`~repro.errors.InvalidFreeError` was raised), and
  ``use-after-free`` (a freed array was read back).

Tracking is observability-only: every hook is bookkeeping over values
the simulator computes anyway, so a traced run's simulated time,
counters, core numbers, and ``GlobalMemory.peak`` are byte-identical
to an untraced one (asserted by ``tests/properties/test_memtrace.py``).
The tracker's own ``peak.bytes`` mirrors ``GlobalMemory.peak``
*exactly* — both start at the context overhead and add the same
``device_bytes`` on the same events — which is what lets the report
validator demand that the attribution breakdown sums to the device's
reported peak to the byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sanitize.report import SanitizerFinding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memtrace.report import MemtraceReport

__all__ = [
    "AllocationRecord",
    "SharedFootprint",
    "PeakSnapshot",
    "MemoryTracker",
]

#: scope recorded for allocations made outside any kernel launch
HOST_SCOPE = "host"

#: breakdown entry name for the device's CUDA-context overhead
CONTEXT_NAME = "(context)"


@dataclass(frozen=True)
class AllocationRecord:
    """One allocation's full lifetime (timestamps in simulated ms)."""

    name: str
    bytes: int
    alloc_ms: float
    #: ``None`` while the allocation is still live (a leak when the
    #: run has finished)
    free_ms: Optional[float]
    #: ``"host"``, or the kernel / charge label active at alloc time
    scope: str
    #: peel round the host had annotated at alloc time, if any
    round_index: Optional[int]
    #: allocation sequence number on the device (0-based)
    index: int

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "bytes": self.bytes,
            "alloc_ms": self.alloc_ms,
            "free_ms": self.free_ms,
            "scope": self.scope,
            "round": self.round_index,
            "index": self.index,
        }


@dataclass(frozen=True)
class SharedFootprint:
    """Aggregated per-block shared-memory allocations of one kernel.

    One record per ``(kernel, name)`` pair: ``blocks`` blocks each
    allocated ``bytes_per_block`` (shared memory is per-block, so the
    footprint never aggregates across the grid).
    """

    kernel: str
    name: str
    bytes_per_block: int
    blocks: int

    def to_json(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "name": self.name,
            "bytes_per_block": self.bytes_per_block,
            "blocks": self.blocks,
        }


@dataclass(frozen=True)
class PeakSnapshot:
    """The attribution breakdown captured at the peak high-water mark.

    ``breakdown`` lists every live allocation (name, bytes) at the
    moment ``in_use`` last set a new maximum, including the
    ``(context)`` pseudo-entry; the byte values sum *exactly* to
    ``bytes`` (which mirrors ``GlobalMemory.peak``).
    """

    bytes: int
    ts_ms: float
    breakdown: Tuple[Tuple[str, int], ...]

    def shares(self) -> Dict[str, float]:
        """Breakdown as fractional shares of the peak."""
        if not self.bytes:
            return {name: 0.0 for name, _ in self.breakdown}
        return {name: b / self.bytes for name, b in self.breakdown}

    def to_json(self) -> Dict[str, object]:
        total = self.bytes
        return {
            "bytes": self.bytes,
            "ts_ms": self.ts_ms,
            "breakdown": [
                {
                    "name": name,
                    "bytes": b,
                    "share": (b / total) if total else 0.0,
                }
                for name, b in self.breakdown
            ],
        }


@dataclass
class _LiveAllocation:
    """Mutable in-flight record; frozen into an AllocationRecord later."""

    name: str
    bytes: int
    alloc_ms: float
    scope: str
    round_index: Optional[int]
    index: int

    def close(self, free_ms: Optional[float]) -> AllocationRecord:
        return AllocationRecord(
            name=self.name,
            bytes=self.bytes,
            alloc_ms=self.alloc_ms,
            free_ms=free_ms,
            scope=self.scope,
            round_index=self.round_index,
            index=self.index,
        )


@dataclass
class MemoryTracker:
    """Collects one device's memory telemetry; see the module docstring.

    ``worker`` names the device in multi-GPU runs (``"gpu0"`` ...);
    :func:`repro.core.multigpu.multi_gpu_peel` builds one tracker per
    worker so the merged report carries per-worker provenance.
    """

    worker: str = "gpu0"
    labels: Dict[str, str] = field(default_factory=dict)
    findings: List[SanitizerFinding] = field(default_factory=list)

    base_bytes: int = 0
    in_use_bytes: int = 0
    n_allocs: int = 0
    n_frees: int = 0

    _live: Dict[str, _LiveAllocation] = field(default_factory=dict)
    _closed: List[AllocationRecord] = field(default_factory=list)
    _peak: Optional[PeakSnapshot] = None
    _round: Optional[int] = None
    _round_high: Dict[int, int] = field(default_factory=dict)
    _scope: Optional[str] = None
    _shared: Dict[Tuple[str, str], List[int]] = field(default_factory=dict)
    _finished: bool = False

    # -- device wiring -------------------------------------------------------

    def attach(self, base_bytes: int, ts_ms: float = 0.0) -> None:
        """Register the device's base usage (the CUDA-context overhead).

        Called once by the owning device before any allocation; seeds
        ``in_use`` and the peak snapshot so the tracker's arithmetic
        mirrors :class:`~repro.gpusim.memory.GlobalMemory` exactly.
        """
        self.base_bytes = int(base_bytes)
        self.in_use_bytes = int(base_bytes)
        self._snapshot_peak(ts_ms)

    # -- host annotations ----------------------------------------------------

    def annotate(self, **labels: str) -> None:
        """Attach run-level labels (``variant=...``, ``algorithm=...``)."""
        self.labels.update(labels)

    def set_round(self, k: Optional[int]) -> None:
        """Stamp subsequent allocations with peel round ``k`` (None clears).

        Also opens the round's high-water entry at the current
        ``in_use``, so rounds that allocate nothing still report their
        (flat) footprint.
        """
        self._round = k
        if k is not None:
            high = self._round_high.get(k, 0)
            self._round_high[k] = max(high, self.in_use_bytes)

    def set_scope(self, label: Optional[str]) -> None:
        """Name the owning kernel/charge for subsequent allocations."""
        self._scope = label

    # -- transition hooks (called by the Device) -----------------------------

    def on_malloc(self, name: str, nbytes: int, ts_ms: float) -> None:
        """A ``malloc`` succeeded: open the lifetime, update watermarks."""
        self._live[name] = _LiveAllocation(
            name=name,
            bytes=int(nbytes),
            alloc_ms=ts_ms,
            scope=self._scope or HOST_SCOPE,
            round_index=self._round,
            index=self.n_allocs,
        )
        self.n_allocs += 1
        self.in_use_bytes += int(nbytes)
        if self._round is not None:
            high = self._round_high.get(self._round, 0)
            self._round_high[self._round] = max(high, self.in_use_bytes)
        if self._peak is None or self.in_use_bytes > self._peak.bytes:
            self._snapshot_peak(ts_ms)

    def on_free(self, name: str, ts_ms: float) -> None:
        """A ``free`` succeeded: close the lifetime."""
        live = self._live.pop(name, None)
        if live is not None:
            self._closed.append(live.close(ts_ms))
            self.in_use_bytes -= live.bytes
        self.n_frees += 1

    def on_invalid_free(self, name: str, ts_ms: float, kind: str) -> None:
        """An :class:`~repro.errors.InvalidFreeError` was raised."""
        what = (
            "freed again after an earlier free"
            if kind == "double"
            else "freed but was never allocated"
        )
        self.findings.append(
            SanitizerFinding(
                detector="double-free",
                severity="error",
                kernel=self._scope or HOST_SCOPE,
                message=(
                    f"device array {name!r} {what} "
                    f"at {ts_ms:.3f} ms"
                ),
            )
        )

    def on_use_after_free(self, name: str, ts_ms: float) -> None:
        """A freed :class:`DeviceArray` was read back."""
        self.findings.append(
            SanitizerFinding(
                detector="use-after-free",
                severity="error",
                kernel=self._scope or HOST_SCOPE,
                message=(
                    f"read-back of device array {name!r} after free "
                    f"at {ts_ms:.3f} ms (stale bytes returned)"
                ),
            )
        )

    def on_shared_alloc(self, block_idx: int, name: str, nbytes: int) -> None:
        """A block allocated shared memory inside the current kernel."""
        key = (self._scope or "kernel", name)
        entry = self._shared.setdefault(key, [0, 0])
        entry[0] = max(entry[0], int(nbytes))
        entry[1] += 1

    def finish(self, ts_ms: float) -> None:
        """End of run: diagnose still-live allocations as leaks.

        Idempotent — a second call is a no-op, so hosts that both free
        and finish never double-report.
        """
        if self._finished:
            return
        self._finished = True
        for live in self._live.values():
            self.findings.append(
                SanitizerFinding(
                    detector="memory-leak",
                    severity="warning",
                    kernel=live.scope,
                    message=(
                        f"device array {live.name!r} ({live.bytes} B, "
                        f"allocated at {live.alloc_ms:.3f} ms) still "
                        f"live at end of run ({ts_ms:.3f} ms)"
                    ),
                )
            )

    # -- views ----------------------------------------------------------------

    @property
    def peak(self) -> PeakSnapshot:
        """The current peak snapshot (mirrors ``GlobalMemory.peak``)."""
        if self._peak is None:
            return PeakSnapshot(bytes=0, ts_ms=0.0, breakdown=())
        return self._peak

    def allocations(self) -> Tuple[AllocationRecord, ...]:
        """Every lifetime, closed and still-live, in allocation order."""
        records = list(self._closed) + [
            live.close(None) for live in self._live.values()
        ]
        records.sort(key=lambda r: r.index)
        return tuple(records)

    def rounds(self) -> Tuple[Tuple[int, int], ...]:
        """Per-round high-water marks as ``(round, bytes)`` pairs."""
        return tuple(sorted(self._round_high.items()))

    def shared_footprints(self) -> Tuple[SharedFootprint, ...]:
        """Aggregated shared-memory footprints per (kernel, name)."""
        return tuple(
            SharedFootprint(
                kernel=kernel,
                name=name,
                bytes_per_block=entry[0],
                blocks=entry[1],
            )
            for (kernel, name), entry in sorted(self._shared.items())
        )

    def report(self, algorithm: Optional[str] = None) -> "MemtraceReport":
        """Assemble this tracker into a single-worker report."""
        from repro.memtrace.report import MemtraceReport

        return MemtraceReport.from_trackers(
            [self],
            algorithm=algorithm or self.labels.get("algorithm"),
            variant=self.labels.get("variant"),
            dataset=self.labels.get("dataset"),
        )

    # -- internals -------------------------------------------------------------

    def _snapshot_peak(self, ts_ms: float) -> None:
        breakdown: List[Tuple[str, int]] = []
        if self.base_bytes:
            breakdown.append((CONTEXT_NAME, self.base_bytes))
        breakdown.extend(
            (live.name, live.bytes) for live in self._live.values()
        )
        self._peak = PeakSnapshot(
            bytes=self.in_use_bytes,
            ts_ms=ts_ms,
            breakdown=tuple(breakdown),
        )
