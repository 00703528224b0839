"""Simulated device global memory.

Allocation mirrors the ``cudaMalloc`` / ``cudaFree`` lifecycle of a CUDA
host program and enforces the device capacity — exceeding it raises
:class:`~repro.errors.DeviceOutOfMemoryError`, which the benchmark
harness reports as "OOM" exactly like Tables III and V.

A :class:`DeviceArray` is backed by a host numpy array (int64 for
indexing convenience) but accounted at the device width (4-byte IDs by
default), matching how the paper stores graphs compactly.

Free semantics are typed: freeing a name that is not live raises
:class:`~repro.errors.InvalidFreeError`, distinguishing a *double free*
(the name was live once and already released) from an *unknown* name
(never allocated).  A freed :class:`DeviceArray` keeps its data but is
flagged ``freed``, so a later read-back can be diagnosed as a
use-after-free by the memory tracker.

Observability
-------------
:class:`GlobalMemory` itself stays tracer-free; the owning
:class:`~repro.gpusim.device.Device` wraps :meth:`GlobalMemory.malloc`
/ :meth:`GlobalMemory.free` and emits ``malloc <name>`` / ``free
<name>`` instant events (with byte counts and the running ``in_use``
watermark) on the ``device`` track when tracing is enabled — see
``docs/OBSERVABILITY.md``.  ``peak`` feeds the
``device.peak_memory_bytes`` figure reported by every result.  The
device likewise forwards each transition to an attached
:class:`~repro.memtrace.tracker.MemoryTracker`
(``gpu_peel(..., memtrace=True)``), which records allocation lifetimes and
snapshots the attribution breakdown whenever ``peak`` moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

import numpy as np

from repro.errors import (
    DeviceArrayExistsError,
    DeviceOutOfMemoryError,
    InvalidFreeError,
)

__all__ = ["DeviceArray", "GlobalMemory"]


@dataclass
class DeviceArray:
    """A named allocation in simulated global memory.

    ``freed`` flips when the allocation is released; the stale host
    copy survives (as the bytes of a real freed buffer would) so a
    use-after-free is observable rather than a hard crash.
    """

    name: str
    data: np.ndarray
    device_bytes: int
    freed: bool = False

    def __len__(self) -> int:
        return int(self.data.size)


class GlobalMemory:
    """Tracks allocations against a fixed device capacity.

    Attributes:
        capacity: usable global memory in bytes.
        in_use: currently allocated bytes.
        peak: high-water mark of ``in_use`` over the memory's lifetime.
    """

    def __init__(self, capacity: int, base_usage: int = 0) -> None:
        self.capacity = int(capacity)
        self.in_use = int(base_usage)
        self.peak = int(base_usage)
        self._arrays: Dict[str, DeviceArray] = {}
        self._freed: Set[str] = set()
        if base_usage > capacity:
            raise DeviceOutOfMemoryError(base_usage, 0, capacity)

    def malloc(
        self,
        name: str,
        size: int | np.ndarray,
        fill: int = 0,
        id_bytes: int = 4,
    ) -> DeviceArray:
        """Allocate ``size`` vertex-ID slots (or copy an array in).

        Passing an array mirrors ``cudaMalloc`` + ``cudaMemcpyHostToDevice``
        in one step; the host copy keeps int64 for indexing, the device
        accounting uses ``id_bytes`` per element.

        Raises:
            DeviceArrayExistsError: ``name`` is already live.
            DeviceOutOfMemoryError: the allocation exceeds the capacity.
        """
        if name in self._arrays:
            raise DeviceArrayExistsError(name)
        if isinstance(size, np.ndarray):
            data = size.astype(np.int64, copy=True)
        else:
            data = np.full(int(size), fill, dtype=np.int64)
        device_bytes = int(data.size) * id_bytes
        if self.in_use + device_bytes > self.capacity:
            raise DeviceOutOfMemoryError(device_bytes, self.in_use, self.capacity)
        self.in_use += device_bytes
        self.peak = max(self.peak, self.in_use)
        array = DeviceArray(name, data, device_bytes)
        self._arrays[name] = array
        # re-allocating a previously freed name starts a fresh lifetime
        self._freed.discard(name)
        return array

    def free(self, name: str) -> None:
        """Release an allocation (``cudaFree``).

        Raises:
            InvalidFreeError: when ``name`` is not live — ``kind`` is
                ``"double"`` if it was already freed, ``"unknown"`` if
                it was never allocated.
        """
        array = self._arrays.pop(name, None)
        if array is None:
            kind = "double" if name in self._freed else "unknown"
            raise InvalidFreeError(name, kind)
        array.freed = True
        self._freed.add(name)
        self.in_use -= array.device_bytes

    def get(self, name: str) -> DeviceArray:
        """Look up a live allocation by name."""
        return self._arrays[name]

    def live(self) -> Tuple[str, ...]:
        """Names of the currently live allocations, oldest first."""
        return tuple(self._arrays)

    def free_all(self) -> None:
        """Release every allocation (end-of-program cleanup)."""
        for name in list(self._arrays):
            self.free(name)

    @property
    def available(self) -> int:
        """Bytes still allocatable."""
        return self.capacity - self.in_use
