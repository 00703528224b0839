"""Warp-level execution contexts for the SIMT simulator.

A kernel is a Python *generator function* ``kernel(ctx, ...)`` executed
once per warp.  Inside, the 32 lanes of the warp advance in lockstep —
lane-parallel work is expressed with numpy arrays indexed by
``ctx.lanes`` and divergence with boolean masks, which mirrors how the
hardware masks inactive lanes.  The context provides:

* global-memory loads/stores with coalescing-aware transaction counts,
* global and shared atomics with correct duplicate-address semantics
  (each lane observes a distinct intermediate value, like the hardware),
* per-block shared memory (named scalars and arrays with capacity
  accounting),
* warp primitives (``__ballot_sync``, ``__popc``, ``__shfl_sync``), and
* cost accounting feeding :class:`~repro.gpusim.costmodel.BlockTiming`.

Control transfers back to the scheduler only at explicit ``yield``
points: ``ctx.BARRIER`` (``__syncthreads``) and ``ctx.STEP`` (a
reschedule point, e.g. one trip of a loop).  Between yields a warp runs
uninterrupted, so races are exercised by yielding — the optional
``preempt`` hook injects extra reschedule points to fuzz atomic
interleavings.

Observability
-------------

Every event the cost model charges is also *counted* in the block's
:class:`~repro.gpusim.costmodel.BlockTiming`: warp-instructions in
``issued``, coalescing-aware 128-byte transactions in
``mem_transactions``, barrier generations in ``barriers``, and atomic
lane-conflicts (lanes beyond the first hitting one address in a single
warp atomic, global and shared combined) in ``atomic_conflicts``.  The
scheduler folds these into per-launch
:class:`~repro.gpusim.scheduler.KernelStats`, which the device's
tracer hook (see :mod:`repro.obs`) exports as span arguments and flat
counters.  Counting is unconditional — it is a handful of float adds
the simulator performs anyway — while trace *events* are emitted only
when a tracer is installed.

Every individual charge is an integer or quarter-integer (shared
atomics serialise at ``0.25`` cycles per conflicting lane) of
magnitude far below 2^50, so accumulated ``issued``/``path``/metric
totals are *exact* in IEEE doubles and independent of summation
order.  This is the foundation of the execution-engine byte-identity
contract (``docs/SIMULATOR.md``): the vectorized engine may bulk-fold
the very same charges in any grouping and still reproduce these
totals bit for bit.  Keep new charges on the quarter-integer grid, or
cross-engine equality breaks.

Sanitizing
----------

Every access method additionally carries a racecheck hook: when the
launch runs under a :class:`~repro.sanitize.racecheck.LaunchMonitor`
(``gpu_peel(..., sanitize=True)``), the access is mirrored into shadow logs
keyed by exact location and barrier epoch, from which the sanitizer
derives cross-warp race, barrier-divergence and ballot-hazard findings
(``docs/SANITIZER.md``).  Recording never charges cycles, and with the
monitor absent each hook is a single ``is not None`` test — the same
cold-path discipline as the tracer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

import numpy as np

from repro.errors import SharedMemoryExhaustedError
from repro.gpusim.costmodel import BlockTiming, CostModel
from repro.gpusim.memory import DeviceArray
from repro.gpusim.spec import DeviceSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memtrace.tracker import MemoryTracker
    from repro.sanitize.racecheck import LaunchMonitor

__all__ = ["BARRIER", "STEP", "BlockState", "WarpContext"]

#: Yield this to synchronise all warps of the block (``__syncthreads``).
BARRIER = "barrier"
#: Yield this to let other warps/blocks run (a scheduling point).
STEP = "step"

#: Words per 128-byte global-memory transaction at 4-byte IDs.
_WORDS_PER_TRANSACTION = 32


class BlockState:
    """Mutable per-block state: shared memory plus timing counters."""

    def __init__(
        self,
        block_idx: int,
        num_warps: int,
        spec: DeviceSpec,
        memtracker: "MemoryTracker | None" = None,
    ) -> None:
        self.block_idx = block_idx
        self.num_warps = num_warps
        self.spec = spec
        self.timing = BlockTiming()
        self.scalars: Dict[str, int] = {}
        self.arrays: Dict[str, np.ndarray] = {}
        self.shared_bytes_used = 0
        #: optional memory tracker (see :mod:`repro.memtrace`) notified
        #: of shared-memory allocations; observability-only
        self.memtracker = memtracker
        # scheduler bookkeeping
        self.active_warps = num_warps
        self.waiting: list = []

    def alloc_shared(self, name: str, size: int) -> np.ndarray:
        """Allocate a named shared-memory array of ``size`` IDs.

        Raises :class:`~repro.errors.SharedMemoryExhaustedError` when
        the block's shared-memory capacity would be exceeded.
        """
        if name in self.arrays:
            return self.arrays[name]
        needed = size * self.spec.id_bytes
        if self.shared_bytes_used + needed > self.spec.shared_memory_per_block_bytes:
            raise SharedMemoryExhaustedError(
                self.block_idx, name, needed, self.shared_bytes_used,
                self.spec.shared_memory_per_block_bytes,
            )
        self.shared_bytes_used += needed
        if self.memtracker is not None:
            self.memtracker.on_shared_alloc(self.block_idx, name, needed)
        array = np.zeros(size, dtype=np.int64)
        self.arrays[name] = array
        return array


class WarpContext:
    """Execution context of one warp; see the module docstring."""

    BARRIER = BARRIER
    STEP = STEP

    def __init__(
        self,
        block: BlockState,
        warp_id: int,
        grid_dim: int,
        block_dim: int,
        spec: DeviceSpec,
        cost: CostModel,
        rng: np.random.Generator | None = None,
        preempt_prob: float = 0.0,
        monitor: "LaunchMonitor | None" = None,
    ) -> None:
        self.block = block
        self.warp_id = warp_id
        self.grid_dim = grid_dim
        self.block_dim = block_dim
        self.spec = spec
        self.cost = cost
        self.lanes = np.arange(spec.warp_size, dtype=np.int64)
        self._rng = rng
        self._preempt_prob = preempt_prob
        #: attached racecheck monitor, or ``None`` (sanitizing off)
        self._monitor = monitor
        # per-warp counters (folded into the block at kernel teardown)
        self.issued = 0.0
        self.path = 0.0

    # -- identity ----------------------------------------------------------

    @property
    def block_idx(self) -> int:
        """``blockIdx.x`` of this warp's block."""
        return self.block.block_idx

    @property
    def warps_per_block(self) -> int:
        """``BLK_DIM >> 5``."""
        return self.block.num_warps

    @property
    def global_warp_id(self) -> int:
        """Warp index across the whole grid."""
        return self.block_idx * self.warps_per_block + self.warp_id

    @property
    def num_threads(self) -> int:
        """NUM_THREADS = BLK_NUM * BLK_DIM of the launch."""
        return self.grid_dim * self.block_dim

    @property
    def warp_size(self) -> int:
        return self.spec.warp_size

    # -- cost accounting -----------------------------------------------------

    def charge(self, instructions: float) -> None:
        """Charge ``instructions`` warp-instructions of compute."""
        self.issued += instructions
        self.path += instructions

    def _count_transactions(self, idx: np.ndarray) -> int:
        segments = np.unique(idx // _WORDS_PER_TRANSACTION)
        return int(segments.size)

    def _note_global_access(self, idx_arr: np.ndarray) -> None:
        """Tally one global-memory warp access into the block's timing.

        ``mem_transactions`` feeds the cost model; the remaining fields
        are observability-only (profiler divergence / coalescing
        efficiency) and never influence simulated time.
        """
        timing = self.block.timing
        timing.mem_transactions += self._count_transactions(idx_arr)
        n = int(idx_arr.size)
        timing.mem_accesses += max(1, -(-n // self.spec.warp_size))
        timing.mem_active_lanes += n
        timing.mem_ideal_transactions += -(-n // _WORDS_PER_TRANSACTION)

    # -- global memory -------------------------------------------------------

    def gload(
        self, array: DeviceArray, idx: int | np.ndarray, dependent: bool = True
    ) -> np.ndarray | int:
        """Load ``array[idx]`` from global memory.

        ``dependent=True`` (the default) stalls the warp on the result —
        the common case of pointer-chasing loads (fetch a vertex, then
        its offsets, then its neighbors).  Independent loads only occupy
        memory bandwidth.
        """
        scalar = np.isscalar(idx)
        idx_arr = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        mon = self._monitor
        if mon is not None:
            mon.global_access(self, "read", array, idx_arr)
        self._note_global_access(idx_arr)
        self.charge(1)
        if dependent:
            self.path += self.cost.global_load_latency
        values = array.data[idx_arr]
        return int(values[0]) if scalar else values

    def gstore(
        self, array: DeviceArray, idx: int | np.ndarray, values: int | np.ndarray
    ) -> None:
        """Store ``values`` to ``array[idx]`` in global memory."""
        idx_arr = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        mon = self._monitor
        if mon is not None:
            mon.global_access(self, "write", array, idx_arr)
        self._note_global_access(idx_arr)
        self.charge(1)
        array.data[idx_arr] = values

    def atomic_global(
        self, array: DeviceArray, idx: int | np.ndarray, delta: int
    ) -> np.ndarray | int:
        """``atomicAdd`` on global memory; returns each lane's old value.

        Duplicate addresses within the warp serialise: each lane sees a
        distinct intermediate value, exactly like the hardware (the
        property Fig. 6's redundancy-avoidance argument relies on).
        """
        scalar = np.isscalar(idx)
        idx_arr = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        n = idx_arr.size
        if n == 0:
            return np.empty(0, dtype=np.int64)
        mon = self._monitor
        if mon is not None:
            mon.global_access(self, "atomic", array, idx_arr)
        self._note_global_access(idx_arr)
        order = np.argsort(idx_arr, kind="stable")
        sorted_idx = idx_arr[order]
        boundaries = np.empty(n, dtype=bool)
        boundaries[0] = True
        boundaries[1:] = sorted_idx[1:] != sorted_idx[:-1]
        distinct = int(boundaries.sum())
        # exclusive rank of each lane within its address group
        group_id = np.cumsum(boundaries) - 1
        rank = np.arange(n) - np.flatnonzero(boundaries)[group_id]
        old_sorted = array.data[sorted_idx] + delta * rank
        old = np.empty(n, dtype=np.int64)
        old[order] = old_sorted
        np.add.at(array.data, idx_arr, delta)
        conflicts = n - distinct
        self.block.timing.atomic_conflicts += conflicts
        self.issued += 1
        atomic_cycles = (
            self.cost.global_atomic_base
            + self.cost.global_atomic_conflict * conflicts
        )
        self.path += atomic_cycles
        self.block.timing.atomic_cycles += atomic_cycles
        return int(old[0]) if scalar else old

    # -- shared memory ---------------------------------------------------------

    def smem_get(self, name: str, default: int | None = None) -> int:
        """Read a named shared-memory scalar."""
        mon = self._monitor
        if mon is not None:
            mon.shared_scalar_access(self, "read", name)
        self.path += self.cost.shared_access_cycles
        self.issued += 1
        if default is not None:
            return self.block.scalars.get(name, default)
        return self.block.scalars[name]

    def smem_set(self, name: str, value: int) -> None:
        """Write a named shared-memory scalar."""
        mon = self._monitor
        if mon is not None:
            mon.shared_scalar_access(self, "write", name)
        self.path += self.cost.shared_access_cycles
        self.issued += 1
        self.block.scalars[name] = int(value)

    def smem_atomic_add(self, name: str, amount: int, lanes: int = 1) -> int:
        """``atomicAdd`` on a shared scalar; returns the old value.

        ``lanes`` is how many lanes of the warp participate; a warp
        whose 32 lanes each ``atomicAdd(e, 1)`` calls this once with
        ``amount=32, lanes=32`` and the returned base is each lane's
        reservation start (lane ``j`` writes at ``old + j``) — identical
        observable behaviour to 32 serialised hardware atomics.
        """
        mon = self._monitor
        if mon is not None:
            mon.shared_scalar_access(self, "atomic", name)
        old = self.block.scalars.get(name, 0)
        self.block.scalars[name] = old + int(amount)
        self.block.timing.atomic_conflicts += max(0, lanes - 1)
        self.issued += 1
        atomic_cycles = (
            self.cost.shared_atomic_base
            + self.cost.shared_atomic_conflict * max(0, lanes - 1)
        )
        self.path += atomic_cycles
        self.block.timing.atomic_cycles += atomic_cycles
        return old

    def smem_array(self, name: str, size: int) -> np.ndarray:
        """Allocate (or fetch) a named shared-memory array."""
        return self.block.alloc_shared(name, size)

    def sload(self, array: np.ndarray, idx: int | np.ndarray) -> np.ndarray | int:
        """Load from a shared-memory array."""
        mon = self._monitor
        if mon is not None:
            mon.shared_array_access(self, "read", array, idx)
        self.path += self.cost.shared_access_cycles
        self.issued += 1
        values = array[idx]
        return int(values) if np.isscalar(idx) else values

    def sstore(
        self, array: np.ndarray, idx: int | np.ndarray, values: int | np.ndarray
    ) -> None:
        """Store to a shared-memory array."""
        mon = self._monitor
        if mon is not None:
            mon.shared_array_access(self, "write", array, idx)
        self.path += self.cost.shared_access_cycles
        self.issued += 1
        array[idx] = values

    # -- warp primitives -----------------------------------------------------

    def ballot(self, mask: np.ndarray) -> int:
        """``__ballot_sync``: pack the lanes' predicates into a bitmap."""
        mon = self._monitor
        if mon is not None:
            mon.on_ballot(self)
        self.charge(1)
        bits = 0
        for lane in np.flatnonzero(mask):
            bits |= 1 << int(lane)
        return bits

    def popc(self, bits: int) -> int:
        """``__popc``: population count."""
        self.charge(1)
        return bin(bits).count("1")

    def shfl_broadcast(self, value: int) -> int:
        """``__shfl_sync`` broadcast from one lane to the whole warp."""
        self.charge(1)
        return int(value)

    def sync_warp(self) -> None:
        """``__syncwarp``: a no-op barrier, the warp is already lockstep."""
        self.charge(1)

    # -- race fuzzing ----------------------------------------------------------

    def should_preempt(self) -> bool:
        """True when the fuzzing schedule wants a reschedule point here.

        Kernels call this between a plain read and the atomic that
        depends on it (``if ctx.should_preempt(): yield ctx.STEP``) so
        that property tests can exercise cross-warp interleavings of the
        degree-restore logic.
        """
        if self._rng is None or self._preempt_prob <= 0.0:
            return False
        return bool(self._rng.random() < self._preempt_prob)
