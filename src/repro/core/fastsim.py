"""Launch-level vectorized executors for the peeling kernels.

This module is the ``vectorized`` engine's fast path (see
:mod:`repro.gpusim.engine` and ``docs/SIMULATOR.md``).  Instead of
stepping one generator per warp through the reference scheduler, each
executor computes a whole launch — every device-memory side effect and
every cost-model tally — with batched numpy array operations, then
returns the same :class:`~repro.gpusim.scheduler.KernelStats` the
reference interpreter would have produced, byte for byte.

How exactness is preserved
--------------------------

*Scan* (:func:`~repro.core.scan_kernel.scan_kernel`) is closed-form:
no cross-block state is written, each block's buffer content is its
warps' hits ordered by ``(trip, warp, lane)``, and every per-trip cost
is a function of the trip's lane and hit counts alone.

*Loop* (:func:`~repro.core.loop_kernel.loop_kernel`) has cross-block
ordering semantics (concurrent ``atomicSub`` on shared neighbors), so
the executor replays the reference FIFO scheduler exactly — but at
*turn* granularity, with a few integer state updates per turn instead
of a generator resumption.  The expensive part of a turn (a warp's
whole adjacency sweep) is deferred into an ordered *event* list and
batched: when a block next reads its buffer tail ``e``, all pending
events are flushed in emission order.  Candidacy has a closed form
under that order: the first ``deg0(u) - k`` touches of a vertex ``u``
decrement it, and the touch with rank ``deg0(u) - k - 1`` observes
``k + 1`` and appends ``u`` (the ``newly`` set of Alg. 3 Line 22).
This is exact because, with no preemption, a warp's read -> atomicSub
window never interleaves (events are atomic in the schedule), which
also means the Fig. 6 restore path cannot fire — unless an adjacency
list contains duplicate neighbors, a case the executor detects up
front and declines.

A flush does only the data-dependent work: resolve the frontier
vertices, apply the decrements, find the trips with candidates, and
append the newly dead vertices.  Large batches run one numpy batch
kernel (the rank closed form); small ones replay event by event.
Every charge of a sweep that depends only on the CSR — trip counts,
the ``neighbors``/``deg`` load transactions, lane totals — comes from
per-CSR trip tables; the rest is logged as rows and folded into the
accounting once per launch.  Both are exact because every charge is a
dyadic sum, so neither the fold's order nor its grouping matters.

Fallback discipline
-------------------

All device side effects are *staged* (degree, buffer, tails, counter
copies plus staged shared-memory blocks) and committed only when the
launch completes, so an executor can decline a launch at any point by
raising :class:`~repro.gpusim.engine.FallbackToReference` with zero
observable effects — the engine then re-runs the launch on the
reference interpreter.  Declined launches: ring-buffer variants
(wraparound head/tail semantics), virtual warping (``vw > 1``),
duplicate in-adjacency neighbors, and predicted buffer overflow (the
reference run raises :class:`~repro.errors.BufferOverflowError` at the
exact offending write, with the exact partial state).  Shared-memory
exhaustion is *not* a fallback: the staged allocations replicate
:meth:`~repro.gpusim.context.BlockState.alloc_shared` order exactly,
fire the same memtracker callbacks, and raise the same
:class:`~repro.errors.SharedMemoryExhaustedError`.

The executors assume the CSR arrays (``offsets``/``neighbors``) are
immutable for the lifetime of the :class:`~repro.gpusim.memory.DeviceArray`
objects — true for every host program in this repository — so the
duplicate-neighbor guard and the trip tables are cached per array pair.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.loop_kernel import loop_kernel
from repro.core.scan_kernel import scan_kernel
from repro.core.variants import VariantConfig
from repro.errors import SharedMemoryExhaustedError
from repro.gpusim.costmodel import BlockTiming
from repro.gpusim.engine import (
    FallbackToReference,
    VectorLaunch,
    register_vectorized_kernel,
)
from repro.gpusim.memory import DeviceArray
from repro.gpusim.scheduler import KernelStats
from repro.gpusim.vectorized import (
    assemble_stats,
    contiguous_transactions,
)

__all__ = ["register"]


# ---------------------------------------------------------------------------
# shared accounting
# ---------------------------------------------------------------------------


class _Accounting:
    """Per-warp issue/path and per-block metric accumulators.

    Mirrors what :class:`~repro.gpusim.context.WarpContext` and
    :class:`~repro.gpusim.costmodel.BlockTiming` accumulate; every
    increment is an integer or quarter-integer, so sums are exact and
    order-independent (see :mod:`repro.gpusim.vectorized`).
    """

    def __init__(self, grid: int, warps: int) -> None:
        self.grid = grid
        self.warps = warps
        n = grid * warps
        self.issued = np.zeros(n, dtype=np.float64)
        self.path = np.zeros(n, dtype=np.float64)
        self.mem_transactions = np.zeros(grid, dtype=np.float64)
        self.mem_accesses = np.zeros(grid, dtype=np.float64)
        self.mem_active_lanes = np.zeros(grid, dtype=np.float64)
        self.mem_ideal_transactions = np.zeros(grid, dtype=np.float64)
        self.atomic_conflicts = np.zeros(grid, dtype=np.float64)
        self.atomic_cycles = np.zeros(grid, dtype=np.float64)
        self.buffer_peak = np.zeros(grid, dtype=np.float64)
        self.barriers = np.zeros(grid, dtype=np.int64)

    def warp_op(self, gwid: int, issued: float, path: float) -> None:
        self.issued[gwid] += issued
        self.path[gwid] += path

    def note_access(
        self, block: int, transactions: int, lanes: int
    ) -> None:
        """One warp global access: mirror ``_note_global_access``."""
        self.mem_transactions[block] += transactions
        self.mem_accesses[block] += max(1, -(-lanes // 32))
        self.mem_active_lanes[block] += lanes
        self.mem_ideal_transactions[block] += -(-lanes // 32)

    def finish(self, launch: VectorLaunch) -> KernelStats:
        w = self.warps
        block_issued = self.issued.reshape(self.grid, w).sum(axis=1)
        block_paths = self.path.reshape(self.grid, w).max(axis=1)
        timings = [
            BlockTiming(
                issued=float(block_issued[b]),
                mem_transactions=float(self.mem_transactions[b]),
                barriers=int(self.barriers[b]),
                atomic_conflicts=float(self.atomic_conflicts[b]),
                buffer_peak=float(self.buffer_peak[b]),
                atomic_cycles=float(self.atomic_cycles[b]),
                mem_accesses=float(self.mem_accesses[b]),
                mem_active_lanes=float(self.mem_active_lanes[b]),
                mem_ideal_transactions=float(
                    self.mem_ideal_transactions[b]
                ),
            )
            for b in range(self.grid)
        ]
        max_paths = [float(block_paths[b]) for b in range(self.grid)]
        return assemble_stats(
            timings, max_paths, launch.cost, launch.spec,
            launch.collect_timings,
        )


class _StagedShared:
    """Staged per-block shared memory, replicating ``alloc_shared``.

    Allocations are recorded in order; memtracker callbacks fire only
    at :meth:`commit` (end of launch, or just before re-raising
    :class:`~repro.errors.SharedMemoryExhaustedError`), so a launch
    that falls back to the reference interpreter leaves no trace.
    """

    def __init__(self, launch: VectorLaunch) -> None:
        self._spec = launch.spec
        self._memtracker = launch.memtracker
        self.arrays: List[Dict[str, np.ndarray]] = [
            {} for _ in range(launch.grid_dim)
        ]
        self._bytes = [0] * launch.grid_dim
        self._log: List[Tuple[int, str, int]] = []

    def alloc(self, block: int, name: str, size: int) -> np.ndarray:
        arrays = self.arrays[block]
        if name in arrays:
            return arrays[name]
        needed = size * self._spec.id_bytes
        if (
            self._bytes[block] + needed
            > self._spec.shared_memory_per_block_bytes
        ):
            # match the reference exactly: earlier successful allocs
            # have already notified the memtracker when this raises
            self.commit()
            raise SharedMemoryExhaustedError(
                block, name, needed, self._bytes[block],
                self._spec.shared_memory_per_block_bytes,
            )
        self._bytes[block] += needed
        self._log.append((block, name, needed))
        array = np.zeros(size, dtype=np.int64)
        arrays[name] = array
        return array

    def commit(self) -> None:
        mt = self._memtracker
        if mt is not None:
            for block, name, needed in self._log:
                mt.on_shared_alloc(block, name, needed)
        self._log.clear()


class _StagedArrays:
    """Lazy staging copies of mutable device arrays."""

    def __init__(self) -> None:
        self._staged: Dict[int, Tuple[DeviceArray, np.ndarray]] = {}

    def data(self, array: DeviceArray) -> np.ndarray:
        entry = self._staged.get(id(array))
        if entry is None:
            entry = (array, array.data.copy())
            self._staged[id(array)] = entry
        return entry[1]

    def commit(self) -> None:
        for array, copy in self._staged.values():
            array.data[:] = copy


# ---------------------------------------------------------------------------
# small numeric helpers
# ---------------------------------------------------------------------------


def _exclusive_cumsum(values: np.ndarray) -> np.ndarray:
    out = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out


def _segmented_exclusive_cumsum(
    values: np.ndarray, group: np.ndarray
) -> np.ndarray:
    """Exclusive running sum of ``values`` within each ``group``.

    ``group`` need not be contiguous; the original order within a group
    is preserved (the emission order the simulator semantics fix).
    """
    if values.size == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(group, kind="stable")
    sorted_vals = values[order]
    sorted_group = group[order]
    cs = np.cumsum(sorted_vals) - sorted_vals
    starts = np.empty(values.size, dtype=bool)
    starts[0] = True
    starts[1:] = sorted_group[1:] != sorted_group[:-1]
    base = np.where(starts, cs, 0)
    np.maximum.accumulate(base, out=base)
    seg = cs - base
    out = np.empty(values.size, dtype=np.int64)
    out[order] = seg
    return out


def _contig_trans_vec(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Vectorized :func:`~repro.gpusim.vectorized.contiguous_transactions`."""
    out = (start + length - 1) // 32 - start // 32 + 1
    return np.where(length > 0, out, 0)


def _expand_edges(
    starts: np.ndarray, degs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand per-event CSR slices to per-edge (event, offset, position)."""
    total = int(degs.sum())
    eid = np.repeat(np.arange(degs.size, dtype=np.int64), degs)
    base = _exclusive_cumsum(degs)
    off = np.arange(total, dtype=np.int64) - base[eid]
    return eid, off, starts[eid] + off


def _bind(
    names: Tuple[str, ...],
    defaults: Mapping[str, Any],
    args: Tuple[Any, ...],
    kwargs: Mapping[str, Any],
) -> Dict[str, Any]:
    bound: Dict[str, Any] = dict(defaults)
    if len(args) > len(names):
        raise FallbackToReference("unexpected extra positional arguments")
    bound.update(zip(names, args))
    for key, value in kwargs.items():
        if key not in names:
            raise FallbackToReference(f"unexpected keyword {key!r}")
        bound[key] = value
    missing = [n for n in names if n not in bound]
    if missing:
        raise FallbackToReference(f"missing arguments {missing!r}")
    return bound


# ---------------------------------------------------------------------------
# scan kernel: fully closed form
# ---------------------------------------------------------------------------

_SCAN_PARAMS = (
    "k", "deg", "buf", "tails", "num_vertices", "capacity", "cfg",
    "vertex_lo",
)


class _ScanSkeleton:
    """Round-invariant structure of one scan launch shape.

    A decomposition launches the scan kernel once per peel round with
    the same grid, vertex range, and capacity — only ``k`` and the
    degree array change.  Everything that does not depend on *which*
    vertices hit (the trip enumeration, the per-trip base charges, the
    append ordering, the prologue/epilogue/barrier totals) is computed
    once here and reused, leaving each launch only the hit-dependent
    work.
    """

    __slots__ = (
        "trips_per_warp", "total_trips", "trip_base", "trip_warp",
        "trip_block", "trip_first", "trip_lanes", "order", "ord_first",
        "w0",
        "issued0", "path0", "trans0", "acc0", "lanes0", "ideal0",
        "atomic0", "barriers0",
    )

    def __init__(
        self, compaction: str, grid: int, warps: int, nv: int,
        vertex_lo: int, stride: int, capacity: int,
    ) -> None:
        gw = grid * warps
        gwids = np.arange(gw, dtype=np.int64)
        base = vertex_lo + gwids * 32
        if compaction == "block":
            # every warp makes the same trip count (barriers must line up)
            span = max(0, nv - vertex_lo)
            trips_per_warp = np.full(
                gw, max(1, -(-span // stride)), dtype=np.int64
            )
        else:
            trips_per_warp = np.maximum(0, -(-(nv - base) // stride))
        self.trips_per_warp = trips_per_warp
        total_trips = int(trips_per_warp.sum())
        self.total_trips = total_trips
        trip_warp = np.repeat(gwids, trips_per_warp)
        trip_base = _exclusive_cumsum(trips_per_warp)
        trip_t = np.arange(total_trips, dtype=np.int64) - trip_base[trip_warp]
        trip_first = base[trip_warp] + trip_t * stride
        trip_lanes = np.clip(nv - trip_first, 0, 32)
        trip_block = trip_warp // warps
        self.trip_base = trip_base
        self.trip_warp = trip_warp
        self.trip_block = trip_block
        self.trip_first = trip_first
        self.trip_lanes = trip_lanes
        has_lanes = trip_lanes > 0

        # -- per-trip base charges (hit-independent) --------------------
        # _hit_flags charge(4) + coalesced degree read & hit-mask
        # charge(2) when lanes are in range; issued == path for every
        # base term, so one fold serves both
        t_base = 4.0 + np.where(has_lanes, 2.0, 0.0)
        if compaction == "ballot":
            t_base += 3.0  # ballot + popc + lane-mask charge, every trip
        elif compaction == "block":
            t_base += 12.0  # Hillis-Steele compaction + sstore(counts)
        warp_base = np.bincount(trip_warp, weights=t_base, minlength=gw)
        self.issued0 = warp_base.copy()
        self.path0 = warp_base.copy()
        deg_trans = np.where(
            has_lanes, _contig_trans_vec(trip_first, trip_lanes), 0
        ).astype(np.float64)
        hl = has_lanes.astype(np.float64)
        self.trans0 = np.bincount(trip_block, weights=deg_trans,
                                  minlength=grid) + 1.0  # + tails store
        self.acc0 = np.bincount(trip_block, weights=hl, minlength=grid) + 1.0
        self.lanes0 = np.bincount(
            trip_block, weights=trip_lanes.astype(np.float64), minlength=grid
        ) + 1.0
        self.ideal0 = self.acc0.copy()
        self.atomic0 = np.zeros(grid)
        self.barriers0 = np.full(grid, 2, dtype=np.int64)  # Line 2 + final
        w0 = np.arange(grid, dtype=np.int64) * warps
        self.w0 = w0
        if compaction == "block":
            # Warp 0 stages 2-3, every trip: sload(counts) + 2*log2(W)+2
            # scan charge + atomicAdd(e, total, lanes=1) + sstore(woffs)
            steps = max(1, int(np.log2(max(2, warps))))
            trips0 = trips_per_warp[w0]
            self.issued0[w0] += (1.0 + (2 * steps + 2) + 1.0 + 1.0) * trips0
            self.path0[w0] += (1.0 + (2 * steps + 2) + 2.0 + 1.0) * trips0
            self.atomic0 += 2.0 * trips0
            self.barriers0 += 3 * trips0  # three __syncthreads per trip
        # prologue smem_set("e", 0) + epilogue smem_get("e") + gstore
        self.issued0[w0] += 3.0
        self.path0[w0] += 3.0

        # -- append ordering (hit-independent) --------------------------
        # appends are ordered by (trip, warp) within each block under
        # all three schemes; hit lanes keep ascending order in a trip
        order_key = (
            trip_block * np.int64(1 << 40) + trip_t * gw + trip_warp % warps
        )
        order = np.argsort(order_key, kind="stable")
        self.order = order
        # ord_first[i]: ordered index of the first trip of the block
        # that ordered position i belongs to — turns the per-launch
        # segmented cumsum into two plain vector ops
        ob = trip_block[order]
        first = np.zeros(total_trips, dtype=np.int64)
        if total_trips:
            new_block = np.empty(total_trips, dtype=bool)
            new_block[0] = True
            new_block[1:] = ob[1:] != ob[:-1]
            idx = np.arange(total_trips, dtype=np.int64)
            first = np.maximum.accumulate(np.where(new_block, idx, 0))
        self.ord_first = first


_SCAN_SKELETONS: Dict[Tuple[Any, ...], _ScanSkeleton] = {}


def _scan_skeleton(
    compaction: str, grid: int, warps: int, nv: int, vertex_lo: int,
    stride: int, capacity: int,
) -> _ScanSkeleton:
    key = (compaction, grid, warps, nv, vertex_lo, stride, capacity)
    skel = _SCAN_SKELETONS.get(key)
    if skel is None:
        if len(_SCAN_SKELETONS) >= 32:
            _SCAN_SKELETONS.clear()
        skel = _ScanSkeleton(
            compaction, grid, warps, nv, vertex_lo, stride, capacity
        )
        _SCAN_SKELETONS[key] = skel
    return skel


def _scan_vectorized(launch: VectorLaunch) -> KernelStats:
    b = _bind(_SCAN_PARAMS, {"vertex_lo": 0}, launch.args, launch.kwargs)
    cfg: VariantConfig = b["cfg"]
    if cfg.ring_buffer:
        raise FallbackToReference("ring buffers wrap against a moving head")
    k = int(b["k"])
    deg: DeviceArray = b["deg"]
    buf: DeviceArray = b["buf"]
    tails: DeviceArray = b["tails"]
    nv = int(b["num_vertices"])
    capacity = int(b["capacity"])
    vertex_lo = int(b["vertex_lo"])

    grid = launch.grid_dim
    warps = launch.block_dim // launch.spec.warp_size
    gw = grid * warps
    stride = launch.grid_dim * launch.block_dim
    acc = _Accounting(grid, warps)
    shared = _StagedShared(launch)
    staged = _StagedArrays()
    skel = _scan_skeleton(
        cfg.compaction, grid, warps, nv, vertex_lo, stride, capacity
    )
    if cfg.compaction == "block":
        # EC allocates its two staging arrays per block, in block order,
        # before any trip writes (see docs/SIMULATOR.md)
        for blk in range(grid):
            shared.alloc(blk, "warp_counts", warps)
            shared.alloc(blk, "warp_offsets", warps)

    # -- fold in the precomputed hit-independent charges ----------------
    total_trips = skel.total_trips
    trip_warp = skel.trip_warp
    trip_block = skel.trip_block
    acc.issued += skel.issued0
    acc.path += skel.path0
    acc.mem_transactions += skel.trans0
    acc.mem_accesses += skel.acc0
    acc.mem_active_lanes += skel.lanes0
    acc.mem_ideal_transactions += skel.ideal0
    acc.atomic_cycles += skel.atomic0
    acc.barriers += skel.barriers0

    # -- hits -----------------------------------------------------------
    hit_rel = np.flatnonzero(deg.data[vertex_lo:nv] == k) if nv > vertex_lo \
        else np.zeros(0, dtype=np.int64)
    if hit_rel.size <= 4096:
        # Scalar fast path.  A trip covers exactly one 32-vertex chunk
        # (stride == gw * 32), and the append order within a block —
        # (trip, warp) ascending — is ascending chunk, i.e. ascending
        # vertex id.  So grouping the (already ascending) hit list by
        # chunk walks trips in append order: buffer slots are contiguous
        # per block and the peak is the final tail.  All charges are
        # quarter-integers summed in Python floats — exact, so folding
        # them in bulk is bit-identical to the vector path.
        hits = hit_rel.tolist()
        ti = [0.0] * gw
        tp = [0.0] * gw
        at_cyc = [0.0] * grid
        at_con = [0.0] * grid
        m_tr = [0.0] * grid
        m_acc = [0.0] * grid
        m_lan = [0.0] * grid
        pos = [0] * grid
        content: List[List[int]] = [[] for _ in range(grid)]
        comp = cfg.compaction
        i = 0
        n = len(hits)
        while i < n:
            chunk = hits[i] >> 5
            j = i + 1
            while j < n and hits[j] >> 5 == chunk:
                j += 1
            h = j - i
            wg = chunk % gw
            bidx = wg // warps
            if comp == "none":
                # atomicAdd(e, h): h serialised lanes + buffered gstore
                ti[wg] += 2.0
                sa = 2.0 + 0.25 * (h - 1)
                tp[wg] += sa + 1.0
                at_cyc[bidx] += sa
                at_con[bidx] += h - 1
            elif comp == "ballot":
                ti[wg] += 4.0  # atomic + shfl + charge(1) + gstore
                tp[wg] += 5.0
                at_cyc[bidx] += 2.0
            else:  # block (EC): sload(woffs) + gstore
                ti[wg] += 2.0
                tp[wg] += 2.0
            a0 = bidx * capacity + pos[bidx]
            m_tr[bidx] += (a0 + h - 1) // 32 - a0 // 32 + 1
            m_acc[bidx] += 1.0
            m_lan[bidx] += h
            pos[bidx] += h
            if vertex_lo:
                content[bidx].extend(v + vertex_lo for v in hits[i:j])
            else:
                content[bidx].extend(hits[i:j])
            i = j
        if max(pos, default=0) > capacity:
            raise FallbackToReference(
                "scan buffer overflow; reference raises"
            )
        acc.issued += np.asarray(ti)
        acc.path += np.asarray(tp)
        acc.atomic_cycles += np.asarray(at_cyc)
        acc.atomic_conflicts += np.asarray(at_con)
        acc.mem_transactions += np.asarray(m_tr)
        acc.mem_accesses += np.asarray(m_acc)
        acc.mem_active_lanes += np.asarray(m_lan)
        acc.mem_ideal_transactions += np.asarray(m_acc)
        np.maximum(
            acc.buffer_peak, np.asarray(pos, dtype=np.float64),
            out=acc.buffer_peak,
        )
        buf_staged = staged.data(buf)
        for bidx, vs in enumerate(content):
            if vs:
                buf_staged[
                    bidx * capacity : bidx * capacity + len(vs)
                ] = vs
        tails_staged = staged.data(tails)
        tails_staged[:grid] = pos
        stats = acc.finish(launch)
        shared.commit()
        staged.commit()
        return stats

    hit_v = hit_rel + vertex_lo
    hit_chunk = hit_rel // 32
    hit_warp = hit_chunk % gw
    hit_trip = skel.trip_base[hit_warp] + hit_chunk // gw
    trip_hits = np.bincount(hit_trip, minlength=total_trips).astype(np.int64)
    has_hits = trip_hits > 0
    hf = has_hits.astype(np.float64)

    # -- hit-dependent per-trip charges ---------------------------------
    if cfg.compaction == "none":
        # atomicAdd(e, h) with h serialised lanes + the buffered gstore
        t_issued = hf * 2.0
        sa = np.where(has_hits, 2.0 + 0.25 * (trip_hits - 1), 0.0)
        t_path = sa + hf
        acc.atomic_cycles += np.bincount(trip_block, weights=sa,
                                         minlength=grid)
        acc.atomic_conflicts += np.bincount(
            trip_block,
            weights=np.where(has_hits, trip_hits - 1, 0).astype(np.float64),
            minlength=grid,
        )
    elif cfg.compaction == "ballot":
        t_issued = hf * 4.0  # atomic + shfl + charge(1) + gstore
        t_path = hf * (2.0 + 1.0 + 1.0 + 1.0)
        acc.atomic_cycles += np.bincount(trip_block, weights=hf * 2.0,
                                         minlength=grid)
    else:  # block (EC)
        t_issued = hf * 2.0  # sload(woffs) + gstore
        t_path = hf * 2.0
    acc.issued += np.bincount(trip_warp, weights=t_issued, minlength=gw)
    acc.path += np.bincount(trip_warp, weights=t_path, minlength=gw)

    # -- buffer positions and contents ---------------------------------
    # positions: exclusive cumsum of hits in (block, t, w) order
    order = skel.order
    th_ord = trip_hits[order]
    cs = np.cumsum(th_ord) - th_ord
    pos_in_block = cs - cs[skel.ord_first]
    trip_pos = np.empty(total_trips, dtype=np.int64)
    trip_pos[order] = pos_in_block
    final_e = np.bincount(trip_block, weights=trip_hits, minlength=grid)
    final_e = final_e.astype(np.int64)
    if int(final_e.max(initial=0)) > capacity:
        raise FallbackToReference("scan buffer overflow; reference raises")

    wr_block = trip_block[has_hits]
    wr_pos = trip_pos[has_hits]
    wr_h = trip_hits[has_hits]
    wr_trans = _contig_trans_vec(wr_block * capacity + wr_pos, wr_h)
    acc.mem_transactions += np.bincount(
        wr_block, weights=wr_trans.astype(np.float64), minlength=grid
    )
    wr_per_block = np.bincount(wr_block, minlength=grid)
    acc.mem_accesses += wr_per_block
    acc.mem_active_lanes += np.bincount(
        wr_block, weights=wr_h.astype(np.float64), minlength=grid
    )
    acc.mem_ideal_transactions += wr_per_block
    np.maximum.at(
        acc.buffer_peak, wr_block, (wr_pos + wr_h).astype(np.float64)
    )

    # buffer content: each block's hit vertices in (trip, warp, lane)
    # order == ascending vertex id within that block's chunks
    buf_staged = staged.data(buf)
    hit_block = hit_warp // warps
    hit_slot = (
        trip_pos[hit_trip]
        + _segmented_exclusive_cumsum(
            np.ones(hit_v.size, dtype=np.int64), hit_trip
        )
    )
    buf_staged[hit_block * capacity + hit_slot] = hit_v

    tails_staged = staged.data(tails)
    tails_staged[:grid] = final_e

    stats = acc.finish(launch)
    shared.commit()
    staged.commit()
    return stats


# ---------------------------------------------------------------------------
# loop kernel: exact turn-level replay with batched event flushes
# ---------------------------------------------------------------------------

_LOOP_PARAMS = (
    "k", "offsets", "neighbors", "deg", "buf", "tails", "gpu_count",
    "capacity", "shared_capacity", "cfg", "own_range",
)

#: CSR entries per slice of the table build: bounds its temporaries
#: by a constant instead of by the edge count
_TABLE_CHUNK = 1 << 15


class _CSRTables:
    """The loop replay's per-CSR facts: adjacency shape and sweep charges.

    Everything a warp's Lines 13-20 sweep of one frontier vertex costs,
    except the Line 21 atomic and the appends, depends only on the
    vertex's adjacency slice — not on degrees, frontier, or schedule.
    So it is computed once per CSR, per *local* vertex index ``rel``:

    * ``ntrips`` — 32-lane trips of the sweep;
    * ``trans`` — 128-byte transactions of the bounds load (two
      ``offsets`` words), every trip's ``neighbors`` load, and every
      trip's scattered ``deg`` load (distinct 32-word segments among
      the trip's neighbor ids);
    * ``lanes`` — active lanes of those loads, ``2 + 2 * degree``.

    ``duplicates`` is the launch-level guard (a repeated neighbor in a
    slice can fire the Fig. 6 restore path); ``sorted`` says every
    slice is strictly increasing, so a trip's candidates share a
    32-word segment only when adjacent.  The build walks the CSR in
    slices of :data:`_TABLE_CHUNK` entries.
    """

    __slots__ = ("duplicates", "sorted", "ntrips", "trans", "lanes")

    def __init__(self, offs: np.ndarray, nbrs: np.ndarray) -> None:
        nv = offs.size - 1
        degree = np.diff(offs)
        self.ntrips = -(-degree // 32)
        self.lanes = 2 + 2 * degree
        self.trans = 1 + (np.arange(nv, dtype=np.int64) % 32 == 31)
        self.duplicates = False
        self.sorted = True
        v0 = 0
        while v0 < nv:
            v1 = int(np.searchsorted(
                offs, offs[v0] + _TABLE_CHUNK, side="right")) - 1
            v1 = min(max(v1, v0 + 1), nv)
            if offs[v1] > offs[v0]:
                self._sweep(offs, nbrs, v0, v1)
            v0 = v1

    def _sweep(
        self, offs: np.ndarray, nbrs: np.ndarray, v0: int, v1: int
    ) -> None:
        s, e = int(offs[v0]), int(offs[v1])
        nb = nbrs[s:e]
        vid = np.repeat(np.arange(v1 - v0), np.diff(offs[v0 : v1 + 1]))
        pos = np.arange(s, e, dtype=np.int64)
        lane = pos - offs[v0:v1][vid]
        trip_start = lane % 32 == 0
        step = np.diff(nb)[lane[1:] != 0]  # neighbor pairs inside a slice
        if bool(np.any(step == 0)):
            self.duplicates = True
        sorted_here = bool(np.all(step > 0))
        # neighbors load: a trip opens a transaction, and so does every
        # 32-word boundary it crosses
        new_tx = trip_start | (pos % 32 == 0)
        seg = nb >> 5
        if sorted_here:
            # deg load: equal segments are adjacent in a sorted trip
            new_seg = trip_start.copy()
            new_seg[1:] |= seg[1:] != seg[:-1]
            weight = new_tx.astype(np.int64) + new_seg
        else:
            self.sorted = False
            trip = np.cumsum(trip_start) - 1
            stride = int(seg.max()) + 1
            pairs = np.unique(trip * stride + seg)
            if not self.duplicates:
                self.duplicates = bool(
                    np.unique(vid * (stride * 32) + nb).size
                    < nb.size
                )
            weight = new_tx.astype(np.int64)
            np.add.at(weight, np.flatnonzero(trip_start)[pairs // stride], 1)
        self.trans[v0:v1] += np.bincount(
            vid, weights=weight, minlength=v1 - v0
        ).astype(np.int64)


def _csr_tables(offsets: DeviceArray, neighbors: DeviceArray) -> _CSRTables:
    """The cached :class:`_CSRTables` of one CSR array pair.

    Cached on the ``neighbors`` array (CSR arrays are immutable in
    every host program here); the cache key ties it to the paired
    ``offsets`` array so multi-GPU slices don't collide.
    """
    key = (id(offsets), offsets.data.size, neighbors.data.size)
    cached = getattr(neighbors, "_fastsim_csr", None)
    if cached is not None and cached[0] == key:
        return cached[1]  # type: ignore[no-any-return]
    tables = _CSRTables(offsets.data, neighbors.data)
    try:
        setattr(neighbors, "_fastsim_csr", (key, tables))
    except AttributeError:  # slotted array: just skip the cache
        pass
    return tables


class _LoopBlock:
    """Per-block replay state (the kernel's shared scalars)."""

    __slots__ = (
        "idx", "s", "e", "e_init", "pn_cur", "pn_next", "parity",
        "head_s", "head_e", "head_pn", "pending", "pref",
    )

    def __init__(self, idx: int) -> None:
        self.idx = idx
        self.s = 0
        self.e = 0
        self.e_init = 0
        self.pn_cur = 0
        self.pn_next = 0
        self.parity = 0
        self.head_s = 0
        self.head_e = 0
        self.head_pn = 0
        self.pending = 0
        self.pref: Tuple[np.ndarray, np.ndarray] | None = None


class _Rows:
    """A log of fixed-width int rows, folded once per launch.

    The event-by-event kernel appends flat Python rows; the batch
    kernel copies its row blocks into one array grown by doubling, so
    a launch's log never becomes thousands of small arrays alive among
    the batches' temporaries (that pins freed heap: about 4 MB more
    peak RSS on the hostbench ``bulk-ba`` workload).
    """

    __slots__ = ("width", "flat", "block", "size")

    def __init__(self, width: int) -> None:
        self.width = width
        self.flat: List[int] = []
        self.block = np.empty((0, width), dtype=np.int64)
        self.size = 0

    def extend(self, rows: np.ndarray) -> None:
        """Append a ``(n, width)`` array of rows."""
        end = self.size + rows.shape[0]
        if end > self.block.shape[0]:
            grown = np.empty(
                (max(end, 2 * self.block.shape[0]), self.width), np.int64
            )
            grown[: self.size] = self.block[: self.size]
            self.block = grown
        self.block[self.size : end] = rows
        self.size = end

    def table(self) -> np.ndarray:
        """Every row logged, as one ``(rows, width)`` array."""
        flat = np.asarray(self.flat, dtype=np.int64).reshape(-1, self.width)
        if not self.size:
            return flat
        return np.concatenate([flat, self.block[: self.size]])


class _LoopRun:
    """One loop-kernel launch being replayed; owns staging + events.

    A pending *event* is one warp's sweep of one frontier vertex:
    ``ev_gwid`` names the warp and ``ev_item`` the buffer slot it
    read (fetch loop) or the prefetched vertex itself (VP).  A flush
    kernel executes the batch and appends each charge's data-dependent
    inputs to three :class:`_Rows` logs, folded once per launch by
    :func:`_fold_charges`:

    * ``ev_rows`` — ``(gwid, rel, read)`` per event; ``read`` is the
      buffer read kind (:data:`_READ_VALUE`, ...), ``rel`` indexes
      the :class:`_CSRTables` holding the sweep's charges;
    * ``cand_rows`` — ``(gwid, lanes, transactions)`` per trip with
      Line 21 candidates;
    * ``append_rows`` — ``(gwid, count, shared, global_tx)`` per trip
      appending newly dead vertices (``shared`` of them into the SM
      window, the rest with ``global_tx`` transactions).
    """

    def __init__(
        self, launch: VectorLaunch, bound: Dict[str, Any], tables: _CSRTables
    ) -> None:
        self.launch = launch
        self.tables = tables
        self.cfg: VariantConfig = bound["cfg"]
        self.k = int(bound["k"])
        self.offsets: DeviceArray = bound["offsets"]
        self.neighbors: DeviceArray = bound["neighbors"]
        self.deg: DeviceArray = bound["deg"]
        self.buf: DeviceArray = bound["buf"]
        self.tails: DeviceArray = bound["tails"]
        self.gpu_count: DeviceArray = bound["gpu_count"]
        self.capacity = int(bound["capacity"])
        self.shared_capacity = (
            int(bound["shared_capacity"]) if self.cfg.shared_buffer else 0
        )
        self.effective = self.capacity + self.shared_capacity
        self.own_range: Optional[Tuple[int, int]] = bound["own_range"]
        self.base = self.own_range[0] if self.own_range is not None else 0
        self.grid = launch.grid_dim
        self.warps = launch.block_dim // launch.spec.warp_size
        self.acc = _Accounting(self.grid, self.warps)
        self.shared = _StagedShared(launch)
        self.staged = _StagedArrays()
        self.deg_staged = self.staged.data(self.deg)
        self.buf_staged = self.staged.data(self.buf)
        # the SM windows "B" of every block, flat (block * scap + slot)
        self.window = np.zeros(self.grid * self.shared_capacity, np.int64)
        self.blocks = [_LoopBlock(i) for i in range(self.grid)]
        self.ev_gwid: List[int] = []
        self.ev_item: List[int] = []
        self.ev_rows = _Rows(3)
        self.cand_rows = _Rows(3)
        self.append_rows = _Rows(4)

    def flush(self) -> None:
        if len(self.ev_gwid) < _BATCH_EVENTS:
            _flush_scalar(self)
        else:
            _flush_batch(self)
        self.ev_gwid.clear()
        self.ev_item.clear()
        for block in self.blocks:
            block.pending = 0


#: buffer read kinds of an event: none (VP prefetched the value), a
#: plain one-word gload, an SM read served by the shared window, an SM
#: read shifted past the window into global memory
_READ_VALUE, _READ_GLOBAL, _READ_WINDOW, _READ_SPILL = range(4)

#: batches of at least this many events run the numpy batch kernel;
#: below it the kernel's fixed numpy dispatch costs more than replaying
#: the batch event by event (the two cross between 32 and 48 events on
#: the hostbench ``hub-skew`` and ``bulk-ba`` batches)
_BATCH_EVENTS = 40


def _claim_slots(run: _LoopRun, gwid: int, nw: int) -> int:
    """Reserve one trip's ``nw`` append slots at its block's tail.

    Logs the trip's append row and returns the first slot (a logical
    index: below ``e_init + scap`` it lives in the SM window, above it
    shifts down by ``scap`` into the global buffer).
    """
    blk = run.blocks[gwid // run.warps]
    loc = blk.e
    if loc + nw > run.effective:
        raise FallbackToReference("loop buffer overflow; reference raises")
    blk.e = loc + nw
    top = blk.e_init + run.shared_capacity
    n_sh = min(max(top - loc, 0), nw)
    run.append_rows.flat += (
        gwid, nw, n_sh,
        contiguous_transactions(
            blk.idx * run.capacity + max(loc, top) - run.shared_capacity,
            nw - n_sh,
        ),
    )
    return loc


def _flush_scalar(run: _LoopRun) -> None:
    """Replay a small flush batch event by event, trip by trip.

    This is the reference order itself (atomics serialised in lane
    order), so it needs no closed form.  Assumes the launch-level
    no-duplicate-adjacency guard: within one trip every touched vertex
    is distinct, so a lane's atomic observes the pre-trip degree.
    Device arrays are read and written through memoryviews, which
    yield Python ints without a per-launch list copy.
    """
    k = run.k
    warps = run.warps
    cap = run.capacity
    scap = run.shared_capacity
    base = run.base
    deg = memoryview(run.deg_staged)
    buf = memoryview(run.buf_staged)
    window = memoryview(run.window)
    offs = memoryview(run.offsets.data)
    nbrs = memoryview(run.neighbors.data)
    osz = len(offs)
    lo, hi = run.own_range if run.own_range is not None else (0, len(deg))
    prefetch = run.cfg.prefetch
    sm = run.cfg.shared_buffer
    ev_rows = run.ev_rows.flat
    cand_rows = run.cand_rows.flat
    blocks = run.blocks
    for g, item in zip(run.ev_gwid, run.ev_item):
        b = g // warps
        if prefetch:
            v, kind = item, _READ_VALUE
        elif not sm:
            v, kind = buf[b * cap + item], _READ_GLOBAL
        else:
            e_init = blocks[b].e_init
            if e_init <= item < e_init + scap:
                v, kind = window[b * scap + item - e_init], _READ_WINDOW
            else:
                gpos = item - scap if item >= e_init else item
                if gpos >= cap:
                    raise FallbackToReference("loop buffer read overflow")
                v, kind = buf[b * cap + gpos], _READ_SPILL
        rel = v - base
        if rel < 0 or rel + 1 >= osz:
            raise FallbackToReference("frontier vertex outside CSR slice")
        ev_rows += (g, rel, kind)
        end = offs[rel + 1]
        for pos0 in range(offs[rel], end, 32):
            cand: List[int] = []
            newly: List[int] = []
            for x in nbrs[pos0 : min(pos0 + 32, end)]:
                du = deg[x]
                if du > k:
                    cand.append(x)
                    deg[x] = du - 1
                    if du == k + 1 and lo <= x < hi:
                        newly.append(x)
            if cand:
                cand_rows += (g, len(cand), len({x >> 5 for x in cand}))
            if newly:
                loc = _claim_slots(run, g, len(newly))
                e_init = blocks[b].e_init
                for slot, x in enumerate(newly, loc):
                    if slot < e_init + scap:
                        window[b * scap + slot - e_init] = x
                    else:
                        buf[b * cap + slot - scap] = x


def _flush_batch(run: _LoopRun) -> None:
    """Execute a large flush batch with array operations.

    Candidacy has a closed form in the batch's emission order (see the
    module docstring): the touch of ``u`` with rank ``r`` among all
    touches of ``u`` decrements it iff ``r < deg0(u) - k``, and the
    touch with rank ``deg0(u) - k - 1`` appends it.  Every charge that
    depends only on the CSR is left to the tables; this kernel finds
    the data-dependent rows — reads, candidate trips, append trips —
    and writes the appended vertices.
    """
    warps = run.warps
    cap = run.capacity
    scap = run.shared_capacity
    tables = run.tables
    gwid = np.asarray(run.ev_gwid, dtype=np.int64)
    item = np.asarray(run.ev_item, dtype=np.int64)
    blk = gwid // warps
    e_init = np.asarray([b.e_init for b in run.blocks], dtype=np.int64)
    if run.cfg.prefetch:
        v = item
        kind = np.full(item.size, _READ_VALUE, dtype=np.int64)
    elif not run.cfg.shared_buffer:
        v = run.buf_staged[blk * cap + item]
        kind = np.full(item.size, _READ_GLOBAL, dtype=np.int64)
    else:
        e0 = e_init[blk]
        in_window = (item >= e0) & (item < e0 + scap)
        spill = ~in_window
        gpos = np.where(item >= e0, item - scap, item)[spill]
        if int(gpos.max(initial=0)) >= cap:
            raise FallbackToReference("loop buffer read overflow")
        v = np.empty(item.size, dtype=np.int64)
        v[in_window] = run.window[(blk * scap + item - e0)[in_window]]
        v[spill] = run.buf_staged[blk[spill] * cap + gpos]
        kind = np.where(in_window, _READ_WINDOW, _READ_SPILL)
    rel = v - run.base
    offs = run.offsets.data
    if int(rel.min()) < 0 or int(rel.max()) + 1 >= offs.size:
        raise FallbackToReference("frontier vertex outside CSR slice")
    run.ev_rows.extend(np.column_stack((gwid, rel, kind)))
    starts = offs[rel]
    eid, lane, pos = _expand_edges(starts, offs[rel + 1] - starts)
    if pos.size == 0:
        return
    u = run.neighbors.data[pos]
    # global trip id of every touch, non-decreasing in emission order
    trip = _exclusive_cumsum(tables.ntrips[rel])[eid] + (lane >> 5)

    # -- candidacy by rank ---------------------------------------------
    order = np.argsort(u, kind="stable")
    first = _run_starts_mask(u[order])
    idx = np.arange(u.size, dtype=np.int64)
    rank = np.empty(u.size, dtype=np.int64)
    rank[order] = idx - np.maximum.accumulate(np.where(first, idx, 0))
    slack = run.deg_staged[u] - run.k
    cand = np.flatnonzero(rank < slack)
    newly = rank == slack - 1
    if run.own_range is not None:
        lo, hi = run.own_range
        newly &= (u >= lo) & (u < hi)
    np.subtract.at(run.deg_staged, u[cand], 1)

    if cand.size:
        # Line 21 transactions: distinct 32-word segments per trip
        ct = trip[cand]
        seg = u[cand] >> 5
        brk = _run_starts_mask(ct)
        starts_c = np.flatnonzero(brk)
        if tables.sorted:
            brk[1:] |= seg[1:] != seg[:-1]
            tx = np.add.reduceat(brk, starts_c)
        else:
            stride = int(seg.max()) + 1
            pairs = np.unique(ct * stride + seg) // stride
            tx = np.bincount(pairs, minlength=int(ct[-1]) + 1)[ct[starts_c]]
        run.cand_rows.extend(np.column_stack((
            gwid[eid[cand[starts_c]]],
            np.diff(np.append(starts_c, cand.size)),
            tx,
        )))

    nsel = np.flatnonzero(newly)
    if nsel.size:
        starts_n = np.flatnonzero(_run_starts_mask(trip[nsel]))
        counts = np.diff(np.append(starts_n, nsel.size))
        writers = gwid[eid[nsel[starts_n]]]
        locs = [
            _claim_slots(run, g, n)
            for g, n in zip(writers.tolist(), counts.tolist())
        ]
        slot = np.repeat(np.asarray(locs, dtype=np.int64) - starts_n, counts)
        slot += np.arange(nsel.size, dtype=np.int64)
        ap_blk = np.repeat(writers // warps, counts)
        ap_u = u[nsel]
        e0 = e_init[ap_blk]
        in_window = slot < e0 + scap
        run.window[(ap_blk * scap + slot - e0)[in_window]] = ap_u[in_window]
        spill = ~in_window
        run.buf_staged[(ap_blk * cap + slot - scap)[spill]] = ap_u[spill]


def _run_starts_mask(keys: np.ndarray) -> np.ndarray:
    """True where a run of equal ``keys`` starts (``keys`` non-empty)."""
    mask = np.empty(keys.size, dtype=bool)
    mask[0] = True
    mask[1:] = keys[1:] != keys[:-1]
    return mask


def _fold_charges(run: _LoopRun) -> None:
    """Fold a launch's logged flush rows into its accounting, once.

    Every charge is an exact dyadic value, so one ``bincount`` per
    metric over the whole launch equals the reference's one-by-one
    accumulation bit for bit (``docs/SIMULATOR.md``).
    """
    acc = run.acc
    cost = run.launch.cost
    gll = cost.global_load_latency
    gab = cost.global_atomic_base
    warps = run.warps
    nwarps = run.grid * warps
    grid = run.grid
    ev = run.ev_rows.table()
    if ev.size:
        gwid, rel, kind = ev[:, 0], ev[:, 1], ev[:, 2]
        blk = gwid // warps
        compaction = run.cfg.compaction
        scan = 0.0 if compaction == "none" else (
            3.0 if compaction == "ballot" else 11.0
        )
        # per read kind: issued, path, and one word of global traffic
        read_issued = np.array([0.0, 1.0, 6.0, 6.0])[kind]
        read_path = np.array([0.0, 1.0 + gll, 6.0, 6.0 + gll])[kind]
        read_mem = np.array([0.0, 1.0, 0.0, 1.0])[kind]
        ntrips = run.tables.ntrips[rel]
        # bounds load, then per trip: sync_warp + neighbors gload + deg
        # gload + charge(4), plus the compaction scan
        acc.issued += np.bincount(
            gwid, weights=read_issued + 1.0 + ntrips * (7.0 + scan),
            minlength=nwarps,
        )
        acc.path += np.bincount(
            gwid,
            weights=read_path + 1.0 + gll + ntrips * (7.0 + 2 * gll + scan),
            minlength=nwarps,
        )
        accesses = np.bincount(
            blk, weights=read_mem + 1.0 + 2.0 * ntrips, minlength=grid
        )
        acc.mem_accesses += accesses
        acc.mem_ideal_transactions += accesses
        acc.mem_transactions += np.bincount(
            blk, weights=read_mem + run.tables.trans[rel], minlength=grid
        )
        acc.mem_active_lanes += np.bincount(
            blk, weights=read_mem + run.tables.lanes[rel], minlength=grid
        )
    cr = run.cand_rows.table()
    if cr.size:
        # Line 21: one atomicSub per trip with candidates (distinct
        # addresses: no conflicts, base cycles only)
        per_warp = np.bincount(cr[:, 0], minlength=nwarps)
        acc.issued += per_warp
        acc.path += gab * per_warp
        blk = cr[:, 0] // warps
        per_block = np.bincount(blk, minlength=grid)
        acc.atomic_cycles += gab * per_block
        acc.mem_accesses += per_block
        acc.mem_ideal_transactions += per_block
        acc.mem_transactions += np.bincount(
            blk, weights=cr[:, 2], minlength=grid
        )
        acc.mem_active_lanes += np.bincount(
            blk, weights=cr[:, 1], minlength=grid
        )
    ar = run.append_rows.table()
    if ar.size:
        gwid, nw, n_sh, gl_tx = ar[:, 0], ar[:, 1], ar[:, 2], ar[:, 3]
        blk = gwid // warps
        n_gl = nw - n_sh
        # smem_get(e_init) + charge(4) under SM, then one sstore into
        # the window and/or one gstore past it
        stores = (
            (5.0 if run.cfg.shared_buffer else 0.0)
            + (n_sh > 0) + (n_gl > 0)
        )
        if run.cfg.compaction == "none":
            # atomicAdd(e, nw): nw serialised lanes
            serial = 2.0 + 0.25 * (nw - 1)
            issued, path = 1.0 + stores, serial + stores
            acc.atomic_cycles += np.bincount(
                blk, weights=serial, minlength=grid
            )
            acc.atomic_conflicts += np.bincount(
                blk, weights=nw - 1, minlength=grid
            )
        else:
            # atomic + shfl + charge
            issued, path = 3.0 + stores, 4.0 + stores
            acc.atomic_cycles += 2.0 * np.bincount(blk, minlength=grid)
        acc.issued += np.bincount(gwid, weights=issued, minlength=nwarps)
        acc.path += np.bincount(gwid, weights=path, minlength=nwarps)
        gstores = np.bincount(blk, weights=n_gl > 0, minlength=grid)
        acc.mem_accesses += gstores
        acc.mem_ideal_transactions += gstores
        acc.mem_transactions += np.bincount(
            blk, weights=gl_tx, minlength=grid
        )
        acc.mem_active_lanes += np.bincount(
            blk, weights=n_gl, minlength=grid
        )
        # tails only grow, so a block's peak is its final tail
        appended = np.bincount(blk, minlength=grid) > 0
        final = np.asarray([b.e for b in run.blocks], dtype=np.float64)
        np.maximum(
            acc.buffer_peak, np.where(appended, final, 0.0),
            out=acc.buffer_peak,
        )


def _loop_vectorized(launch: VectorLaunch) -> KernelStats:
    bound = _bind(
        _LOOP_PARAMS, {"own_range": None}, launch.args, launch.kwargs
    )
    cfg: VariantConfig = bound["cfg"]
    if cfg.ring_buffer:
        raise FallbackToReference("ring buffers wrap against a moving head")
    if cfg.virtual_warps > 1:
        raise FallbackToReference("virtual warping is not vectorized")
    if cfg.prefetch and cfg.shared_buffer:
        raise FallbackToReference("prefetch+shared-buffer combination")
    tables = _csr_tables(bound["offsets"], bound["neighbors"])
    if tables.duplicates:
        raise FallbackToReference(
            "duplicate in-adjacency neighbors can trigger the restore path"
        )
    run = _LoopRun(launch, bound, tables)
    if cfg.prefetch:
        _replay_prefetched(run)
    else:
        _replay_drain(run)
    _fold_charges(run)
    stats = run.acc.finish(launch)
    run.shared.commit()
    run.staged.commit()
    return stats


def _loop_init_turn(run: _LoopRun, gwid: int) -> None:
    """The first turn: Thread-0 prologue + buffer-view construction."""
    acc = run.acc
    blk = run.blocks[gwid // run.warps]
    wid = gwid % run.warps
    cfg = run.cfg
    if wid == 0:
        e0 = int(run.tails.data[blk.idx])
        acc.warp_op(gwid, 1.0, 1.0 + run.launch.cost.global_load_latency)
        acc.note_access(blk.idx, 1, 1)
        sets = 2 + (1 if cfg.shared_buffer else 0) + (2 if cfg.prefetch else 0)
        acc.warp_op(gwid, float(sets), float(sets))
        blk.s = 0
        blk.e = e0
        blk.e_init = e0
    if cfg.shared_buffer:
        run.shared.alloc(blk.idx, "B", run.shared_capacity)
    if cfg.prefetch:
        blk.pref = (
            run.shared.alloc(blk.idx, "pref0", run.warps),
            run.shared.alloc(blk.idx, "pref1", run.warps),
        )


def _final_turn(run: _LoopRun, gwid: int) -> None:
    """Line 26: Thread 0 folds the block tail into gpu_count, all exit."""
    blk = run.blocks[gwid // run.warps]
    if gwid % run.warps == 0:
        acc = run.acc
        cost = run.launch.cost
        acc.warp_op(gwid, 1.0, 1.0)  # smem_get("e")
        acc.warp_op(gwid, 1.0, cost.global_atomic_base)
        acc.atomic_cycles[blk.idx] += cost.global_atomic_base
        acc.note_access(blk.idx, 1, 1)
        run.staged.data(run.gpu_count)[0] += blk.e


def _replay_drain(run: _LoopRun) -> None:
    """Exact replay of ``_drain`` (Ours/SM/BC/EC fetch loop).

    The reference scheduler's FIFO keeps every block's warps contiguous
    (barrier releases extend the queue atomically, and BODY steppers
    re-append back to back), so blocks advance through the HEAD and
    BODY phases *in lockstep, in stable block order*.  That lets the
    replay iterate whole phases instead of simulating 64 queue turns
    per round.  Two reference behaviours survive the batching:

    * the flush trigger — the first block popped at HEAD with pending
      events flushes everyone, exactly as in the turn-level schedule;
    * within-block emission order — a warp that skipped a BODY round
      (``s + wid >= e``) re-arrives at the barrier *before* that
      round's emitters, so the block's pop order permutes; ``worder``
      tracks it, because the order in which warps emit (not the slots
      they emit) fixes the global candidacy ranks.

    Per-turn charges (identical +5/+5 per HEAD visit, +1/+1 per
    Thread-0 BODY turn) are counted in Python ints and folded in one
    vector step afterwards — sums of exact values are order-free, so
    this is bit-identical to charging per turn.
    """
    warps = run.warps
    head_rounds = [0] * run.grid  # every live warp charges 5/5 per HEAD
    body_w0 = [0] * run.grid
    barriers = [0] * run.grid
    ev_g = run.ev_gwid
    ev_s = run.ev_item
    order = list(run.blocks)
    for blk in order:
        # only Thread 0 charges here, and shared allocs dedupe per
        # block, so one init turn per block covers every warp
        _loop_init_turn(run, blk.idx * warps)
        barriers[blk.idx] += 1  # the INIT arrival barrier
    worder = [list(range(warps)) for _ in range(run.grid)]
    while order:
        keep = []
        for blk in order:  # -- HEAD phase (Lines 4-8) ------------------
            if blk.pending:
                run.flush()
            head_rounds[blk.idx] += 1
            barriers[blk.idx] += 1
            if blk.s == blk.e:
                _final_turn(run, blk.idx * warps)  # Thread-0 only
            else:
                blk.head_s = blk.s
                blk.head_e = blk.e
                keep.append(blk)
        for blk in keep:  # -- BODY phase (Lines 9-12) ------------------
            body_w0[blk.idx] += 1
            s0 = blk.head_s
            e0 = blk.head_e
            blk.s = s0 + warps if s0 + warps < e0 else e0
            base = blk.idx * warps
            b = blk.idx
            wo = worder[b]
            if e0 - s0 >= warps:
                ev_g.extend([base + wid for wid in wo])
                ev_s.extend([s0 + wid for wid in wo])
                blk.pending += warps
            else:
                stay = []
                stepped = []
                for wid in wo:
                    if s0 + wid < e0:
                        ev_g.append(base + wid)
                        ev_s.append(s0 + wid)
                        stepped.append(wid)
                    else:
                        stay.append(wid)
                blk.pending += len(stepped)
                stay.extend(stepped)
                worder[b] = stay
            barriers[blk.idx] += 1
        order = keep
    acc = run.acc
    hr = np.repeat(np.asarray(head_rounds, dtype=np.float64), warps)
    acc.issued += 5.0 * hr
    acc.path += 5.0 * hr
    w0 = np.arange(run.grid, dtype=np.int64) * warps
    bw = np.asarray(body_w0, dtype=np.float64)
    acc.issued[w0] += bw
    acc.path[w0] += bw
    acc.barriers += np.asarray(barriers, dtype=np.int64)


def _replay_prefetched(run: _LoopRun) -> None:
    """Exact replay of ``_drain_prefetched`` (the VP pipeline).

    The same phase-lock argument as :func:`_replay_drain` applies, and
    here every warp re-queues every round (even idle lanes pass through
    the MID/TAIL phases), so the within-block pop order never permutes:
    consumers emit in plain warp order.  Each round is HEAD (flush
    check, exit test), MID (Thread-0 prefetches the next batch while
    warps 1..pn consume the previous one), TAIL (publish ``pn``, flip
    the double-buffer parity) — three barriers per round, exactly the
    reference's arrival counts.

    As in :func:`_replay_drain`, fixed per-turn charges (HEAD +4/+4,
    TAIL Thread-0 +2/+2, one sload per consumed prefetch value) are
    counted in Python ints and folded in bulk afterwards; only the
    data-dependent Thread-0 prefetch turn charges inline.
    """
    warps = run.warps
    head_rounds = [0] * run.grid
    mid_loads = [0] * (run.grid * warps)  # warps 1..head_pn: +1/+1 each
    mid_w0 = [0] * run.grid  # charge(2) + 2 smem_set: +4/+4 per MID turn
    batch_w0 = [0] * run.grid  # gload + sstore rounds: +2 / +(2+latency)
    mem_trans = [0] * run.grid
    mem_acc = [0] * run.grid
    mem_lanes = [0] * run.grid
    mem_ideal = [0] * run.grid
    tail_w0 = [0] * run.grid
    barriers = [0] * run.grid
    acc = run.acc
    cost = run.launch.cost
    ev_g = run.ev_gwid
    ev_v = run.ev_item
    order = list(run.blocks)
    for blk in order:
        # Thread-0 charges + per-block shared allocs (deduped)
        _loop_init_turn(run, blk.idx * warps)
        barriers[blk.idx] += 1  # the INIT arrival barrier
    while order:
        keep = []
        for blk in order:  # -- HEAD phase --------------------------------
            if blk.pending:
                run.flush()
            head_rounds[blk.idx] += 1
            barriers[blk.idx] += 1
            if blk.s == blk.e and blk.pn_cur == 0:
                _final_turn(run, blk.idx * warps)  # Thread-0 only
            else:
                blk.head_s = blk.s
                blk.head_e = blk.e
                blk.head_pn = blk.pn_cur
                keep.append(blk)
        for blk in keep:  # -- MID phase ----------------------------------
            assert blk.pref is not None
            gwid0 = blk.idx * warps
            b = blk.idx
            batch = min(warps - 1, blk.head_e - blk.head_s)
            mid_w0[b] += 1  # charge(2) + smem_set(s) + smem_set(pn_next)
            if batch > 0:
                # read_batch: one dependent gload of `batch` words,
                # then one sstore into the prefetch buffer
                s0 = blk.head_s
                batch_w0[b] += 1
                mem_trans[b] += contiguous_transactions(
                    b * run.capacity + s0, batch
                )
                ideal = -(-batch // 32)
                mem_acc[b] += max(1, ideal)
                mem_lanes[b] += batch
                mem_ideal[b] += ideal
                blk.pref[1 - blk.parity][1 : 1 + batch] = run.buf_staged[
                    b * run.capacity + s0 : b * run.capacity + s0 + batch
                ]
            blk.s = blk.head_s + batch
            blk.pn_next = batch
            if blk.head_pn:
                vals = blk.pref[blk.parity][1 : blk.head_pn + 1].tolist()
                for wid, val in enumerate(vals, 1):
                    mid_loads[gwid0 + wid] += 1
                    ev_g.append(gwid0 + wid)
                    ev_v.append(val)
                blk.pending += blk.head_pn
            barriers[b] += 1
        for blk in keep:  # -- TAIL phase ---------------------------------
            tail_w0[blk.idx] += 1  # smem_get + smem_set: +2/+2
            blk.pn_cur = blk.pn_next
            blk.parity ^= 1  # every warp advanced `iteration`
            barriers[blk.idx] += 1  # the STEPPED re-arrival barrier
        order = keep
    hv = np.repeat(np.asarray(head_rounds, dtype=np.float64), warps)
    ml = np.asarray(mid_loads, dtype=np.float64)
    acc.issued += 4.0 * hv + ml
    acc.path += 4.0 * hv + ml
    w0 = np.arange(run.grid, dtype=np.int64) * warps
    tw = np.asarray(tail_w0, dtype=np.float64)
    mw = np.asarray(mid_w0, dtype=np.float64)
    bw = np.asarray(batch_w0, dtype=np.float64)
    acc.issued[w0] += 2.0 * tw + 4.0 * mw + 2.0 * bw
    acc.path[w0] += (
        2.0 * tw + 4.0 * mw + bw * (2.0 + cost.global_load_latency)
    )
    acc.mem_transactions += np.asarray(mem_trans, dtype=np.float64)
    acc.mem_accesses += np.asarray(mem_acc, dtype=np.float64)
    acc.mem_active_lanes += np.asarray(mem_lanes, dtype=np.float64)
    acc.mem_ideal_transactions += np.asarray(mem_ideal, dtype=np.float64)
    acc.barriers += np.asarray(barriers, dtype=np.int64)


def register() -> None:
    """Register the executors (idempotent; runs at import)."""
    register_vectorized_kernel(scan_kernel, _scan_vectorized)
    register_vectorized_kernel(loop_kernel, _loop_vectorized)


register()
