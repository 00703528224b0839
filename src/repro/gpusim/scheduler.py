"""Cooperative scheduler: runs a kernel grid of warp generators.

Execution model (blocks ▸ warps ▸ lanes): a launch instantiates the
kernel generator once per warp — ``grid_dim`` blocks of
``block_dim / 32`` warps, each warp advancing its 32 lanes in numpy
lockstep.  All warps of all blocks share one round-robin run queue, so
work from different blocks interleaves — cross-block races on global
memory (the scenario of the paper's Fig. 6) actually occur.
``__syncthreads`` (yielding :data:`~repro.gpusim.context.BARRIER`)
parks a warp until every still-running warp of its block arrives,
matching CUDA semantics where exited threads no longer participate; a
block whose warps can never all arrive raises
:class:`~repro.errors.KernelDeadlockError`.

Cost-model units: each warp accumulates *warp-instructions* (``issued``)
and *serial-path cycles* (``path``: instructions + dependent-load
stalls + atomic serialisation); blocks additionally count 128-byte
memory transactions and barrier generations.  At teardown these fold
into one :class:`~repro.gpusim.costmodel.BlockTiming` per block, the
roofline cost model combines them into kernel cycles, and the whole
launch is summarised as a :class:`KernelStats` — the record the
device-level tracer hook (:mod:`repro.obs`) attaches to each kernel
span.

This interpreter is the ``reference`` execution engine
(:mod:`repro.gpusim.engine`): the semantic ground truth every other
engine must match byte for byte.  Two scheduling invariants of the
single FIFO are load-bearing for that contract (the ``vectorized``
engine's phase-locked replay is *proved* against them, see
``docs/SIMULATOR.md``):

* a barrier release re-queues the whole block atomically and in warp
  order (``_release_if_complete`` extends the queue in ``waiting``
  arrival order), so a block's warps stay contiguous in the queue;
* ``STEP`` re-appends to the tail, so blocks advance through their
  barrier-delimited phases in lockstep, in stable block order.

Change the queueing discipline and the replay's assumptions break —
the cross-engine property suite (``tests/properties/test_engines.py``)
will catch it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence

import numpy as np

from repro.errors import KernelDeadlockError
from repro.gpusim.context import BARRIER, STEP, BlockState, WarpContext
from repro.gpusim.costmodel import BlockTiming, CostModel
from repro.gpusim.spec import DeviceSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memtrace.tracker import MemoryTracker
    from repro.sanitize.racecheck import LaunchMonitor

__all__ = ["KernelStats", "run_kernel"]

KernelFn = Callable[..., Generator[str, None, None]]


@dataclass(frozen=True)
class KernelStats:
    """Aggregated outcome of one kernel launch.

    ``atomic_conflicts`` and ``buffer_peak`` are observability-only
    tallies (see :class:`~repro.gpusim.costmodel.BlockTiming`):
    conflicts sum over all blocks, ``buffer_peak`` is the fullest
    single block buffer in logical positions.  The ``atomic_cycles`` /
    ``mem_*`` fields are likewise metric-only block-timing sums that
    feed the profiler's efficiency figures (:mod:`repro.profile`).

    ``block_timings`` carries the raw per-block
    :class:`~repro.gpusim.costmodel.BlockTiming` records when the
    launch ran with ``collect_timings=True`` (a profiler was attached);
    it is ``None`` otherwise and never influences simulated time.

    ``served_by`` names the engine tier that actually executed the
    launch: ``"reference"`` for the interpreter (this module), or the
    engine name (``"vectorized"``) when a registered batched
    executor served it.  A vectorized engine that routes a launch to
    the interpreter — structural fallback, attached monitor, preemption
    — leaves the field at ``"reference"``, which is how the
    per-launch attribution (``engine.served.<tier>`` counters, the
    static engine-precondition checker of
    :mod:`repro.staticheck.dataflow`) observes the routing decision.
    Metric-only: never influences simulated results.
    """

    cycles: float
    issued: float
    mem_transactions: float
    barriers: int
    max_warp_path: float
    atomic_conflicts: float = 0.0
    buffer_peak: float = 0.0
    atomic_cycles: float = 0.0
    mem_accesses: float = 0.0
    mem_active_lanes: float = 0.0
    mem_ideal_transactions: float = 0.0
    block_timings: "tuple[BlockTiming, ...] | None" = None
    served_by: str = "reference"

    def milliseconds(self, cost: CostModel) -> float:
        """Kernel duration in simulated milliseconds (device time only)."""
        return cost.cycles_to_ms(self.cycles)


@dataclass
class _Runner:
    block: BlockState
    ctx: WarpContext
    gen: Generator[str, None, None]


def run_kernel(
    kernel_fn: KernelFn,
    spec: DeviceSpec,
    cost: CostModel,
    grid_dim: int,
    block_dim: int,
    args: Sequence[Any] = (),
    kwargs: dict | None = None,
    preempt_prob: float = 0.0,
    seed: int = 0,
    monitor: "LaunchMonitor | None" = None,
    collect_timings: bool = False,
    memtracker: "MemoryTracker | None" = None,
) -> KernelStats:
    """Execute ``kernel_fn`` over a ``grid_dim x block_dim`` launch.

    ``kernel_fn(ctx, *args, **kwargs)`` must be a generator function;
    it is instantiated once per warp.  Returns the kernel's
    :class:`KernelStats` under the given cost model.

    Callers normally go through
    :meth:`~repro.gpusim.device.Device.launch`, which routes through
    the device's execution engine; this function *is* the
    ``reference`` engine and the fallback target of the others.

    ``monitor`` is an optional racecheck shadow logger (see
    :mod:`repro.sanitize.racecheck`): it is threaded into every warp
    context, and the scheduler reports each warp's barrier arrivals
    and its exit so the sanitizer can diagnose barrier divergence.
    Monitoring never changes costs or scheduling.

    ``collect_timings=True`` attaches the per-block
    :class:`~repro.gpusim.costmodel.BlockTiming` records to the
    returned stats (``stats.block_timings``) for the profiler; the
    records are produced either way, so collection never perturbs the
    run.

    ``memtracker`` is an optional memory tracker (see
    :mod:`repro.memtrace`): it is handed to every
    :class:`~repro.gpusim.context.BlockState` so per-block
    shared-memory allocations are attributed to the launch.  Tracking
    never changes costs or scheduling.
    """
    if block_dim % spec.warp_size:
        raise ValueError("block_dim must be a multiple of the warp size")
    kwargs = kwargs or {}
    warps_per_block = block_dim // spec.warp_size
    rng = np.random.default_rng(seed) if preempt_prob > 0 else None

    blocks = [
        BlockState(b, warps_per_block, spec, memtracker=memtracker)
        for b in range(grid_dim)
    ]
    queue: deque[_Runner] = deque()
    for block in blocks:
        for w in range(warps_per_block):
            ctx = WarpContext(
                block, w, grid_dim, block_dim, spec, cost,
                rng=rng, preempt_prob=preempt_prob, monitor=monitor,
            )
            queue.append(_Runner(block, ctx, kernel_fn(ctx, *args, **kwargs)))

    def _release_if_complete(block: BlockState) -> None:
        if block.waiting and len(block.waiting) == block.active_warps:
            block.timing.barriers += 1
            queue.extend(block.waiting)
            block.waiting.clear()

    max_paths = [0.0] * grid_dim
    while queue:
        runner = queue.popleft()
        block = runner.block
        try:
            token = next(runner.gen)
        except StopIteration:
            block.active_warps -= 1
            max_paths[block.block_idx] = max(
                max_paths[block.block_idx], runner.ctx.path
            )
            block.timing.issued += runner.ctx.issued
            if monitor is not None:
                monitor.on_warp_exit(runner.ctx)
            _release_if_complete(block)
            continue
        if token == STEP:
            queue.append(runner)
        elif token == BARRIER:
            block.waiting.append(runner)
            if monitor is not None:
                monitor.on_barrier_arrival(runner.ctx)
            _release_if_complete(block)
        else:
            raise ValueError(f"kernel yielded unknown token {token!r}")

    for block in blocks:
        if block.waiting:
            raise KernelDeadlockError(
                f"block {block.block_idx}: {len(block.waiting)} warps stuck "
                f"at __syncthreads with {block.active_warps} still active"
            )

    timings: list[BlockTiming] = []
    for block in blocks:
        block.timing.max_warp_path = max_paths[block.block_idx]
        timings.append(block.timing)
    cycles = cost.kernel_cycles(timings, spec.num_sms)
    return KernelStats(
        cycles=cycles,
        issued=sum(t.issued for t in timings),
        mem_transactions=sum(t.mem_transactions for t in timings),
        barriers=sum(t.barriers for t in timings),
        max_warp_path=max(t.max_warp_path for t in timings) if timings else 0.0,
        atomic_conflicts=sum(t.atomic_conflicts for t in timings),
        buffer_peak=max(t.buffer_peak for t in timings) if timings else 0.0,
        atomic_cycles=sum(t.atomic_cycles for t in timings),
        mem_accesses=sum(t.mem_accesses for t in timings),
        mem_active_lanes=sum(t.mem_active_lanes for t in timings),
        mem_ideal_transactions=sum(
            t.mem_ideal_transactions for t in timings
        ),
        block_timings=tuple(timings) if collect_timings else None,
    )
