"""The host program (Algorithm 1 of the paper).

Loads the CSR graph into simulated device memory, allocates the
per-block buffers, and alternates ``scan(k)`` / ``loop(k)`` kernel
launches until every vertex is removed.  The mutable device ``deg``
array converges to the core numbers and is read back at the end.

Observability: the host loop is the producer of the per-round signals
(``docs/OBSERVABILITY.md``).  It always collects the per-round frontier
sizes (``result.stats["frontier_per_round"]``) and folds the flat
``host.* / frontier.* / buffer.* / kernel.* / device.*`` counters into
``result.counters`` — these are cheap aggregates of quantities the
simulator tallies anyway, so they exist with tracing off and are
byte-identical to an untraced run.  With a tracer attached to the
device, each round additionally becomes a ``"host"``-track span
enclosing its two kernel spans, plus a ``frontier`` counter-track
sample — the per-round decay Perfetto plots directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.core.fastsim  # noqa: F401  (registers vectorized executors)
from repro.core.driver import HostRun
from repro.core.loop_kernel import loop_kernel
from repro.core.scan_kernel import scan_kernel
from repro.core.variants import VariantConfig, get_variant
from repro.errors import ReproError
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import Device
from repro.gpusim.engine import ExecutionEngine
from repro.gpusim.spec import DeviceSpec
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Tracer
from repro.result import DecompositionResult

__all__ = ["gpu_peel", "GpuPeelOptions"]


@dataclass(frozen=True)
class GpuPeelOptions:
    """Tunables of a simulated-GPU peeling run (the kernel variant is
    :func:`gpu_peel`'s own ``variant`` argument)."""

    #: per-block buffer capacity in vertex IDs; ``None`` = the device
    #: spec's default (the paper fixes 1M IDs per block)
    buffer_capacity: int | None = None
    #: simulated-time force-termination budget (Tables III/IV: "> 1hr")
    time_budget_ms: float | None = None
    #: probability of an extra scheduling point inside the read ->
    #: atomicSub window, to fuzz cross-block races (tests only)
    preempt_prob: float = 0.0
    #: RNG seed for the fuzzing schedule
    seed: int = 0


def gpu_peel(
    graph: CSRGraph,
    variant: str | VariantConfig = "ours",
    device: Device | None = None,
    spec: DeviceSpec | None = None,
    cost_model: CostModel | None = None,
    options: GpuPeelOptions | None = None,
    tracer: Tracer | None = None,
    sanitize: bool = False,
    staticheck: bool = False,
    dataflow: bool = False,
    profile: bool = False,
    memtrace: bool = False,
    engine: "str | ExecutionEngine | None" = None,
    report: bool = False,
    critpath: bool = False,
) -> DecompositionResult:
    """Run the paper's GPU peeling algorithm on the simulator.

    Args:
        graph: input graph in CSR form.
        variant: ablation variant (``"ours"``, ``"sm"``, ``"vp"``,
            ``"bc"``, ``"ec"``, combinations like ``"bc+sm"``), or a
            :class:`VariantConfig`.
        device: a pre-built device (so callers can share a memory pool
            or inspect metrics); otherwise one is created from ``spec``
            and ``cost_model``.  The requested observers are attached
            to it unless it already carries its own.  A ``spec``,
            ``cost_model`` or device-level option (time budget, fuzzing)
            passed with it would be ignored, so that raises
            :class:`~repro.errors.ReproError`.
        options: further tunables: buffer capacity, time budget and
            the schedule-fuzzing knobs (:class:`GpuPeelOptions`).
        tracer: an explicit :class:`~repro.obs.tracer.Tracer` for this
            run (``KCoreDecomposer(trace=True)`` passes one); without
            it, a freshly created device still picks up the process-wide
            active tracer, and a pre-built ``device`` keeps its own.
        sanitize: run every launch under the dynamic race detector; the
            collected :class:`~repro.sanitize.report.SanitizerReport`
            lands on ``result.sanitizer``.
        staticheck: check every launch's measured ``KernelStats``
            against the variant's static resource certificate; the
            differential checker's report lands on
            ``result.staticheck``.  Not available for ring-buffer
            variants, whose buffers have no static slot bound.
        dataflow: check every launch against the static dataflow
            certificates: race-freedom proofs/obligations, the
            divergence/coalescing bracket, and the engine-precondition
            tier prediction (see :mod:`repro.staticheck.dataflow`).
            Findings merge into ``result.staticheck``.  Unlike
            ``staticheck`` this *is* available for ring-buffer variants
            — their undischarged obligations surface as
            ``unproven-race-freedom`` warnings.
        profile: collect a speed-of-light profile of every launch; the
            :class:`~repro.profile.report.ProfileReport` — per-launch
            bound classification, per-kernel and per-round aggregation,
            flamegraph export — lands on ``result.profile``.
        memtrace: record the lifetime of every device allocation and
            attribute the memory peak exactly; the
            :class:`~repro.memtrace.report.MemtraceReport` lands on
            ``result.memtrace``.
        engine: execution engine for every kernel launch:
            ``"reference"``, ``"vectorized"``, an
            :class:`~repro.gpusim.engine.ExecutionEngine` instance, or
            ``None`` for the default.  Results are byte-identical
            across engines; only host wall-clock time changes.  Ignored
            when a pre-built ``device`` is passed — that device keeps
            its own engine.
        report: merge every enabled telemetry vertical into one
            validated ``repro.runreport/v1`` record on
            ``result.report``; implies ``profile`` and ``memtrace`` so
            the report always covers kernels, cycles and the memory
            peak.  See the "Run reports" section of
            ``docs/OBSERVABILITY.md``.
        critpath: reconstruct the run's causal critical path and
            what-if projections; the validated
            :class:`~repro.obs.critpath.CritPathReport` lands on
            ``result.critpath`` (``None`` for an empty graph, which
            launches no kernels).  Implies ``profile``.  See the
            "Critical path & what-if" section of
            ``docs/OBSERVABILITY.md``.

    Every observer is observability-only: simulated time, counters and
    core numbers are byte-identical with any of them on or off.

    Returns:
        A :class:`DecompositionResult` whose ``simulated_ms`` /
        ``peak_memory_bytes`` come from the device cost model, whose
        ``stats`` include per-phase cycle splits for the ablation, and
        whose ``counters`` carry the documented observability metrics.
    """
    opts = options or GpuPeelOptions()
    cfg = (
        variant if isinstance(variant, VariantConfig)
        else get_variant(variant)
    )
    run = HostRun(
        cfg, f"gpu-{cfg.name}", tracer=tracer, engine=engine,
        sanitize=sanitize, staticheck=staticheck, dataflow=dataflow,
        profile=profile, memtrace=memtrace, report=report,
        critpath=critpath,
    )
    device = run.device(
        device, spec=spec, cost_model=cost_model,
        time_budget_ms=opts.time_budget_ms,
        preempt_prob=opts.preempt_prob, seed=opts.seed,
    )
    spec = device.spec
    if cfg.prefetch and spec.warps_per_block < 2:
        raise ReproError(
            "the VP variant needs at least 2 warps per block "
            f"(block_dim >= {2 * spec.warp_size})"
        )
    run.arm(
        graph, buffer_capacity=opts.buffer_capacity,
        preempt_prob=opts.preempt_prob,
    )
    n = graph.num_vertices
    if n == 0:
        return run.result(np.empty(0, dtype=np.int64))

    grid_dim = spec.default_grid_dim
    capacity = opts.buffer_capacity or spec.block_buffer_capacity
    shared_capacity = spec.shared_buffer_capacity if cfg.shared_buffer else 0

    # Algorithm 1 Line 1: load G into device memory
    offsets_d = device.malloc("offsets", graph.offsets)
    neighbors_d = device.malloc("neighbors", graph.neighbors)
    deg_d = device.malloc("deg", graph.degrees)
    # Line 4: allocate the per-block buffers (Fig. 4)
    buf_d = device.malloc("buf", grid_dim * capacity)
    tails_d = device.malloc("buf_tails", grid_dim)
    count_d = device.malloc("gpu_count", 1)  # Lines 2-3
    if cfg.compaction != "none":
        # the compaction variants stage vid/p/a arrays per block; this
        # mirrors the constant extra footprint BC/EC show in Table V
        device.malloc(
            "compaction_scratch", 3 * grid_dim * spec.default_block_dim
        )

    scan_cycles = 0.0
    loop_cycles = 0.0
    buffer_peak = 0.0
    frontier_per_round: list[int] = []
    count = 0
    k = 0
    max_rounds = graph.max_degree + 2  # k_max <= max degree
    while count < n:  # Line 5
        if k > max_rounds:
            raise ReproError(
                f"peeling made no progress after {k} rounds "
                f"({count}/{n} vertices removed)"
            )
        round_span = run.begin_round(k, f"round k={k}")
        stats = device.launch(
            scan_kernel, args=(k, deg_d, buf_d, tails_d, n, capacity, cfg)
        )  # Line 6
        run.observe("scan_kernel", stats, k)
        scan_cycles += stats.cycles
        if stats.buffer_peak > buffer_peak:
            buffer_peak = stats.buffer_peak
        stats = device.launch(
            loop_kernel,
            args=(
                k, offsets_d, neighbors_d, deg_d, buf_d, tails_d,
                count_d, capacity, shared_capacity, cfg,
            ),
        )  # Line 7
        run.observe("loop_kernel", stats, k)
        loop_cycles += stats.cycles
        if stats.buffer_peak > buffer_peak:
            buffer_peak = stats.buffer_peak
        new_count = int(device.read_back(count_d)[0])  # Line 8
        frontier_per_round.append(new_count - count)
        run.end_round(round_span, k=k, frontier=new_count - count,
                      removed=new_count)
        count = new_count
        k += 1  # Line 9

    core = device.read_back(deg_d)  # Line 10
    effective_capacity = capacity + shared_capacity
    counters = {
        "host.rounds": float(k),
        "kernel.scan.launches": float(k),
        "kernel.loop.launches": float(k),
        "kernel.scan.cycles": scan_cycles,
        "kernel.loop.cycles": loop_cycles,
        "frontier.peak": float(max(frontier_per_round, default=0)),
        "frontier.total": float(count),
        "frontier.mean": float(count) / k if k else 0.0,
        "buffer.peak_fill": buffer_peak,
        "buffer.capacity": float(effective_capacity),
        "buffer.peak_occupancy": (
            buffer_peak / effective_capacity if effective_capacity else 0.0
        ),
    }
    return run.result(
        core,
        rounds=k,
        stats={
            "kernel_launches": device.kernel_launches,
            "scan_cycles": scan_cycles,
            "loop_cycles": loop_cycles,
            "buffer_capacity": capacity,
            "grid_dim": grid_dim,
            "block_dim": spec.default_block_dim,
            "variant": cfg.name,
            "engine": device.engine.name,
            "frontier_per_round": frontier_per_round,
        },
        counters=counters,
    )
