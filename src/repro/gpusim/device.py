"""The device facade: memory + launches + accumulated metrics.

A :class:`Device` plays the role of the GPU in the paper's host
programs: the host ``malloc``s input arrays, launches a series of
kernels, reads scalars back, and finally frees everything.  The device
accumulates simulated time (kernel cycles plus per-launch host
overhead) and tracks peak global-memory usage for Table V.

An optional ``time_budget_ms`` reproduces the paper's one-hour
force-termination: when accumulated simulated time crosses the budget,
the next launch raises
:class:`~repro.errors.SimulatedTimeLimitExceeded`.

Observability
-------------

The device is the central trace producer of the GPU stack (see
:mod:`repro.obs` and ``docs/OBSERVABILITY.md``).  At construction it
captures either an explicitly passed tracer or the process-wide one
installed by :func:`repro.obs.start_tracing`; when that attribute is
``None`` (the default) every hook below is a single ``is not None``
test — no event objects are allocated on the cold path.

With a tracer attached, the device emits, on the *simulated* timeline:

* one span per :meth:`launch` on the device's own track (``name=``,
  default ``"device"``; multi-GPU workers are ``gpu0``, ``gpu1``, ...),
  named after the kernel function, carrying the emitting device id and
  the launch's :class:`~repro.gpusim.scheduler.KernelStats` (cycles,
  issued warp-instructions, memory transactions, barriers, atomic
  conflicts, buffer high-water mark) as span arguments;
* one span per labelled :meth:`charge` — how the graph-parallel system
  emulations surface their logical kernels (supersteps, advance/filter
  iterations, vector passes);
* instant markers for :meth:`malloc` / :meth:`free` with the
  allocation size and the post-operation ``in_use`` figure;

and accumulates the flat device counters ``device.kernel_launches``,
``device.cycles``, ``device.mem_transactions``, ``device.barriers``
and ``device.atomic_conflicts``.

Observers
---------

Three more observers hang off the attributes ``sanitizer``,
``profiler`` and ``memtracer`` (``None`` = off).  The drivers'
``sanitize`` / ``profile`` / ``memtrace`` switches attach them through
:class:`~repro.core.driver.HostRun`, which also shares one sanitizer
across multi-GPU workers and names one memory tracker per worker.

* A :class:`~repro.sanitize.racecheck.KernelSanitizer` runs every
  :meth:`launch` under a fresh
  :class:`~repro.sanitize.racecheck.LaunchMonitor` whose shadow access
  logs feed the race/barrier/ballot detectors (``docs/SANITIZER.md``).
* A :class:`~repro.profile.profiler.KernelProfiler` runs every
  :meth:`launch` with ``collect_timings=True`` (the per-block
  :class:`~repro.gpusim.costmodel.BlockTiming` records ride along on
  the returned stats) and folds it into a speed-of-light
  :class:`~repro.profile.profiler.LaunchProfile`; labelled
  :meth:`charge` calls become coarse ``source="charge"`` records, so
  the system emulations are visible to ``--ncu`` too.
* A :class:`~repro.memtrace.tracker.MemoryTracker` records every
  :meth:`malloc` / :meth:`free` lifetime on the simulated timeline,
  turns invalid frees and read-backs of freed arrays into
  ``double-free`` / ``use-after-free`` findings, scopes in-flight
  shared-memory allocations to their launch, and snapshots the exact
  attribution breakdown at every new ``GlobalMemory`` peak; with a
  tracer as well, each transition emits a ``memory.in_use`` sample.

Every observer is observability-only: simulated time, counters and the
memory peak are byte-identical with any of them on or off (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.errors import InvalidFreeError, SimulatedTimeLimitExceeded
from repro.gpusim.costmodel import CostModel
from repro.gpusim.engine import ExecutionEngine, get_engine
from repro.gpusim.memory import DeviceArray, GlobalMemory
from repro.gpusim.scheduler import KernelFn, KernelStats
from repro.gpusim.spec import DeviceSpec
from repro.obs.tracer import active_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memtrace.tracker import MemoryTracker
    from repro.obs.tracer import Tracer
    from repro.profile.profiler import KernelProfiler
    from repro.sanitize.racecheck import KernelSanitizer

__all__ = ["Device"]


class Device:
    """A simulated GPU with memory, a cost model, and a launch queue."""

    def __init__(
        self,
        spec: DeviceSpec | None = None,
        cost_model: CostModel | None = None,
        time_budget_ms: float | None = None,
        preempt_prob: float = 0.0,
        seed: int = 0,
        tracer: "Tracer | None" = None,
        engine: "str | ExecutionEngine | None" = None,
        name: str = "device",
    ) -> None:
        #: the device's trace-track name.  Single-device hosts keep the
        #: default ``"device"``; multi-GPU peeling names one worker per
        #: device (``gpu0``, ``gpu1``, ...) so every span the worker
        #: emits is self-describing — consumers (Perfetto, the critical
        #: path DAG builder) separate workers by track, never by parsing
        #: span names.
        self.name = name
        self.spec = spec or DeviceSpec()
        self.spec.validate()
        self.cost_model = cost_model or CostModel()
        #: the execution engine every :meth:`launch` runs through —
        #: a name from :func:`repro.gpusim.engine.available_engines`,
        #: an :class:`~repro.gpusim.engine.ExecutionEngine` instance, or
        #: ``None`` for the default.  Engines are required to produce
        #: byte-identical results (see ``docs/SIMULATOR.md``), so the
        #: choice only changes host wall-clock time.
        self.engine = get_engine(engine)
        self.memory = GlobalMemory(
            self.spec.global_memory_bytes,
            base_usage=self.spec.context_overhead_bytes,
        )
        self.time_budget_ms = time_budget_ms
        self.preempt_prob = preempt_prob
        self._seed = seed
        self.kernel_launches = 0
        self.total_cycles = 0.0
        self.launch_log: list[KernelStats] = []
        #: the counting window :meth:`counters` reports: launches and
        #: log length at the last :meth:`mark`, and the cycles since
        self._mark = (0, 0)
        self._window_cycles = 0.0
        #: the attached tracer, or ``None`` (tracing off); an explicit
        #: argument wins over the process-wide active tracer
        self.tracer = tracer if tracer is not None else active_tracer()
        #: the attached observers, or ``None`` (off); see "Observers"
        self.sanitizer: "KernelSanitizer | None" = None
        self.profiler: "KernelProfiler | None" = None
        self.memtracer: "MemoryTracker | None" = None

    # -- memory -------------------------------------------------------------

    def malloc(
        self, name: str, size: int | np.ndarray, fill: int = 0
    ) -> DeviceArray:
        """``cudaMalloc`` (optionally with a host-to-device copy)."""
        array = self.memory.malloc(
            name, size, fill=fill, id_bytes=self.spec.id_bytes
        )
        mt = self.memtracer
        if mt is not None:
            mt.on_malloc(name, array.device_bytes, self.elapsed_ms)
        tr = self.tracer
        if tr is not None:
            tr.instant(
                f"malloc {name}", self.elapsed_ms, cat="memory",
                track=self.name,
                args={"bytes": array.device_bytes,
                      "in_use": self.memory.in_use},
            )
            if mt is not None:
                tr.sample(
                    "memory.in_use", self.elapsed_ms, self.memory.in_use
                )
        return array

    def free(self, name: str) -> None:
        """``cudaFree``.

        Raises:
            InvalidFreeError: unknown name or double free; with a
                memory tracker attached the hazard is also recorded as
                a ``double-free`` finding before the raise.
        """
        mt = self.memtracer
        try:
            self.memory.free(name)
        except InvalidFreeError as exc:
            if mt is not None:
                mt.on_invalid_free(name, self.elapsed_ms, exc.kind)
            raise
        if mt is not None:
            mt.on_free(name, self.elapsed_ms)
        tr = self.tracer
        if tr is not None:
            tr.instant(
                f"free {name}", self.elapsed_ms, cat="memory",
                track=self.name, args={"in_use": self.memory.in_use},
            )
            if mt is not None:
                tr.sample(
                    "memory.in_use", self.elapsed_ms, self.memory.in_use
                )

    def free_all(self) -> None:
        """``cudaFree`` every live allocation (end-of-program cleanup).

        Goes through :meth:`free` so the tracer and memory tracker see
        each release individually.
        """
        for name in self.memory.live():
            self.free(name)

    def read_back(self, array: DeviceArray) -> np.ndarray:
        """``cudaMemcpyDeviceToHost``: a defensive copy of the data.

        Reading back a freed array still returns the stale bytes (as
        the real UB would) but is diagnosed as a ``use-after-free``
        finding when a memory tracker is attached.
        """
        mt = self.memtracer
        if mt is not None and array.freed:
            mt.on_use_after_free(array.name, self.elapsed_ms)
        return array.data.copy()

    # -- launches -----------------------------------------------------------

    def launch(
        self,
        kernel_fn: KernelFn,
        args: Sequence[Any] = (),
        kwargs: dict | None = None,
        grid_dim: int | None = None,
        block_dim: int | None = None,
    ) -> KernelStats:
        """Launch ``kernel_fn<<<grid_dim, block_dim>>>(*args)``.

        Accumulates the kernel's cycles and the host-side launch
        overhead into the device clock, then enforces the time budget.
        """
        tr = self.tracer
        launch_ts = self.elapsed_ms if tr is not None else 0.0
        grid = grid_dim if grid_dim is not None else self.spec.default_grid_dim
        block = (
            block_dim if block_dim is not None else self.spec.default_block_dim
        )
        san = self.sanitizer
        monitor = (
            san.begin_launch(getattr(kernel_fn, "__name__", "kernel"))
            if san is not None
            else None
        )
        prof = self.profiler
        mt = self.memtracer
        if mt is not None:
            mt.set_scope(getattr(kernel_fn, "__name__", "kernel"))
        stats = self.engine.run(
            kernel_fn,
            self.spec,
            self.cost_model,
            grid,
            block,
            args=args,
            kwargs=kwargs,
            preempt_prob=self.preempt_prob,
            seed=self._seed + self.kernel_launches,
            monitor=monitor,
            collect_timings=prof is not None,
            memtracker=mt,
        )
        if mt is not None:
            mt.set_scope(None)
        if san is not None:
            san.end_launch(monitor)
        if prof is not None:
            prof.record_launch(
                getattr(kernel_fn, "__name__", "kernel"), stats,
                grid, block, self.spec, self.cost_model,
            )
        self.kernel_launches += 1
        self.total_cycles += stats.cycles
        self._window_cycles += stats.cycles
        self.launch_log.append(stats)
        if tr is not None:
            tr.span(
                getattr(kernel_fn, "__name__", "kernel"),
                launch_ts,
                self.elapsed_ms - launch_ts,
                cat="kernel",
                track=self.name,
                args={
                    "device": self.name,
                    "grid_dim": grid, "block_dim": block,
                    "engine": self.engine.name,
                    "cycles": stats.cycles, "issued": stats.issued,
                    "mem_transactions": stats.mem_transactions,
                    "barriers": stats.barriers,
                    "atomic_conflicts": stats.atomic_conflicts,
                    "buffer_peak": stats.buffer_peak,
                },
            )
            tr.add("device.kernel_launches", 1)
            tr.add("device.cycles", stats.cycles)
            tr.add("device.mem_transactions", stats.mem_transactions)
            tr.add("device.barriers", stats.barriers)
            tr.add("device.atomic_conflicts", stats.atomic_conflicts)
        self._check_budget()
        return stats

    def charge(
        self,
        cycles: float = 0.0,
        launches: int = 0,
        label: str | None = None,
        args: dict | None = None,
    ) -> None:
        """Account for device work executed outside the SIMT scheduler.

        The graph-parallel system emulations compute their work (edges
        touched, vertices filtered, supersteps) at the logical level and
        convert it to cycles with their own tuning constants; this books
        that time against the device clock so the same time budget and
        metrics apply to every GPU program.

        ``label`` names the logical kernel for the tracer: when tracing
        is on, a labelled charge becomes a ``"device"``-track span
        covering the charged interval, with ``args`` attached.  With a
        profiler attached, a labelled charge is additionally recorded
        as a coarse ``source="charge"`` profile entry — cycles only, no
        per-block attribution.
        """
        tr = self.tracer
        charge_ts = self.elapsed_ms if tr is not None else 0.0
        self.total_cycles += cycles
        self._window_cycles += cycles
        self.kernel_launches += launches
        prof = self.profiler
        if prof is not None and label is not None:
            prof.record_charge(
                label, cycles, launches=launches, args=args,
                spec=self.spec, cost=self.cost_model,
            )
        if tr is not None:
            if label is not None:
                tr.span(
                    label, charge_ts, self.elapsed_ms - charge_ts,
                    cat="system", track=self.name, args=args,
                )
            tr.add("device.kernel_launches", launches)
            tr.add("device.cycles", cycles)
        self._check_budget()

    # -- metrics --------------------------------------------------------------

    @property
    def elapsed_ms(self) -> float:
        """Total simulated milliseconds: kernel time + launch overhead."""
        kernel_ms = self.cost_model.cycles_to_ms(self.total_cycles)
        host_ms = self.kernel_launches * self.cost_model.kernel_launch_us / 1000.0
        return kernel_ms + host_ms

    @property
    def peak_memory_bytes(self) -> int:
        """High-water mark of device global memory."""
        return self.memory.peak

    def mark(self) -> None:
        """Open a new counting window for :meth:`counters`.

        A run on a shared device calls this first, so the prior work
        stays out of the run's counters.  The window's cycles are
        summed from zero, in launch order, so they equal a fresh
        device's bit for bit (subtracting a snapshot would not).
        """
        self._mark = (self.kernel_launches, len(self.launch_log))
        self._window_cycles = 0.0

    def counters(self) -> dict[str, float]:
        """Flat device-level metrics over every launch since the last
        :meth:`mark` (for a fresh device, every launch so far).

        Computed on demand from the launch log (so it is available with
        tracing off too); keys match the tracer's ``device.*`` counters,
        plus the per-launch serving attribution ``engine.served.<tier>``
        (how many launches each engine tier actually executed — a
        vectorized engine's structural fallbacks show up under
        ``engine.served.reference``).
        """
        launches, start = self._mark
        log = self.launch_log[start:]
        counters = {
            "device.kernel_launches": float(self.kernel_launches - launches),
            "device.cycles": float(self._window_cycles),
            "device.mem_transactions": float(
                sum(s.mem_transactions for s in log)
            ),
            "device.barriers": float(sum(s.barriers for s in log)),
            "device.atomic_conflicts": float(
                sum(s.atomic_conflicts for s in log)
            ),
        }
        for stats in log:
            key = f"engine.served.{stats.served_by}"
            counters[key] = counters.get(key, 0.0) + 1.0
        return counters

    def _check_budget(self) -> None:
        if self.time_budget_ms is not None and self.elapsed_ms > self.time_budget_ms:
            raise SimulatedTimeLimitExceeded(self.elapsed_ms, self.time_budget_ms)
