"""The host skeleton every simulator driver runs through.

The paper's host program (Algorithm 1) is one loop: launch, read back,
test for convergence.  ``gpu_peel``, ``gpu_bfs`` and ``multi_gpu_peel``
supply only their program — allocations, the launches of a round, the
convergence test, counters and stats — and so do the four GPU system
emulations of :mod:`repro.systems`, which book logical-kernel charges
instead of launching SIMT kernels.  A :class:`HostRun`, built once
per run from the driver's observer switches, owns the rest: the
switches' implications, attaching the sanitizer, profiler and memory
tracker to the run's device(s), the launch checkers and critical-path
collector of the program's contract, the per-round and per-launch
hooks, and the assembly of the result — the empty-graph return
included.  Every observer is observability-only: simulated time,
counters, peaks and core numbers are byte-identical with any mix on.
"""

from __future__ import annotations

import inspect
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.variants import VariantConfig
from repro.errors import ReproError
from repro.gpusim.device import Device
from repro.result import DecompositionResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.multigpu import MultiGpuOptions
    from repro.gpusim.engine import ExecutionEngine
    from repro.gpusim.scheduler import KernelStats
    from repro.graph.csr import CSRGraph
    from repro.memtrace.report import MemtraceReport
    from repro.obs.critpath import CritPathCollector, CritPathReport
    from repro.obs.tracer import SpanHandle, Tracer
    from repro.sanitize.racecheck import KernelSanitizer
    from repro.sanitize.report import SanitizerReport
    from repro.staticheck.dataflow import DataflowChecker
    from repro.staticheck.differential import DifferentialChecker

__all__ = ["HostRun"]

#: ``Device`` keyword -> default, to spot keywords a pre-built device
#: would ignore
_DEFAULTS = {
    k: p.default for k, p in inspect.signature(Device).parameters.items()
}


class HostRun:
    """Observer wiring and result assembly of one simulated run.

    ``cfg`` is the launched variant (``None`` for a system emulation,
    which launches none: no ``variant`` label, no launch checkers),
    ``algorithm`` the result's name and ``program`` the contract
    (``"kcore"`` / ``"bfs"``) the static checkers certify against;
    ``tracer``, ``engine`` and the observer switches mean what they
    mean for :func:`~repro.core.host.gpu_peel`.
    """

    def __init__(
        self,
        cfg: VariantConfig | None,
        algorithm: str,
        *,
        program: str = "kcore",
        tracer: "Tracer | None" = None,
        engine: "str | ExecutionEngine | None" = None,
        sanitize: bool = False,
        staticheck: bool = False,
        dataflow: bool = False,
        profile: bool = False,
        memtrace: bool = False,
        report: bool = False,
        critpath: bool = False,
    ) -> None:
        if staticheck and cfg is not None and cfg.ring_buffer:
            raise ReproError(
                "staticheck is not available for ring-buffer variants: a "
                "wrapping buffer has no static slot bound (see "
                "docs/STATIC_ANALYSIS.md)"
            )
        self.cfg = cfg
        self.variant = cfg.name if cfg is not None else None
        self.algorithm = algorithm
        self.program = program
        self.tracer = tracer
        self.engine = engine
        self.sanitize = sanitize
        self.staticheck = staticheck
        self.dataflow = dataflow
        # a run report always covers the kernel profile and the memory
        # peak; the critical-path analyzer needs per-block timings,
        # which only ride along with a profiler attached
        self.profile = profile or report or critpath
        self.memtrace = memtrace or report
        self.report = report
        self.critpath = critpath
        #: the run's devices: one, or the multi-GPU workers in order
        self.devices: list[Device] = []
        #: the device of a single-device run; ``None`` for multi-GPU
        self.lead: Device | None = None
        self.checkers: "list[DifferentialChecker | DataflowChecker]" = []
        self.cpath: "CritPathCollector | None" = None
        #: launch environment of a critical-path run on a non-empty graph
        self.env: dict[str, float] | None = None
        #: per sub-round coordinator cost terms of a multi-GPU
        #: critical-path run (see ``build_multi_critpath``)
        self.subrounds: list[dict[str, Any]] = []
        self._sanitizer: "KernelSanitizer | None" = None
        #: per device, the arrays resident before the run (a shared
        #: device's history, which the run must not free)
        self._resident: list[frozenset[str]] = []

    def device(self, device: Device | None = None, **config: Any) -> Device:
        """The run's one device: a caller's ``device`` (which keeps its
        engine and any observers it carries) or a new one built from
        the :class:`~repro.gpusim.device.Device` keywords ``config``.

        Raises:
            ReproError: ``device`` is given with a ``config`` keyword
                other than its default (a ``spec``, ``cost_model`` or
                ``time_budget_ms``, ...), which the device would ignore.
        """
        if device is None:
            device = Device(tracer=self.tracer, engine=self.engine, **config)
        else:
            ignored = [k for k, v in config.items() if v != _DEFAULTS[k]]
            if ignored:
                raise ReproError(
                    f"{', '.join(ignored)} cannot apply to a pre-built "
                    "device: configure the Device itself, or pass none"
                )
            if self.tracer is not None:
                device.tracer = self.tracer
        self.lead = self._attach(device, "gpu0")
        return device

    def workers(self, count: int, **config: Any) -> list[Device]:
        """``count`` multi-GPU worker devices ``gpu0``, ``gpu1``, ...,
        built from the :class:`~repro.gpusim.device.Device` keywords
        ``config``."""
        return [
            self._attach(
                Device(engine=self.engine, name=f"gpu{d}", **config),
                f"gpu{d}",
            )
            for d in range(count)
        ]

    def _attach(self, device: Device, worker: str) -> Device:
        if self.sanitize and device.sanitizer is None:
            if self._sanitizer is None:
                from repro.sanitize.racecheck import KernelSanitizer

                self._sanitizer = KernelSanitizer()
            # one sanitizer per run: multi-GPU findings fold together
            device.sanitizer = self._sanitizer
        if self.profile and device.profiler is None:
            from repro.profile.profiler import KernelProfiler

            device.profiler = KernelProfiler()
        if self.memtrace and device.memtracer is None:
            from repro.memtrace.tracker import MemoryTracker

            # anything already resident on a shared device is opaque
            # history, folded into the base
            tracker = MemoryTracker(worker=worker)
            tracker.attach(device.memory.in_use, ts_ms=device.elapsed_ms)
            device.memtracer = tracker
        labels = {"algorithm": self.algorithm}
        if self.variant is not None:
            labels["variant"] = self.variant
        if device.profiler is not None:
            device.profiler.annotate(**labels)
        if device.memtracer is not None:
            device.memtracer.annotate(**labels)
        # a shared device may carry a prior run's arrays and launches:
        # this run frees only its own arrays and counts only its own work
        device.mark()
        self._resident.append(frozenset(device.memory.live()))
        self.devices.append(device)
        return device

    def arm(
        self,
        graph: "CSRGraph",
        buffer_capacity: int | None = None,
        preempt_prob: float = 0.0,
    ) -> None:
        """Build the launch checkers and critical-path collector for
        ``graph`` on the run's devices."""
        assert self.cfg is not None, "only a launched variant is armed"
        first = self.devices[0]
        spec = first.spec
        shape = (graph.num_vertices, len(graph.neighbors), graph.max_degree)
        if self.staticheck:
            from repro.staticheck.certificate import certify_variant
            from repro.staticheck.differential import DifferentialChecker

            self.checkers.append(DifferentialChecker(
                self.cfg, spec, *shape,
                buffer_capacity=buffer_capacity,
                certificate=certify_variant(self.cfg, program=self.program),
            ))
        if self.dataflow:
            from repro.staticheck.dataflow import DataflowChecker

            self.checkers.append(DataflowChecker(
                self.cfg,
                engine=first.engine.name,
                monitored=first.sanitizer is not None,
                preempt_prob=preempt_prob,
                program=self.program,
            ))
        # an empty graph launches no kernels: nothing to analyze
        if self.critpath and graph.num_vertices:
            from repro.staticheck.bounds import launch_env

            self.env = launch_env(
                *shape, spec, self.cfg, buffer_capacity=buffer_capacity
            )
            lead = self.lead
            if lead is not None:
                from repro.obs.critpath import CritPathCollector

                self.cpath = CritPathCollector(
                    spec=spec,
                    cost=lead.cost_model,
                    algorithm=self.algorithm,
                    variant=self.cfg.name,
                    track=lead.name,
                    cfg=self.cfg,
                    env=self.env,
                    # a shared device may carry prior work; the analyzer
                    # folds its cycles from the device's starting point
                    base_cycles=lead.total_cycles,
                    base_launches=lead.kernel_launches,
                )

    def begin_round(
        self, k: int, label: str | None = None
    ) -> "SpanHandle | None":
        """Stamp round ``k`` on every profiler and memory tracker; with
        ``label`` and a tracer, open the round's span."""
        for device in self.devices:
            if device.profiler is not None:
                device.profiler.set_round(k)
            if device.memtracer is not None:
                device.memtracer.set_round(k)
        first = self.devices[0]
        tr = first.tracer
        if label is None or tr is None:
            return None
        return tr.begin(label, first.elapsed_ms, cat="round")

    def end_round(self, span: "SpanHandle | None", **args: Any) -> None:
        """Close a round span with ``args`` and sample its ``frontier``."""
        first = self.devices[0]
        tr = first.tracer
        if span is None or tr is None:
            return
        tr.end(span, first.elapsed_ms, args=args)
        tr.sample("frontier", first.elapsed_ms, args["frontier"])

    def observe(self, kernel: str, stats: "KernelStats", round_index: int) -> None:
        """Feed one launch to every armed checker and collector."""
        for checker in self.checkers:
            checker.observe(kernel, stats)
        if self.cpath is not None:
            self.cpath.observe_launch(kernel, stats, round_index=round_index)

    def result(
        self,
        core: Any,
        *,
        rounds: int = 0,
        stats: Mapping[str, Any] | None = None,
        counters: Mapping[str, float] | None = None,
        simulated_ms: float | None = None,
        exchange: "MultiGpuOptions | None" = None,
        sanitizer: "SanitizerReport | None" = None,
    ) -> DecompositionResult:
        """Close every observer and assemble the run's result.

        Read ``core`` back first: with a memory tracker attached, every
        array the run allocated is freed here so each lifetime closes
        (arrays resident before the run stay live).  A single-device
        run's ``counters`` gain the device's own ``device.*`` /
        ``engine.served.*`` for this run alone, led by the
        ``engine.<name>`` tag when the run made a SIMT launch.
        Multi-GPU passes its coordinator ``simulated_ms`` (the default
        is the one device's clock) and its ``exchange`` costs; the
        trace and the kernel profile are per device, so its result
        carries neither.  A system emulation passes its static lint
        report as ``sanitizer``, in place of a device sanitizer's.
        """
        devices = self.devices
        lead = self.lead
        for device, resident in zip(devices, self._resident):
            if device.profiler is not None:
                device.profiler.set_round(None)
            mt = device.memtracer
            if mt is not None:
                mt.set_round(None)
                # untraced devices keep their contents for inspection
                for name in device.memory.live():
                    if name not in resident:
                        device.free(name)
                mt.finish(device.elapsed_ms)
        if simulated_ms is None:
            simulated_ms = devices[0].elapsed_ms
        if lead is not None and counters is not None:
            # the engine that ran the run's launches (a tag, not a
            # measurement: values are engine-invariant), then the
            # device's metrics
            run = lead.counters()
            if any(name.startswith("engine.served.") for name in run):
                counters = {**counters, f"engine.{lead.engine.name}": 1.0}
            counters = {**counters, **run}
        trace = lead.tracer if lead is not None else None
        if trace is not None and counters:
            for name, value in counters.items():
                if not name.startswith("device."):  # device.* already live
                    trace.put(name, value)

        static: "SanitizerReport | None" = None
        for checker in self.checkers:
            if static is None:
                static = checker.report
            else:
                static.merge(checker.report)

        memtrace: "MemtraceReport | None" = None
        trackers = [
            mt for mt in (d.memtracer for d in devices) if mt is not None
        ]
        if len(trackers) == len(devices):
            from repro.memtrace.report import MemtraceReport

            memtrace = MemtraceReport.from_trackers(
                trackers, algorithm=self.algorithm, variant=self.variant
            )

        critpath: "CritPathReport | None" = None
        if self.cpath is not None:
            critpath = self.cpath.build(
                elapsed_ms=simulated_ms,
                kernel_launches=devices[0].kernel_launches,
            )
        elif (self.env is not None and exchange is not None
              and self.cfg is not None):
            from repro.obs.critpath import build_multi_critpath

            critpath = build_multi_critpath(
                algorithm=self.algorithm,
                variant=self.cfg.name,
                num_devices=len(devices),
                rounds=self.subrounds,
                elapsed_ms=simulated_ms,
                spec=devices[0].spec,
                cost=devices[0].cost_model,
                transfer_cycles_per_word=exchange.transfer_cycles_per_word,
                reduce_cycles_per_word=exchange.reduce_cycles_per_word,
                worker_names=[d.name for d in devices],
                cfg=self.cfg,
                env=self.env,
            )

        if sanitizer is None and devices[0].sanitizer is not None:
            sanitizer = devices[0].sanitizer.report
        profiler = lead.profiler if lead is not None else None
        result = DecompositionResult(
            core=core,
            algorithm=self.algorithm,
            simulated_ms=simulated_ms,
            peak_memory_bytes=max(d.peak_memory_bytes for d in devices),
            rounds=rounds,
            stats=stats or {},
            counters=counters or {},
            trace=trace,
            sanitizer=sanitizer,
            staticheck=static,
            profile=profiler.report() if profiler is not None else None,
            memtrace=memtrace,
            critpath=critpath,
        )
        if self.report:
            from repro.obs.runreport import RunReport

            result = replace(result, report=RunReport.from_result(result))
        return result
