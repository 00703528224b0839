"""The kernel profiler: per-launch speed-of-light attribution.

An Nsight-Compute-style profiler over the simulated GPU.  Attached to a
:class:`~repro.gpusim.device.Device` (a driver's ``profile=True``), it
receives every launch's :class:`~repro.gpusim.scheduler.KernelStats`
*with* the raw per-block :class:`~repro.gpusim.costmodel.BlockTiming`
records and turns them into a :class:`LaunchProfile` — the simulated
analogue of one ``ncu`` speed-of-light section:

* **bound classification** — each block's busy time is
  ``max(compute, memory, latency) + barriers`` (exactly
  :meth:`~repro.gpusim.costmodel.CostModel.block_cycles`); the block is
  attributed to the pipeline that won the max, and the launch is
  classified by which pipeline bounded the most busy cycles;
* **pipeline utilisation** — each roofline term as a percentage of the
  launch's total block-busy cycles (the three percentages do *not* sum
  to 100: pipelines overlap, the max combiner picks the ceiling);
* **achieved occupancy** — mean SM busy time over the busiest SM's,
  i.e. how evenly the round-robin block assignment filled the device
  (``kernel cycles == max SM load``, so low occupancy means idle SMs);
* **divergence efficiency** — active lanes per global-memory
  warp-instruction over the warp width;
* **coalescing efficiency** — the transactions a perfectly coalesced
  layout would have needed over the transactions actually issued;
* **atomic-serialisation share** — cycles spent inside atomic
  serialisation (base + conflict), summed over *every* warp, over busy
  cycles.  Unlike the efficiency ratios this can exceed 1: busy time
  only counts each block's slowest warp, so a launch whose warps all
  serialise on atomics concurrently carries more atomic cycles than
  critical-path cycles — exactly the congestion signal the metric is
  for.

Profiling is observability-only: every input is a tally the simulator
produces anyway, so a profiled run's simulated time is byte-identical
to an unprofiled one (asserted by
``tests/properties/test_profile.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.gpusim.costmodel import BlockTiming, CostModel
from repro.gpusim.spec import DeviceSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.scheduler import KernelStats
    from repro.profile.report import ProfileReport

__all__ = ["PIPELINES", "LaunchProfile", "KernelProfiler"]

#: the three roofline pipelines, in tie-break priority order (a block
#: whose terms tie is attributed to the earliest)
PIPELINES: Tuple[str, ...] = ("compute", "memory", "latency")


@dataclass(frozen=True)
class LaunchProfile:
    """Speed-of-light report of one kernel launch (all cycles simulated).

    ``dominated`` maps each pipeline to the roofline-term cycles of the
    blocks it bounded; together with ``barrier_cycles`` the buckets
    partition ``busy_cycles`` exactly:
    ``sum(dominated.values()) + barrier_cycles == busy_cycles``.
    """

    kernel: str
    #: launch sequence number on the device (0-based)
    index: int
    #: host peel round the launch belongs to, when the host annotated it
    round_index: Optional[int]
    grid_dim: int
    block_dim: int
    #: kernel duration — the busiest SM's drain time
    cycles: float
    #: sum of every block's busy cycles (``CostModel.block_cycles``)
    busy_cycles: float
    #: roofline terms summed over blocks
    compute_cycles: float
    memory_cycles: float
    latency_cycles: float
    barrier_cycles: float
    #: the pipeline that bounded the most busy cycles
    bound: str
    #: pipeline -> roofline-term cycles of the blocks it bounded
    dominated: Dict[str, float]
    #: pipeline -> term / busy_cycles * 100 (plus ``"barrier"``)
    sol_pct: Dict[str, float]
    achieved_occupancy: float
    divergence_efficiency: float
    coalescing_efficiency: float
    atomic_share: float
    #: raw tallies, kept so aggregates recompute efficiencies exactly
    mem_transactions: float = 0.0
    mem_accesses: float = 0.0
    mem_active_lanes: float = 0.0
    mem_ideal_transactions: float = 0.0
    atomic_cycles: float = 0.0
    #: ``"simt"`` for real scheduler launches, ``"charge"`` for coarse
    #: records of labelled :meth:`~repro.gpusim.device.Device.charge`
    #: calls (the system emulations' logical kernels, which have no
    #: per-block timings to attribute)
    source: str = "simt"

    def to_json(self) -> Dict[str, Any]:
        """One launch entry of the ``repro.profile/v1`` schema."""
        return {
            "kernel": self.kernel,
            "source": self.source,
            "index": self.index,
            "round": self.round_index,
            "grid_dim": self.grid_dim,
            "block_dim": self.block_dim,
            "cycles": self.cycles,
            "busy_cycles": self.busy_cycles,
            "terms": {
                "compute": self.compute_cycles,
                "memory": self.memory_cycles,
                "latency": self.latency_cycles,
                "barrier": self.barrier_cycles,
            },
            "bound": self.bound,
            "dominated": dict(self.dominated),
            "sol_pct": dict(self.sol_pct),
            "achieved_occupancy": self.achieved_occupancy,
            "divergence_efficiency": self.divergence_efficiency,
            "coalescing_efficiency": self.coalescing_efficiency,
            "atomic_share": self.atomic_share,
        }


@dataclass
class KernelProfiler:
    """Collects one :class:`LaunchProfile` per kernel launch.

    A device with a profiler attached passes ``collect_timings=True``
    to the scheduler and calls :meth:`record_launch` after every
    launch.  The host peel loop annotates rounds via :meth:`set_round`
    and run-level labels (variant, dataset) via :meth:`annotate`; both
    are optional — a bare device still profiles, just without the
    round/variant grouping.
    """

    launches: List[LaunchProfile] = field(default_factory=list)
    labels: Dict[str, str] = field(default_factory=dict)
    _round: Optional[int] = None
    _spec: Optional[DeviceSpec] = None
    _cost: Optional[CostModel] = None

    # -- host annotations ----------------------------------------------------

    def set_round(self, k: Optional[int]) -> None:
        """Stamp subsequent launches with peel round ``k`` (None clears)."""
        self._round = k

    def annotate(self, **labels: str) -> None:
        """Attach run-level labels (``variant=...``, ``dataset=...``)."""
        self.labels.update(labels)

    # -- recording -----------------------------------------------------------

    def record_launch(
        self,
        name: str,
        stats: "KernelStats",
        grid_dim: int,
        block_dim: int,
        spec: DeviceSpec,
        cost: CostModel,
    ) -> LaunchProfile:
        """Fold one launch's stats into a :class:`LaunchProfile`."""
        timings = stats.block_timings
        if timings is None:
            raise ValueError(
                "profiling needs per-block timings: run the launch with "
                "collect_timings=True (a Device with a profiler "
                "attached does)"
            )
        self._spec, self._cost = spec, cost
        profile = self._profile_launch(
            name, stats, timings, grid_dim, block_dim, spec, cost
        )
        self.launches.append(profile)
        return profile

    def record_charge(
        self,
        label: str,
        cycles: float,
        launches: int = 0,
        args: Optional[Dict[str, Any]] = None,
        spec: Optional[DeviceSpec] = None,
        cost: Optional[CostModel] = None,
    ) -> LaunchProfile:
        """Fold one labelled :meth:`Device.charge` into a coarse record.

        The system emulations book logical-kernel time without SIMT
        launches, so there are no per-block timings to attribute: the
        record carries the charged cycles under ``source="charge"``
        with every roofline term zero (which satisfies the
        ``repro.profile/v1`` partition invariants trivially — zero busy
        cycles partition into zero buckets).  It still participates in
        per-kernel/per-round cycle aggregation, so ``--ncu`` shows
        where a Gunrock or Medusa run spends its time.
        """
        if spec is not None:
            self._spec = spec
        if cost is not None:
            self._cost = cost
        profile = LaunchProfile(
            kernel=label,
            index=len(self.launches),
            round_index=self._round,
            grid_dim=0,
            block_dim=0,
            cycles=float(cycles),
            busy_cycles=0.0,
            compute_cycles=0.0,
            memory_cycles=0.0,
            latency_cycles=0.0,
            barrier_cycles=0.0,
            bound=PIPELINES[0],
            dominated={name: 0.0 for name in PIPELINES},
            sol_pct={
                "compute": 0.0, "memory": 0.0,
                "latency": 0.0, "barrier": 0.0,
            },
            achieved_occupancy=0.0,
            divergence_efficiency=1.0,
            coalescing_efficiency=1.0,
            atomic_share=0.0,
            source="charge",
        )
        self.launches.append(profile)
        return profile

    def _profile_launch(
        self,
        name: str,
        stats: "KernelStats",
        timings: Tuple[BlockTiming, ...],
        grid_dim: int,
        block_dim: int,
        spec: DeviceSpec,
        cost: CostModel,
    ) -> LaunchProfile:
        compute = memory = latency = barrier = busy = 0.0
        dominated = {name_: 0.0 for name_ in PIPELINES}
        sm_load = [0.0] * max(1, spec.num_sms)
        for i, timing in enumerate(timings):
            c, m, lat = cost.pipeline_terms(timing)
            bar = timing.barriers * cost.barrier_cycles
            block_busy = cost.block_cycles(timing)
            compute += c
            memory += m
            latency += lat
            barrier += bar
            terms = {"compute": c, "memory": m, "latency": lat}
            busy += block_busy
            winner = max(PIPELINES, key=lambda p: terms[p])
            dominated[winner] += terms[winner]
            sm_load[i % len(sm_load)] += block_busy
        bound = max(PIPELINES, key=lambda p: dominated[p])
        peak_sm = max(sm_load)
        occupancy = (
            sum(sm_load) / (peak_sm * len(sm_load)) if peak_sm > 0 else 0.0
        )
        sol_pct = {
            "compute": 100.0 * compute / busy if busy else 0.0,
            "memory": 100.0 * memory / busy if busy else 0.0,
            "latency": 100.0 * latency / busy if busy else 0.0,
            "barrier": 100.0 * barrier / busy if busy else 0.0,
        }
        divergence = (
            stats.mem_active_lanes / (stats.mem_accesses * spec.warp_size)
            if stats.mem_accesses
            else 1.0
        )
        coalescing = (
            stats.mem_ideal_transactions / stats.mem_transactions
            if stats.mem_transactions
            else 1.0
        )
        return LaunchProfile(
            kernel=name,
            index=len(self.launches),
            round_index=self._round,
            grid_dim=grid_dim,
            block_dim=block_dim,
            cycles=stats.cycles,
            busy_cycles=busy,
            compute_cycles=compute,
            memory_cycles=memory,
            latency_cycles=latency,
            barrier_cycles=barrier,
            bound=bound,
            dominated=dominated,
            sol_pct=sol_pct,
            achieved_occupancy=occupancy,
            divergence_efficiency=divergence,
            coalescing_efficiency=coalescing,
            atomic_share=stats.atomic_cycles / busy if busy else 0.0,
            mem_transactions=stats.mem_transactions,
            mem_accesses=stats.mem_accesses,
            mem_active_lanes=stats.mem_active_lanes,
            mem_ideal_transactions=stats.mem_ideal_transactions,
            atomic_cycles=stats.atomic_cycles,
        )

    # -- report --------------------------------------------------------------

    def report(self, algorithm: Optional[str] = None) -> "ProfileReport":
        """Assemble the collected launches into a
        :class:`~repro.profile.report.ProfileReport`."""
        from repro.profile.report import ProfileReport

        device: Dict[str, Any] = {}
        if self._spec is not None:
            device = {
                "name": self._spec.name,
                "num_sms": self._spec.num_sms,
                "warp_size": self._spec.warp_size,
            }
        if self._cost is not None:
            device["cost_model"] = {
                "issue_width": self._cost.issue_width,
                "mem_transaction_cycles": self._cost.mem_transaction_cycles,
                "global_load_latency": self._cost.global_load_latency,
                "barrier_cycles": self._cost.barrier_cycles,
            }
        return ProfileReport(
            algorithm=algorithm or self.labels.get("algorithm"),
            variant=self.labels.get("variant"),
            dataset=self.labels.get("dataset"),
            device=device,
            launches=tuple(self.launches),
        )
