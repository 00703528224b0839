"""Medusa — Pregel-style vertex-centric GPU system (Zhong & He).

A Medusa program supplies three UDFs (Section V of the paper):
``SendMessage`` (a vertex emits a value along each outgoing edge),
``CombineMessage`` (received messages are reduced per vertex) and
``UpdateVertex`` (the vertex state absorbs the combined value and may
raise a global "more iterations" flag).  Execution is strict BSP: every
superstep materialises a message per *directed edge* — the per-edge
buffers are why Medusa runs out of memory on the paper's large graphs
(Table V) and why it is slow (Table III): it sweeps all ``2m`` edges
every superstep regardless of how small the active set is.

Two programs are provided, exactly as in the paper:

* :class:`MedusaMPM` — h-index refinement; the combiner sorts each
  vertex's inbox, which is why its per-edge constant dwarfs the sum
  combiner's.
* :class:`MedusaPeel` — peeling; a deleted vertex sends 1, the combiner
  sums, and the update subtracts from the degree.  An outer loop over
  rounds ``k`` is added around Medusa's single iteration level.
"""

from __future__ import annotations

import numpy as np

from repro.core.driver import HostRun
from repro.cpu.mpm import mpm_sweep
from repro.errors import ReproError
from repro.graph.csr import CSRGraph
from repro.gpusim.device import Device
from repro.result import DecompositionResult
from repro.systems.base import DEFAULT_TUNING, SystemTuning, lint_emulation

__all__ = ["medusa_decompose", "MedusaEngine", "MedusaMPM", "MedusaPeel"]


class MedusaEngine:
    """The BSP executor: owns device state and runs supersteps."""

    def __init__(
        self, graph: CSRGraph, device: Device, tuning: SystemTuning
    ) -> None:
        self.graph = graph
        self.device = device
        self.tuning = tuning
        n, m2 = graph.num_vertices, graph.neighbors.size
        tracker = device.memtracer
        if tracker is not None:
            tracker.set_scope("medusa.init")
        # graph + per-edge message machinery (the big allocation)
        device.malloc("medusa_offsets", graph.offsets)
        device.malloc("medusa_edges", graph.neighbors)
        device.malloc("medusa_vertex_state", n)
        device.malloc(
            "medusa_edge_state", int(tuning.medusa_edge_state_factor * m2)
        )
        if tracker is not None:
            tracker.set_scope(None)
        self.supersteps = 0

    def superstep(self, edge_cycles: float) -> None:
        """Account one full BSP superstep (all edges + all vertices)."""
        n, m2 = self.graph.num_vertices, self.graph.neighbors.size
        self.device.charge(
            cycles=m2 * edge_cycles + n * self.tuning.medusa_vertex_cycles,
            launches=self.tuning.medusa_superstep_launches,
            label="medusa.superstep",
            args={"superstep": self.supersteps, "edges": int(m2),
                  "vertices": int(n)},
        )
        self.supersteps += 1


class MedusaMPM:
    """The MPM program: SendMessage = own estimate, CombineMessage =
    h-index of the inbox, UpdateVertex = adopt it, flag on change."""

    name = "medusa-mpm"

    def run(self, engine: MedusaEngine) -> np.ndarray:
        graph = engine.graph
        estimates = graph.degrees.astype(np.int64).copy()
        while True:
            # SendMessage + CombineMessage + UpdateVertex in one sweep:
            # the h-index of each inbox is exactly one mpm_sweep.
            engine.superstep(engine.tuning.medusa_edge_hindex_cycles)
            refined = mpm_sweep(estimates, graph.offsets, graph.neighbors)
            if np.array_equal(refined, estimates):  # aggregate flag clear
                return refined
            estimates = refined


class MedusaPeel:
    """The peeling program with an added outer loop over rounds ``k``.

    SendMessage: a vertex deleted this iteration sends 1 to every
    neighbor (others send 0); CombineMessage: sum; UpdateVertex:
    subtract the count from the degree and mark for deletion when it
    drops to ``k``.
    """

    name = "medusa-peel"

    def run(self, engine: MedusaEngine) -> np.ndarray:
        graph = engine.graph
        n = graph.num_vertices
        offsets, neighbors = graph.offsets, graph.neighbors
        deg = graph.degrees.astype(np.int64).copy()
        core = np.zeros(n, dtype=np.int64)
        deleted = np.zeros(n, dtype=bool)
        sources = np.repeat(np.arange(n), np.diff(offsets))
        k = 0
        while not deleted.all():
            while True:
                just_deleted = ~deleted & (deg <= k)
                engine.superstep(engine.tuning.medusa_edge_sum_cycles)
                if not just_deleted.any():
                    break  # aggregate flag clear: this round is done
                core[just_deleted] = k
                deleted[just_deleted] = True
                # message = 1 along every edge out of a deleted vertex
                live_msg = just_deleted[sources] & ~deleted[neighbors]
                counts = np.bincount(neighbors[live_msg], minlength=n)
                deg -= counts
            k += 1
        return core


def medusa_decompose(
    graph: CSRGraph,
    program: str = "peel",
    device: Device | None = None,
    tuning: SystemTuning = DEFAULT_TUNING,
    time_budget_ms: float | None = None,
    sanitize: bool = False,
    memtrace: bool = False,
    profile: bool = False,
) -> DecompositionResult:
    """Run a Medusa program; ``program`` is ``"peel"`` or ``"mpm"``.

    Raises :class:`~repro.errors.DeviceOutOfMemoryError` /
    :class:`~repro.errors.SimulatedTimeLimitExceeded` the way the real
    runs OOM or exceed one hour in Tables III and V, and
    :class:`~repro.errors.ReproError` for any other ``program``.
    ``sanitize``, ``memtrace`` and ``profile`` are described in
    :mod:`repro.systems`.
    """
    if program not in ("peel", "mpm"):
        raise ReproError(
            f"unknown Medusa program {program!r}; expected 'peel' or 'mpm'"
        )
    prog = MedusaMPM() if program == "mpm" else MedusaPeel()
    run = HostRun(None, prog.name, memtrace=memtrace, profile=profile)
    device = run.device(device, time_budget_ms=time_budget_ms)
    engine = MedusaEngine(graph, device, tuning)
    core = prog.run(engine)
    kmax = int(core.max()) if core.size else 0
    counters = {
        "host.rounds": float(kmax + 1),
        "system.supersteps": float(engine.supersteps),
        "system.edges_per_superstep": float(graph.neighbors.size),
    }
    return run.result(
        core,
        rounds=kmax + 1,
        stats={"supersteps": engine.supersteps},
        counters=counters,
        sanitizer=lint_emulation(__name__) if sanitize else None,
    )
