"""Gunrock — data-centric frontier operations on the GPU (Wang et al.).

Gunrock programs are built from operations on a *frontier*: ``filter``
selects the vertices satisfying a predicate, ``advance`` expands a
frontier along its incident edges.  The bundled k-core app (which the
paper uses directly) runs, for each round ``k``:

1. ``filter`` over all still-alive vertices for ``degree == k``;
2. repeat: ``advance`` the frontier (decrementing neighbor degrees)
   and ``filter`` the output down to the vertices that just reached
   degree ``k`` — until the frontier empties.

Compared with Medusa this touches only frontier-incident edges, but it
re-filters the full vertex set every inner iteration and keeps
edge-sized frontier queues on the device — the bookkeeping that makes
it slower than GSWITCH and hungrier than the tailor-made kernel
(Tables III and V).
"""

from __future__ import annotations

import numpy as np

from repro.core.driver import HostRun
from repro.graph.csr import CSRGraph
from repro.gpusim.device import Device
from repro.result import DecompositionResult
from repro.systems.base import DEFAULT_TUNING, SystemTuning, lint_emulation

__all__ = ["gunrock_decompose"]


def gunrock_decompose(
    graph: CSRGraph,
    device: Device | None = None,
    tuning: SystemTuning = DEFAULT_TUNING,
    time_budget_ms: float | None = None,
    sanitize: bool = False,
    memtrace: bool = False,
    profile: bool = False,
) -> DecompositionResult:
    """Run Gunrock's k-core app on the simulated device.

    ``sanitize``, ``memtrace`` and ``profile`` are described in
    :mod:`repro.systems`.
    """
    run = HostRun(None, "gunrock", memtrace=memtrace, profile=profile)
    device = run.device(device, time_budget_ms=time_budget_ms)
    tracker = device.memtracer
    n, m2 = graph.num_vertices, graph.neighbors.size
    if tracker is not None:
        tracker.set_scope("gunrock.init")
    device.malloc("gunrock_offsets", graph.offsets)
    device.malloc("gunrock_edges", graph.neighbors)
    device.malloc("gunrock_degrees", n)
    device.malloc(
        "gunrock_frontiers", int(tuning.gunrock_frontier_factor * m2) + 2 * n
    )
    if tracker is not None:
        tracker.set_scope(None)

    offsets, neighbors = graph.offsets, graph.neighbors
    deg = graph.degrees.astype(np.int64).copy()
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    remaining = n
    iterations = 0
    frontier_peak = 0
    tr = device.tracer
    k = 0
    while remaining > 0:
        # filter over the full vertex set for the initial frontier
        device.charge(
            cycles=n * tuning.gunrock_filter_vertex_cycles,
            launches=tuning.gunrock_iteration_launches,
            label="gunrock.filter", args={"k": k},
        )
        frontier = np.flatnonzero(alive & (deg <= k))
        iterations += 1
        while frontier.size:
            if frontier.size > frontier_peak:
                frontier_peak = int(frontier.size)
            if tr is not None:
                tr.sample("frontier", device.elapsed_ms, frontier.size)
            core[frontier] = k
            alive[frontier] = False
            remaining -= frontier.size
            lengths = offsets[frontier + 1] - offsets[frontier]
            total = int(lengths.sum())
            # advance: expand frontier edges; filter: full vertex sweep
            device.charge(
                cycles=total * tuning.gunrock_advance_edge_cycles
                + n * tuning.gunrock_filter_vertex_cycles,
                launches=tuning.gunrock_iteration_launches,
                label="gunrock.advance+filter",
                args={"k": k, "frontier": int(frontier.size),
                      "edges": total},
            )
            iterations += 1
            if total == 0:
                frontier = np.empty(0, dtype=np.int64)
                continue
            starts = offsets[frontier]
            local = np.arange(total) - np.repeat(
                np.cumsum(lengths) - lengths, lengths
            )
            touched = neighbors[np.repeat(starts, lengths) + local]
            unique, counts = np.unique(touched, return_counts=True)
            live = alive[unique]
            affected = unique[live]
            deg[affected] -= counts[live]
            frontier = affected[deg[affected] <= k]
        k += 1

    counters = {
        "host.rounds": float(k),
        "system.iterations": float(iterations),
        "frontier.peak": float(frontier_peak),
        "frontier.total": float(n),
    }
    return run.result(
        core, rounds=k, stats={"iterations": iterations}, counters=counters,
        sanitizer=lint_emulation(__name__) if sanitize else None,
    )
