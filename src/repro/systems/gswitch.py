"""GSWITCH — pattern-based algorithmic autotuning (Meng et al.).

GSWITCH exposes ``filter`` / ``comp`` / ``emit`` UDFs and, per
iteration, *autotunes* the kernel configuration (push vs. pull
traversal, compact vs. bitmap frontier) from features of the previous
iteration — which is why it is the fastest system in Table III, while
still paying generic-framework overheads against the tailor-made
kernel.

Two quirks from the paper's Section V are preserved:

* GSWITCH has no easy way to write the *outer* loop over rounds, so the
  program simply runs ``k_max + 1`` rounds with the graph's core number
  obtained beforehand ("n is hardcoded as the core number of each input
  graph") — here computed with the fast native path, charged to the host
  not the device, exactly like the authors' hardcoding;
* each iteration pays a small feature-sampling cost for the autotuner.
"""

from __future__ import annotations

import numpy as np

from repro.core.fastpath import peel_fast
from repro.core.driver import HostRun
from repro.graph.csr import CSRGraph
from repro.gpusim.device import Device
from repro.result import DecompositionResult
from repro.systems.base import DEFAULT_TUNING, SystemTuning, lint_emulation

__all__ = ["gswitch_decompose"]


def gswitch_decompose(
    graph: CSRGraph,
    device: Device | None = None,
    tuning: SystemTuning = DEFAULT_TUNING,
    time_budget_ms: float | None = None,
    sanitize: bool = False,
    memtrace: bool = False,
    profile: bool = False,
) -> DecompositionResult:
    """Run the GSWITCH k-core program on the simulated device.

    ``sanitize``, ``memtrace`` and ``profile`` are described in
    :mod:`repro.systems`.
    """
    run = HostRun(None, "gswitch", memtrace=memtrace, profile=profile)
    device = run.device(device, time_budget_ms=time_budget_ms)
    tracker = device.memtracer
    n, m2 = graph.num_vertices, graph.neighbors.size
    if tracker is not None:
        tracker.set_scope("gswitch.init")
    device.malloc("gswitch_offsets", graph.offsets)
    device.malloc("gswitch_edges", graph.neighbors)
    device.malloc("gswitch_degrees", n)
    device.malloc(
        "gswitch_frontiers", int(tuning.gswitch_frontier_factor * m2) + 2 * n
    )
    if tracker is not None:
        tracker.set_scope(None)

    offsets, neighbors = graph.offsets, graph.neighbors
    deg = graph.degrees.astype(np.int64).copy()
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    # the hardcoded outer-round count (host-side preprocessing)
    kmax = int(peel_fast(graph).max()) if n else 0
    iterations = 0
    pushes = 0
    frontier_peak = 0
    tr = device.tracer
    active = np.arange(n)  # compacted active set, maintained per round
    for k in range(kmax + 1):
        active = active[alive[active]]
        device.charge(
            cycles=active.size * tuning.gswitch_filter_vertex_cycles
            + tuning.gswitch_tuning_cycles,
            launches=tuning.gswitch_iteration_launches,
            label="gswitch.filter",
            args={"k": k, "active": int(active.size)},
        )
        frontier = active[deg[active] <= k]
        iterations += 1
        while frontier.size:
            if frontier.size > frontier_peak:
                frontier_peak = int(frontier.size)
            if tr is not None:
                tr.sample("frontier", device.elapsed_ms, frontier.size)
            core[frontier] = k
            alive[frontier] = False
            lengths = offsets[frontier + 1] - offsets[frontier]
            total = int(lengths.sum())
            # autotune: push (expand frontier) vs pull (sweep active set)
            push_cost = total * tuning.gswitch_advance_edge_cycles
            pull_cost = active.size * tuning.gswitch_filter_vertex_cycles * 2
            if push_cost <= pull_cost:
                pushes += 1
            device.charge(
                cycles=min(push_cost, pull_cost)
                + active.size * tuning.gswitch_filter_vertex_cycles
                + tuning.gswitch_tuning_cycles,
                launches=tuning.gswitch_iteration_launches,
                label="gswitch.iterate",
                args={"k": k, "frontier": int(frontier.size),
                      "mode": "push" if push_cost <= pull_cost else "pull"},
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

    counters = {
        "host.rounds": float(kmax + 1),
        "system.iterations": float(iterations),
        "system.push_iterations": float(pushes),
        "frontier.peak": float(frontier_peak),
    }
    return run.result(
        core,
        rounds=kmax + 1,
        stats={"iterations": iterations, "push_iterations": pushes},
        counters=counters,
        sanitizer=lint_emulation(__name__) if sanitize else None,
    )
