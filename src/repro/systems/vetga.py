"""VETGA — vectorised k-core decomposition (Mehrafsa, Chester & Thomo).

VETGA reframes peeling in terms of whole-array vector primitives so it
can run on PyTorch's GPU tensor operations: every iteration applies a
fixed sequence of full-length masks, gathers, scatters and reductions —
no frontier, no custom kernels.  The price is that each iteration
touches entire ``n``- and ``m``-sized tensors however small the active
set, and that its (NumPy-based) loading pipeline is so slow the paper
force-terminates it after an hour on the four largest graphs
("LD > 1hr" in Table III).

Here the same vector-primitive algorithm runs on numpy (the natural
PyTorch stand-in), with the per-iteration tensor passes and the loading
cost charged to the device/host clocks.
"""

from __future__ import annotations

import numpy as np

from repro.core.driver import HostRun
from repro.errors import SimulatedTimeLimitExceeded
from repro.graph.csr import CSRGraph
from repro.gpusim.device import Device
from repro.result import DecompositionResult
from repro.systems.base import DEFAULT_TUNING, SystemTuning, lint_emulation

__all__ = ["vetga_decompose", "vetga_load_ms"]


def vetga_load_ms(graph: CSRGraph, tuning: SystemTuning = DEFAULT_TUNING) -> float:
    """Modelled host-side loading time (the "LD > 1hr" column)."""
    return graph.num_edges * tuning.vetga_load_us_per_edge / 1000.0


def vetga_decompose(
    graph: CSRGraph,
    device: Device | None = None,
    tuning: SystemTuning = DEFAULT_TUNING,
    time_budget_ms: float | None = None,
    include_load: bool = True,
    sanitize: bool = False,
    memtrace: bool = False,
    profile: bool = False,
) -> DecompositionResult:
    """Run the vector-primitive peeling algorithm.

    With ``include_load=True`` the modelled loading time counts against
    ``time_budget_ms`` first, reproducing the force-terminated loads.
    ``sanitize``, ``memtrace`` and ``profile`` are described in
    :mod:`repro.systems`.
    """
    run = HostRun(None, "vetga", memtrace=memtrace, profile=profile)
    device = run.device(device, time_budget_ms=time_budget_ms)
    load_ms = vetga_load_ms(graph, tuning) if include_load else 0.0
    if time_budget_ms is not None and load_ms > time_budget_ms:
        raise SimulatedTimeLimitExceeded(load_ms, time_budget_ms)
    tracker = device.memtracer
    n, m2 = graph.num_vertices, graph.neighbors.size
    if tracker is not None:
        tracker.set_scope("vetga.init")
    # graph tensors plus the full-length temporaries of the vector ops
    device.malloc("vetga_offsets", n + 1)
    device.malloc("vetga_edges", m2)
    device.malloc(
        "vetga_temporaries", int(tuning.vetga_tensor_factor * (m2 + 2 * n))
    )
    if tracker is not None:
        tracker.set_scope(None)

    if load_ms and device.tracer is not None:
        device.tracer.instant("vetga.load", 0.0, cat="system",
                              track="host", args={"load_ms": load_ms})

    offsets, neighbors = graph.offsets, graph.neighbors
    sources = np.repeat(np.arange(n), np.diff(offsets))
    deg = graph.degrees.astype(np.int64).copy()
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    iterations = 0
    k = 0
    while alive.any():
        progressed = True
        while progressed:
            # one vector iteration: full-length masks over V and E
            device.charge(
                cycles=(n + m2)
                * tuning.vetga_vector_op_cycles
                * tuning.vetga_passes_per_iteration,
                launches=1,
                label="vetga.vector_pass",
                args={"k": k, "elements": int(n + m2)},
            )
            iterations += 1
            peel_mask = alive & (deg <= k)
            progressed = bool(peel_mask.any())
            if not progressed:
                break
            core[peel_mask] = k
            alive[peel_mask] = False
            # vector primitive: edge mask -> scatter-add of decrements
            edge_hits = peel_mask[sources] & alive[neighbors]
            deg -= np.bincount(neighbors[edge_hits], minlength=n)
        k += 1

    counters = {
        "host.rounds": float(k),
        "system.iterations": float(iterations),
        "system.load_ms": float(load_ms),
    }
    return run.result(
        core,
        rounds=k,
        stats={"iterations": iterations, "load_ms": load_ms},
        counters=counters,
        sanitizer=lint_emulation(__name__) if sanitize else None,
    )
