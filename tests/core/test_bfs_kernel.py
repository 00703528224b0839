"""The frontier BFS kernel and its admission to the static pipeline.

``repro.core.bfs_kernel`` exists to prove the contract registry is
kernel-agnostic: a foreign (non-k-core) kernel must certify end to end
purely by registering a :class:`KernelContract` — zero edits to any
analyzer.  These tests pin both halves: the kernel computes correct BFS
levels on the simulated device, and every static-analysis surface
(bounds, dataflow certificate, differential checker, engine
preconditions) covers it through the registry alone.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.core.bfs_kernel import bfs_bounds, gpu_bfs
from repro.graph.csr import CSRGraph
from repro.graph.examples import fig1_graph, path_graph, triangle
from repro.graph.generators import erdos_renyi, random_tree
from repro.obs.runreport import RunReport


def reference_levels(graph: CSRGraph, source: int) -> np.ndarray:
    dist = np.full(graph.num_vertices, -1, dtype=np.int64)
    if graph.num_vertices:
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for u in graph.neighbors_of(v):
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(int(u))
    return dist


@pytest.mark.parametrize("graph,source", [
    (path_graph(17), 0),
    (path_graph(17), 8),
    (triangle(), 0),
    (fig1_graph()[0], 0),
    (random_tree(120, seed=7), 0),
    (erdos_renyi(150, 4.0, seed=2), 3),
    (CSRGraph.empty(0), 0),
    (CSRGraph.empty(5), 2),
])
def test_gpu_bfs_matches_host_reference(graph, source) -> None:
    result = gpu_bfs(graph, source)
    assert np.array_equal(result.core, reference_levels(graph, source))
    assert result.algorithm == "gpu-bfs"
    # the per-level frontier is re-malloc'd with a new size each level;
    # the memory telemetry must still explain the peak exactly
    observed = gpu_bfs(graph, source, memtrace=True, profile=True)
    assert RunReport.from_result(observed).validate() == []


def test_gpu_bfs_counters_report_frontier_work() -> None:
    graph = path_graph(32)
    result = gpu_bfs(graph, 0)
    # 31 frontier levels plus the final launch that drains to empty
    assert result.counters["host.levels"] == 32
    assert result.counters["kernel.bfs.launches"] == 32
    assert result.counters["frontier.peak"] == 1
    assert result.counters["frontier.total"] == 32


def test_gpu_bfs_is_clean_under_every_checker() -> None:
    graph = erdos_renyi(200, 5.0, seed=9)
    result = gpu_bfs(graph, 0, sanitize=True, staticheck=True,
                     dataflow=True)
    assert result.sanitizer is not None and result.sanitizer.clean
    assert result.staticheck is not None
    assert not result.staticheck.findings
    assert result.staticheck.launches_checked > 0


def test_bfs_is_admitted_through_the_registry() -> None:
    from repro.staticheck import contracts

    contract = contracts.kernel_contract("bfs_kernel")
    assert contract.program == "bfs"
    assert contract.engine_module is None  # no vectorized fast path
    program = contracts.program_contract("bfs")
    assert program.kernels == ("bfs_kernel",)


def test_bfs_dataflow_certificate_is_race_free() -> None:
    from repro.staticheck.dataflow import analyze_kernel, predicted_tier

    cert = analyze_kernel("bfs_kernel", "bfs-base")
    assert cert.race_free
    assert not cert.unproven
    arguments = {p.argument for p in cert.proofs}
    assert "atomic-only" in arguments       # visited claims
    assert "reservation-disjoint" in arguments  # frontier appends
    # no vectorized executor is registered: the static prediction must
    # say the reference interpreter serves every launch
    cfg = cert_variant_config()
    assert predicted_tier("bfs_kernel", cfg) == "reference"


def cert_variant_config():
    from repro.staticheck import contracts

    return contracts.kernel_contract("bfs_kernel").variants()["bfs-base"]


def test_bfs_engine_prediction_matches_the_dynamic_table() -> None:
    from repro.core.bfs_kernel import bfs_kernel
    from repro.gpusim.engine import has_vectorized_impl

    # the contract declares engine_module=None ("always reference");
    # the dynamic dispatch table must agree
    assert not has_vectorized_impl(bfs_kernel)


def test_bfs_bounds_evaluate_and_scale() -> None:
    cfg = cert_variant_config()
    bounds = bfs_bounds(cfg)
    env = {"n": 100.0, "adj": 400.0, "dmax": 9.0, "G": 4.0, "W": 8.0,
           "S": 32.0, "cap": 16384.0}
    small = bounds.evaluate(env)
    big = bounds.evaluate({**env, "n": 1000.0, "adj": 4000.0})
    for event in ("issued", "mem_transactions"):
        assert small[event] > 0
        assert big[event] > small[event]
    assert small["barriers"] == env["G"] * 2
