"""Multi-GPU extension tests (the paper's Section VII sketch)."""

import numpy as np
import pytest

from repro.core.multigpu import MultiGpuOptions, multi_gpu_peel, partition_ranges
from repro.cpu.bz import bz_core_numbers
from repro.errors import ReproError
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.obs.runreport import RunReport
from tests.conftest import assert_cores_equal


class TestPartitioning:
    def test_ranges_cover_and_are_disjoint(self, er_graph):
        graph, _ = er_graph
        ranges = partition_ranges(graph, 3)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == graph.num_vertices
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c

    def test_edge_balance(self):
        graph = gen.erdos_renyi(500, 8.0, seed=3)
        ranges = partition_ranges(graph, 4)
        loads = [
            int(graph.offsets[hi] - graph.offsets[lo]) for lo, hi in ranges
        ]
        assert max(loads) < 2 * (sum(loads) / len(loads))

    def test_single_partition(self, fig1):
        graph, _ = fig1
        assert partition_ranges(graph, 1) == [(0, graph.num_vertices)]

    def test_invalid_parts(self, fig1):
        with pytest.raises(ReproError):
            partition_ranges(fig1[0], 0)

    def test_hub_graph_skewed_partitions(self):
        """Edge balancing gives the hub's partition fewer vertices."""
        graph = gen.hub_and_spokes(400, num_hubs=1, seed=1)
        ranges = partition_ranges(graph, 2)
        first = ranges[0][1] - ranges[0][0]
        second = ranges[1][1] - ranges[1][0]
        assert first < second  # hub is vertex 0


class TestCorrectness:
    @pytest.mark.parametrize("devices", [1, 2, 3, 4])
    def test_device_counts(self, er_graph, devices):
        graph, reference = er_graph
        result = multi_gpu_peel(graph, num_devices=devices)
        assert_cores_equal(result.core, reference, f"multi-{devices}")

    def test_battery_two_devices(self, battery_graph):
        graph, reference = battery_graph
        result = multi_gpu_peel(graph, num_devices=2)
        assert_cores_equal(result.core, reference, "multi-2")

    def test_variant_composition(self, er_graph):
        graph, reference = er_graph
        result = multi_gpu_peel(graph, num_devices=2, variant="bc")
        assert_cores_equal(result.core, reference, "multi-2-bc")
        assert result.algorithm == "gpu-multi2-bc"

    def test_empty_graph(self):
        result = multi_gpu_peel(CSRGraph.empty(0), num_devices=2)
        assert result.num_vertices == 0
        traced = multi_gpu_peel(CSRGraph.empty(0), num_devices=2,
                                memtrace=True)
        assert RunReport.from_result(traced).validate() == []

    def test_border_heavy_graph(self):
        """A graph whose dense core straddles the partition boundary —
        maximum cross-device conflict on the shared neighbors."""
        clique = [(i, j) for i in range(20) for j in range(i + 1, 20)]
        graph = CSRGraph.from_edges(clique)
        reference = bz_core_numbers(graph)
        result = multi_gpu_peel(graph, num_devices=4)
        assert_cores_equal(result.core, reference, "multi-4 clique")


class TestReporting:
    def test_subrounds_at_least_rounds(self, fig1):
        graph, _ = fig1
        result = multi_gpu_peel(graph, num_devices=2)
        # every non-empty round needs at least one sub-round
        assert result.stats["sub_rounds"] >= result.kmax

    def test_per_device_metrics(self, er_graph):
        graph, _ = er_graph
        result = multi_gpu_peel(graph, num_devices=3)
        assert len(result.stats["per_device_ms"]) == 3
        assert result.peak_memory_bytes > 0

    def test_aggregation_costs_scale_with_devices(self, er_graph):
        """More devices, more transfer/merge work per sub-round — at
        this scale communication dominates (the reason the paper calls
        multi-GPU future work, not a free win)."""
        graph, _ = er_graph
        two = multi_gpu_peel(graph, num_devices=2)
        four = multi_gpu_peel(graph, num_devices=4)
        assert four.simulated_ms > two.simulated_ms

    def test_custom_options(self, fig1):
        graph, _ = fig1
        cheap = multi_gpu_peel(
            graph, num_devices=2,
            options=MultiGpuOptions(transfer_cycles_per_word=0.0,
                                    reduce_cycles_per_word=0.0),
        )
        costly = multi_gpu_peel(
            graph, num_devices=2,
            options=MultiGpuOptions(transfer_cycles_per_word=50.0,
                                    reduce_cycles_per_word=10.0),
        )
        assert costly.simulated_ms > cheap.simulated_ms

    def test_registry_entry(self, fig1):
        from repro.api import decompose

        graph, expected = fig1
        result = decompose(graph, "gpu-multi2")
        for v, c in expected.items():
            assert result.core[v] == c
