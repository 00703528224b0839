"""End-to-end tests of the GPU peeling host program (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.host import GpuPeelOptions, gpu_peel
from repro.core.variants import VariantConfig, get_variant, variant_names
from repro.errors import (
    BufferOverflowError,
    DeviceArrayExistsError,
    DeviceError,
    ReproError,
    SimulatedTimeLimitExceeded,
    UnknownAlgorithmError,
)
from repro.gpusim.device import Device
from repro.gpusim.spec import DeviceSpec
from tests.conftest import assert_cores_equal


class TestCorrectness:
    @pytest.mark.parametrize("variant", variant_names())
    def test_every_variant_on_fig1(self, fig1, variant):
        graph, expected = fig1
        result = gpu_peel(graph, variant=variant)
        for v, c in expected.items():
            assert result.core[v] == c, (variant, v)

    @pytest.mark.parametrize("variant", ["ours", "sm", "vp", "bc", "ec"])
    def test_variants_on_random_graph(self, er_graph, variant):
        graph, reference = er_graph
        result = gpu_peel(graph, variant=variant)
        assert_cores_equal(result.core, reference, variant)

    def test_battery(self, battery_graph):
        graph, reference = battery_graph
        result = gpu_peel(graph)
        assert_cores_equal(result.core, reference, "gpu-ours")

    def test_ring_buffer_variant(self, er_graph):
        graph, reference = er_graph
        cfg = get_variant("ours").with_ring_buffer()
        result = gpu_peel(graph, variant=cfg)
        assert_cores_equal(result.core, reference, "ours+ring")

    def test_empty_graph(self):
        from repro.graph.csr import CSRGraph

        result = gpu_peel(CSRGraph.empty(0))
        assert result.num_vertices == 0
        reported = gpu_peel(CSRGraph.empty(0), report=True)
        assert reported.report.validate() == []

    def test_isolated_vertices_core_zero(self):
        from repro.graph.csr import CSRGraph

        result = gpu_peel(CSRGraph.from_edges([(0, 1)], num_vertices=5))
        assert result.core.tolist() == [1, 1, 0, 0, 0]


class TestReporting:
    def test_rounds_is_kmax_plus_one(self, fig1):
        graph, _ = fig1
        result = gpu_peel(graph)
        assert result.rounds == result.kmax + 1 == 4

    def test_two_kernels_per_round(self, fig1):
        graph, _ = fig1
        result = gpu_peel(graph)
        assert result.stats["kernel_launches"] == 2 * result.rounds

    def test_simulated_time_positive_and_split(self, fig1):
        graph, _ = fig1
        result = gpu_peel(graph)
        assert result.simulated_ms > 0
        assert result.stats["scan_cycles"] > 0
        assert result.stats["loop_cycles"] > 0

    def test_peak_memory_includes_graph_and_buffers(self, fig1):
        graph, _ = fig1
        spec = DeviceSpec()
        result = gpu_peel(graph)
        floor = spec.context_overhead_bytes + (
            spec.default_grid_dim * spec.block_buffer_capacity * spec.id_bytes
        )
        assert result.peak_memory_bytes > floor

    def test_algorithm_name_includes_variant(self, fig1):
        graph, _ = fig1
        assert gpu_peel(graph, variant="bc+sm").algorithm == "gpu-bc+sm"


class TestOptionsAndErrors:
    def test_unknown_variant(self, fig1):
        with pytest.raises(UnknownAlgorithmError):
            gpu_peel(fig1[0], variant="warp9")

    def test_vp_requires_two_warps(self, fig1):
        spec = DeviceSpec(default_block_dim=32, default_grid_dim=2)
        with pytest.raises(ReproError):
            gpu_peel(fig1[0], variant="vp", spec=spec)

    def test_buffer_overflow_surfaces(self, er_graph):
        graph, _ = er_graph
        with pytest.raises(BufferOverflowError):
            gpu_peel(graph, options=GpuPeelOptions(buffer_capacity=2))

    def test_time_budget(self, er_graph):
        graph, _ = er_graph
        with pytest.raises(SimulatedTimeLimitExceeded):
            gpu_peel(graph, options=GpuPeelOptions(time_budget_ms=1e-6))

    def test_shared_device_reuse_rejected_on_name_clash(self, fig1):
        graph, _ = fig1
        device = Device()
        gpu_peel(graph, device=device)
        with pytest.raises(ValueError):
            gpu_peel(graph, device=device)  # arrays already allocated

    def test_name_clash_is_a_typed_actionable_error(self, fig1):
        graph, _ = fig1
        device = Device()
        gpu_peel(graph, device=device)
        with pytest.raises(DeviceArrayExistsError) as exc:
            gpu_peel(graph, device=device)
        assert isinstance(exc.value, DeviceError)
        assert exc.value.name == "offsets"
        assert "'offsets' already allocated" in str(exc.value)
        assert "pass a fresh Device" in str(exc.value)

    def test_custom_variant_config(self, fig1):
        graph, expected = fig1
        cfg = VariantConfig("custom", compaction="ballot", prefetch=True)
        result = gpu_peel(graph, variant=cfg)
        for v, c in expected.items():
            assert result.core[v] == c


class TestDeterminism:
    def test_same_run_same_time(self, fig1):
        graph, _ = fig1
        a = gpu_peel(graph)
        b = gpu_peel(graph)
        assert a.simulated_ms == b.simulated_ms
        assert np.array_equal(a.core, b.core)
