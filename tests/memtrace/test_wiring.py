"""End-to-end memtrace wiring: host, decomposer, systems, multi-GPU,
bench runner, and CLI."""

import numpy as np
import pytest

from repro.api import decompose
from repro.core.decomposer import KCoreDecomposer
from repro.core.host import GpuPeelOptions, gpu_peel
from repro.core.multigpu import multi_gpu_peel
from repro.gpusim.device import Device
from repro.graph import generators as gen
from repro.memtrace import validate_memtrace
from tests.conftest import programs_taking


@pytest.fixture(scope="module")
def graph():
    return gen.planted_core(150, core_size=20, core_degree=6, seed=3)


def test_gpu_peel_memtrace_report(graph):
    result = gpu_peel(graph, memtrace=True)
    report = result.memtrace
    assert report is not None
    assert validate_memtrace(report.to_json()) == []
    assert report.peak_bytes == result.peak_memory_bytes
    assert sum(report.breakdown().values()) == result.peak_memory_bytes
    assert report.clean
    assert report.algorithm == "gpu-ours"
    assert report.variant == "ours"


def test_memtrace_off_by_default(graph):
    assert gpu_peel(graph).memtrace is None


def test_memtrace_via_options(graph):
    result = gpu_peel(graph, options=GpuPeelOptions(seed=1), memtrace=True)
    assert result.memtrace is not None


def test_memtrace_records_rounds_and_kernel_scopes(graph):
    report = gpu_peel(graph, memtrace=True).memtrace
    worker = report.workers[0]
    assert worker.rounds  # per-round high-water marks
    assert all(high <= report.peak_bytes for _, high in worker.rounds)
    scopes = {a.scope for a in worker.allocations}
    assert "host" in scopes  # the CSR upload happens outside kernels


def test_memtrace_on_prebuilt_device(graph):
    device = Device()
    result = gpu_peel(graph, device=device, memtrace=True)
    assert result.memtrace is not None
    assert result.memtrace.peak_bytes == device.peak_memory_bytes


def test_decomposer_memtrace_flag(graph):
    result = KCoreDecomposer(mode="simulate", memtrace=True).decompose(graph)
    assert result.memtrace is not None
    assert result.memtrace.peak_bytes == result.peak_memory_bytes
    fast = KCoreDecomposer(mode="fast").decompose(graph)
    assert fast.memtrace is None


def test_every_memtraceable_algorithm_reports_exact_attribution(graph):
    for name in sorted(programs_taking("memtrace")):
        result = decompose(graph, name, memtrace=True)
        report = result.memtrace
        assert report is not None, name
        assert validate_memtrace(report.to_json()) == [], name
        assert report.peak_bytes == result.peak_memory_bytes, name
        assert sum(report.breakdown().values()) == result.peak_memory_bytes


def test_memtraceable_covers_variants_and_systems():
    memtraceable = programs_taking("memtrace")
    assert "gpu-ours" in memtraceable
    assert "gpu-multi2" in memtraceable
    assert {"vetga", "medusa-mpm", "medusa-peel", "gunrock",
            "gswitch"} <= memtraceable
    assert "bz" not in memtraceable  # CPU programs have no device


def test_system_emulation_attributes_init_scope(graph):
    report = decompose(graph, "gunrock", memtrace=True).memtrace
    scopes = {a.scope for a in report.workers[0].allocations}
    assert "gunrock.init" in scopes


def test_memtrace_identical_results(graph):
    plain = gpu_peel(graph)
    traced = gpu_peel(graph, memtrace=True)
    assert traced.simulated_ms == plain.simulated_ms
    assert traced.counters == plain.counters
    assert traced.peak_memory_bytes == plain.peak_memory_bytes
    assert np.array_equal(traced.core, plain.core)


# -- multi-GPU accounting -----------------------------------------------------


def test_multigpu_memtrace_worker_provenance(graph):
    result = multi_gpu_peel(graph, num_devices=2, memtrace=True)
    report = result.memtrace
    assert report is not None
    assert validate_memtrace(report.to_json()) == []
    assert [w.worker for w in report.workers] == ["gpu0", "gpu1"]
    assert report.algorithm == "gpu-multi2-ours"


def test_multigpu_per_device_peaks_sum_and_headline(graph):
    result = multi_gpu_peel(graph, num_devices=2, memtrace=True)
    per_device = result.stats["per_device_peak_bytes"]
    report = result.memtrace
    assert len(per_device) == 2
    assert [w.peak.bytes for w in report.workers] == per_device
    # the reported peak is the busiest single device, not the sum
    assert result.peak_memory_bytes == max(per_device)
    assert report.peak_bytes == max(per_device)
    # every device's attribution sums exactly to its own peak
    for worker in report.workers:
        assert sum(worker.breakdown().values()) == worker.peak.bytes


def test_multigpu_partition_smaller_than_single_device(graph):
    single = gpu_peel(graph, memtrace=True)
    multi = multi_gpu_peel(graph, num_devices=4, memtrace=True)
    assert multi.peak_memory_bytes < single.peak_memory_bytes
    assert np.array_equal(multi.core, single.core)


# -- bench runner -------------------------------------------------------------


def test_bench_outcome_carries_attribution():
    from repro.bench.runner import run_program

    outcome = run_program("gpu-ours", "amazon0601")
    assert outcome.status == "ok"
    assert outcome.peak_bytes is not None
    assert outcome.attribution is not None
    assert sum(outcome.attribution.values()) == outcome.peak_bytes
    assert outcome.peak_memory_mb == pytest.approx(
        outcome.peak_bytes / (1024 * 1024)
    )


def test_bench_outcome_no_attribution_for_cpu_programs():
    from repro.bench.runner import run_program

    outcome = run_program("bz", "amazon0601")
    assert outcome.status == "ok"
    assert outcome.peak_bytes is None
    assert outcome.attribution is None
