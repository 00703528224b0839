"""Dynamic racecheck: every detector fires on its bad kernel, and every
shipped kernel runs clean with simulated time unchanged."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.host import GpuPeelOptions, gpu_peel
from repro.core.multigpu import multi_gpu_peel
from repro.core.variants import VARIANTS
from repro.cpu.bz import bz_decompose
from repro.errors import SanitizerFindingsError
from repro.gpusim.device import Device
from repro.graph import generators as gen
from repro.sanitize import KernelSanitizer

from tests.sanitize import bad_kernels


def _sanitized_device(sanitizer=None):
    device = Device()
    device.sanitizer = sanitizer or KernelSanitizer()
    return device


def _launch(kernel, args=(), grid_dim=1, block_dim=64, sanitizer=None):
    device = _sanitized_device(sanitizer)
    out = device.malloc("out", 4)
    device.launch(kernel, args=args or (), grid_dim=grid_dim,
                  block_dim=block_dim)
    return device, out


def _detectors(device):
    return {f.detector for f in device.sanitizer.report.findings}


@pytest.fixture(scope="module")
def graph():
    return gen.planted_core(
        200, core_size=40, core_degree=12, background_degree=4.0, seed=13
    )


class TestDetectorsFire:
    def test_shared_write_write_race(self):
        device, _ = _launch(bad_kernels.shared_write_write_race)
        report = device.sanitizer.report
        assert "shared-race" in _detectors(device)
        finding = next(
            f for f in report.findings if f.detector == "shared-race"
        )
        assert finding.severity == "error"
        assert finding.kernel == "shared_write_write_race"
        assert any("bad_kernels.py:" in s for s in finding.sites)
        assert "write-write" in finding.message

    def test_global_write_race_across_blocks(self):
        device = _sanitized_device()
        out = device.malloc("out", 4)
        device.launch(bad_kernels.global_write_race, args=(out,),
                      grid_dim=2, block_dim=32)
        report = device.sanitizer.report
        assert "global-race" in _detectors(device)
        finding = next(
            f for f in report.findings if f.detector == "global-race"
        )
        assert "out[0]" in finding.message
        assert any("bad_kernels.py:" in s for s in finding.sites)

    def test_barrier_divergence(self):
        device, _ = _launch(bad_kernels.barrier_divergence)
        assert "barrier-divergence" in _detectors(device)
        finding = next(
            f for f in device.sanitizer.report.findings
            if f.detector == "barrier-divergence"
        )
        assert "block 0" in finding.message

    def test_ballot_hazard(self):
        device, _ = _launch(bad_kernels.ballot_after_unsynced_write)
        assert "ballot-hazard" in _detectors(device)

    def test_atomic_version_is_clean(self):
        device = _sanitized_device()
        out = device.malloc("out", 4)
        device.launch(bad_kernels.global_race_fixed, args=(out,),
                      grid_dim=2, block_dim=32)
        assert device.sanitizer.report.clean

    def test_barrier_separated_ballot_is_clean(self):
        device, _ = _launch(bad_kernels.ballot_fixed)
        assert device.sanitizer.report.clean

    def test_disable_suppresses_detector(self):
        sanitizer = KernelSanitizer(disable={"shared-race"})
        device, _ = _launch(
            bad_kernels.shared_write_write_race, sanitizer=sanitizer
        )
        assert "shared-race" not in _detectors(device)

    def test_raise_if_findings(self):
        device, _ = _launch(bad_kernels.shared_write_write_race)
        with pytest.raises(SanitizerFindingsError) as info:
            device.sanitizer.report.raise_if_findings()
        assert "shared-race" in str(info.value)
        assert info.value.report is device.sanitizer.report


class TestShippedKernelsClean:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_variant_clean_and_correct(self, graph, variant):
        result = gpu_peel(graph, variant=variant, sanitize=True)
        reference = bz_decompose(graph)
        assert result.sanitizer is not None
        assert result.sanitizer.clean, result.sanitizer.summary()
        assert result.sanitizer.launches_checked == result.stats[
            "kernel_launches"
        ]
        assert np.array_equal(result.core, reference.core)

    def test_clean_under_preempt_fuzzing(self, graph):
        options = GpuPeelOptions(preempt_prob=0.3, seed=7)
        result = gpu_peel(graph, options=options, sanitize=True)
        assert result.sanitizer.clean, result.sanitizer.summary()

    def test_multi_gpu_shares_one_report(self, graph):
        result = multi_gpu_peel(graph, num_devices=2, sanitize=True)
        assert result.sanitizer is not None
        assert result.sanitizer.clean, result.sanitizer.summary()
        assert result.sanitizer.launches_checked > 0


class TestSanitizeOffUnchanged:
    def test_off_by_default(self, graph):
        result = gpu_peel(graph)
        assert result.sanitizer is None

    def test_simulated_time_identical_with_and_without(self, graph):
        plain = gpu_peel(graph)
        checked = gpu_peel(graph, sanitize=True)
        assert checked.simulated_ms == plain.simulated_ms
        assert checked.rounds == plain.rounds
        # monitored launches are served by the reference interpreter,
        # so only the `engine.served.*` attribution may differ
        strip = lambda c: {k: v for k, v in c.items()
                           if not k.startswith("engine.served.")}
        assert strip(checked.counters) == strip(plain.counters)
        assert np.array_equal(checked.core, plain.core)
