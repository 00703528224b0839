"""MemoryTracker unit tests: lifetimes, peaks, rounds, detectors."""

import pytest

from repro.errors import InvalidFreeError
from repro.gpusim.device import Device
from repro.memtrace.tracker import CONTEXT_NAME, HOST_SCOPE, MemoryTracker


def tracked_device(**kwargs):
    device = Device(**kwargs)
    device.memtracer = MemoryTracker()
    device.memtracer.attach(device.memory.in_use)
    return device, device.memtracer


def test_attach_seeds_context_overhead():
    device, tracker = tracked_device()
    assert tracker.base_bytes == device.spec.context_overhead_bytes
    assert tracker.peak.bytes == device.memory.in_use
    assert dict(tracker.peak.breakdown) == {
        CONTEXT_NAME: device.spec.context_overhead_bytes
    }


def test_peak_mirrors_global_memory_exactly():
    device, tracker = tracked_device()
    device.malloc("a", 100)
    device.malloc("b", 200)
    device.free("a")
    device.malloc("c", 50)
    assert tracker.peak.bytes == device.memory.peak
    assert tracker.in_use_bytes == device.memory.in_use


def test_peak_breakdown_sums_exactly_and_names_live_arrays():
    device, tracker = tracked_device()
    device.malloc("big", 300)
    device.malloc("small", 10)
    device.free("small")
    peak = tracker.peak
    names = [name for name, _ in peak.breakdown]
    assert names == [CONTEXT_NAME, "big", "small"]
    assert sum(b for _, b in peak.breakdown) == peak.bytes
    shares = peak.shares()
    assert sum(shares.values()) == pytest.approx(1.0)


def test_allocation_lifetime_records_scope_round_and_timestamps():
    device, tracker = tracked_device()
    tracker.set_round(3)
    device.malloc("deg", 64)
    tracker.set_round(None)
    device.free("deg")
    (record,) = tracker.allocations()
    assert record.name == "deg"
    assert record.scope == HOST_SCOPE
    assert record.round_index == 3
    assert record.alloc_ms == 0.0
    assert record.free_ms is not None
    assert record.free_ms >= record.alloc_ms


def test_still_live_allocation_has_open_lifetime():
    device, tracker = tracked_device()
    device.malloc("leak", 16)
    (record,) = tracker.allocations()
    assert record.free_ms is None


def test_round_high_water_marks():
    device, tracker = tracked_device()
    tracker.set_round(0)
    device.malloc("a", 100)
    tracker.set_round(1)
    device.free("a")
    tracker.set_round(2)  # allocates nothing; still reports its level
    rounds = dict(tracker.rounds())
    assert set(rounds) == {0, 1, 2}
    assert rounds[0] == tracker.peak.bytes
    assert rounds[1] == tracker.peak.bytes  # opened before the free
    assert rounds[2] == device.memory.in_use


def test_leak_detected_at_finish():
    device, tracker = tracked_device()
    device.malloc("stale", 32)
    tracker.finish(device.elapsed_ms)
    (finding,) = tracker.findings
    assert finding.detector == "memory-leak"
    assert "stale" in finding.message


def test_finish_is_idempotent():
    device, tracker = tracked_device()
    device.malloc("stale", 32)
    tracker.finish(0.0)
    tracker.finish(0.0)
    assert len(tracker.findings) == 1


def test_clean_run_has_no_findings():
    device, tracker = tracked_device()
    device.malloc("a", 10)
    device.free("a")
    tracker.finish(device.elapsed_ms)
    assert tracker.findings == []


def test_double_free_finding_and_typed_error():
    device, tracker = tracked_device()
    device.malloc("a", 10)
    device.free("a")
    with pytest.raises(InvalidFreeError):
        device.free("a")
    (finding,) = tracker.findings
    assert finding.detector == "double-free"
    assert "freed again" in finding.message


def test_unknown_free_finding():
    device, tracker = tracked_device()
    with pytest.raises(InvalidFreeError):
        device.free("never")
    (finding,) = tracker.findings
    assert finding.detector == "double-free"
    assert "never allocated" in finding.message


def test_use_after_free_finding():
    device, tracker = tracked_device()
    array = device.malloc("a", 10)
    device.free("a")
    device.read_back(array)  # stale bytes, diagnosed
    (finding,) = tracker.findings
    assert finding.detector == "use-after-free"
    assert finding.severity == "error"


def test_annotate_labels_flow_into_report():
    tracker = MemoryTracker()
    tracker.attach(100)
    tracker.annotate(variant="ours", algorithm="gpu-ours")
    report = tracker.report()
    assert report.algorithm == "gpu-ours"
    assert report.variant == "ours"
