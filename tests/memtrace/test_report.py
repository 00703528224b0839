"""MemtraceReport schema, rendering, and validator tests."""

import json

from repro.core.bfs_kernel import gpu_bfs
from repro.gpusim.device import Device
from repro.graph.examples import fig1_graph
from repro.memtrace import (
    MemoryTracker,
    MemtraceReport,
    validate_memtrace,
    validate_memtrace_file,
)


def sample_report():
    device = Device()
    tracker = device.memtracer = MemoryTracker()
    tracker.attach(device.memory.in_use)
    tracker.annotate(variant="ours", algorithm="gpu-ours")
    tracker.set_round(0)
    device.malloc("deg", 128)
    device.malloc("frontier", 64)
    tracker.set_round(1)
    device.free_all()
    tracker.set_round(None)
    tracker.finish(device.elapsed_ms)
    return tracker.report()


def test_valid_report_passes_validator():
    report = sample_report()
    assert validate_memtrace(report.to_json()) == []


def test_json_round_trip_keeps_invariants(tmp_path):
    report = sample_report()
    path = tmp_path / "mt.json"
    report.write(path)
    assert validate_memtrace_file(path) == []
    record = json.loads(path.read_text())
    assert record["schema"] == "repro.memtrace/v1"
    assert record["algorithm"] == "gpu-ours"
    assert record["peak_bytes"] == report.peak_bytes


def test_breakdown_sums_to_peak():
    report = sample_report()
    assert sum(report.breakdown().values()) == report.peak_bytes


def test_render_names_every_peak_array():
    report = sample_report()
    text = report.render()
    assert "Memory telemetry: gpu-ours" in text
    assert "(context)" in text
    assert "deg" in text
    assert "frontier" in text
    assert "findings: clean" in text


def test_multi_worker_merge_keeps_provenance():
    trackers = [MemoryTracker(worker=f"gpu{d}") for d in range(2)]
    trackers[0].attach(100)
    trackers[1].attach(100)
    trackers[0].on_malloc("a", 500, 0.0)
    trackers[1].on_malloc("b", 50, 0.0)
    report = MemtraceReport.from_trackers(trackers, algorithm="gpu-multi2")
    assert [w.worker for w in report.workers] == ["gpu0", "gpu1"]
    assert report.peak_bytes == 600
    assert report.peak_worker.worker == "gpu0"
    assert report.breakdown() == {"(context)": 100, "a": 500}


def test_validator_rejects_inexact_breakdown():
    record = sample_report().to_json()
    record["workers"][0]["peak"]["breakdown"][0]["bytes"] += 1
    errors = validate_memtrace(record)
    assert any("attribution must be exact" in e or "disagrees" in e
               for e in errors)


def test_validator_rejects_wrong_headline_peak():
    record = sample_report().to_json()
    record["peak_bytes"] += 1
    errors = validate_memtrace(record)
    assert any("max worker peak" in e for e in errors)


def test_validator_rejects_breakdown_entry_freed_before_peak():
    record = sample_report().to_json()
    worker = record["workers"][0]
    worker["peak"]["ts_ms"] = 1e9  # claims the peak happened at the end
    errors = validate_memtrace(record)
    assert any("freed before the peak" in e for e in errors)


def bfs_report_json():
    graph, _ = fig1_graph()
    return gpu_bfs(graph, memtrace=True).memtrace.to_json()


def test_reallocated_name_is_checked_against_the_record_live_at_the_peak():
    """BFS mallocs a fresh ``frontier`` per level, with another size each
    time; the peak's entry must match the allocation live at the peak,
    not the last one of that name."""
    record = bfs_report_json()
    frontiers = [a for a in record["workers"][0]["allocations"]
                 if a["name"] == "frontier"]
    assert len({a["bytes"] for a in frontiers}) > 1
    assert validate_memtrace(record) == []


def test_validator_rejects_tampered_bytes_of_a_reallocated_name():
    record = bfs_report_json()
    peak = record["workers"][0]["peak"]
    entry = next(e for e in peak["breakdown"] if e["name"] == "frontier")
    entry["bytes"] += 4
    errors = validate_memtrace(record)
    assert any("'frontier'" in e and "disagrees with its allocation" in e
               for e in errors)


def test_validator_rejects_unknown_detector():
    record = sample_report().to_json()
    record["workers"][0]["findings"].append(
        {"detector": "nonsense", "severity": "error",
         "kernel": "host", "message": "x"}
    )
    errors = validate_memtrace(record)
    assert any("detector" in e for e in errors)


def test_validator_rejects_wrong_schema_and_shape():
    assert validate_memtrace([]) != []
    assert any(
        "schema" in e
        for e in validate_memtrace({"schema": "nope", "workers": []})
    )


def test_validate_file_reports_unreadable(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    (error,) = validate_memtrace_file(path)
    assert "unreadable" in error
