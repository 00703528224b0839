"""The host skeleton shared by every simulator driver (``repro.core.driver``)."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.bfs_kernel import gpu_bfs
from repro.core.decomposer import KCoreDecomposer
from repro.core.host import GpuPeelOptions, gpu_peel
from repro.errors import ReproError
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import Device
from repro.gpusim.spec import DeviceSpec
from repro.graph.examples import fig1_graph

OBSERVERS = dict(sanitize=True, staticheck=True, dataflow=True,
                 profile=True, memtrace=True, critpath=True)


def _payload(result):
    """Everything a result reports, as comparable plain data."""
    reports = {
        name: getattr(result, name).to_json()
        for name in ("profile", "memtrace", "critpath")
    }
    return (
        result.core.tolist(), result.algorithm, result.simulated_ms,
        result.peak_memory_bytes, result.rounds,
        json.dumps(result.stats, sort_keys=True),
        sorted(result.counters.items()),
        result.sanitizer.to_json(), result.staticheck.to_json(),
        json.dumps(reports, sort_keys=True, default=repr),
    )


@pytest.mark.parametrize("driver", [gpu_peel, gpu_bfs])
def test_prebuilt_device_gets_every_requested_observer(driver):
    graph, _ = fig1_graph()
    fresh = driver(graph, **OBSERVERS)
    prebuilt = driver(graph, device=Device(), **OBSERVERS)
    for name in ("sanitizer", "staticheck", "profile", "memtrace",
                 "critpath"):
        assert getattr(prebuilt, name) is not None, name
    assert _payload(prebuilt) == _payload(fresh)


def test_peel_options_hold_only_the_run_tunables():
    assert [f.name for f in dataclasses.fields(GpuPeelOptions)] == [
        "buffer_capacity", "time_budget_ms", "preempt_prob", "seed",
    ]


def test_decomposer_keeps_observers_next_to_options():
    graph, expected = fig1_graph()
    result = KCoreDecomposer(
        mode="simulate", variant="bc",
        sanitize=True, memtrace=True, critpath=True,
    ).decompose(graph)
    assert result.algorithm == "gpu-bc"
    assert result.sanitizer is not None
    assert result.memtrace is not None
    assert result.critpath is not None
    assert np.array_equal(
        result.core, [expected[v] for v in range(graph.num_vertices)]
    )


@pytest.mark.parametrize("keyword, value", [
    ("options", GpuPeelOptions(time_budget_ms=1.0)),
    ("spec", DeviceSpec()),
    ("cost_model", CostModel()),
])
def test_prebuilt_device_rejects_a_keyword_it_would_ignore(keyword, value):
    graph, _ = fig1_graph()
    device = Device()
    with pytest.raises(ReproError) as info:
        gpu_peel(graph, device=device, **{keyword: value})
    named = "time_budget_ms" if keyword == "options" else keyword
    assert named in str(info.value)
    assert device.kernel_launches == 0


def test_prebuilt_bfs_device_rejects_a_spec():
    graph, _ = fig1_graph()
    with pytest.raises(ReproError, match="spec"):
        gpu_bfs(graph, device=Device(), spec=DeviceSpec())


def test_prebuilt_device_keeps_its_engine_over_the_keyword():
    graph, _ = fig1_graph()
    result = gpu_peel(graph, device=Device(engine="reference"),
                      engine="vectorized")
    assert result.stats["engine"] == "reference"
    assert result.counters["engine.reference"] == 1.0
