"""Tests of the benchmark itself: span arithmetic, failure counting,
seeded graphs and the metric list."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cpu.bz import bz_core_numbers
from repro.graph import datasets

import run
from clock import REFERENCE_S, Clock
from probes import Probe, Span, self_times
from workloads import WORKLOADS, Program, Workload, peel, trackers, web_google

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span("parent", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),   # overlaps a: 1..5 is covered once
        Span("c", 9.0, 12.0, 0),  # overhangs the parent: only 9..10 counts
        Span("leaf", 2.5, 2.75, 2),
    ]
    assert self_times(spans) == [5.0, 2.0, 2.75, 3.0, 0.25]


@pytest.fixture(scope="module")
def web():
    graph = web_google(0)
    return graph, bz_core_numbers(graph)


def test_traced_pass_spans_nest_and_match_the_untraced_result(web):
    graph, reference = web
    workload = WORKLOADS["observed-matrix"]
    tally, clock = run.Tally(), Clock()
    run.run_pass(workload, graph, reference, tally, clock)
    probe = Probe()
    _, _, results = run.run_pass(
        workload, graph, reference, tally, clock, probe
    )
    # the traced pass is fingerprint-checked against the untraced one
    assert (tally.attempted, tally.failed) == (2 * len(workload.programs), 0)
    assert all(own >= 0.0 for own in self_times(probe.spans))
    for span in probe.spans:
        assert span.start <= span.end
        if span.parent is not None:
            parent = probe.spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    names = {s.name.split(":")[0] for s in probe.spans}
    assert {"driver", "device.launch", "device.malloc", "device.read_back",
            "engine.scan_kernel", "engine.loop_kernel"} <= names
    metrics = run.layer_metrics(probe, workload, results)
    assert metrics["multigpu.subrounds"] == metrics[
        "multigpu.exchange_bound_subrounds"] > 0
    assert 0.0 < metrics["engine.vectorized_ratio"] < 1.0  # vw2 falls back


def test_wrong_core_numbers_and_raises_count_as_failures(web):
    graph, reference = web
    good = peel("ours")

    def wrong(g, probe):
        result = good.run(g, probe)
        core = result.core.copy()
        core[0] += 1
        return replace(result, core=core)

    def boom(g, probe):
        raise RuntimeError("deliberate")

    workload = Workload("t", "", web_google, (
        good, Program("wrong", wrong), Program("boom", boom), good,
    ))
    tally = run.Tally()
    seconds, _, results = run.run_pass(
        workload, graph, reference, tally, Clock()
    )
    assert seconds > 0 and results[2] is None
    assert (tally.attempted, tally.failed) == (4, 2)


def test_fresh_warmup_is_checked_against_the_parent_run():
    workload = WORKLOADS["hub-skew"]
    graph = trackers(0)
    tally = run.Tally()
    run.run_pass(workload, graph, bz_core_numbers(graph), tally, Clock())
    assert run.fresh_warmup(workload, 0, tally) > 0
    assert (tally.attempted, tally.failed) == (4, 0)
    tally.fingerprints["gpu-vp"] = "not the child's result"
    run.fresh_warmup(workload, 0, tally)
    assert (tally.attempted, tally.failed) == (6, 1)


def test_clock_scales_by_the_calibrations_around_the_call(monkeypatch):
    clock = Clock()
    clock._last = 2 * REFERENCE_S
    monkeypatch.setattr(clock, "kernel", lambda: 4 * REFERENCE_S)
    value, raw, normalised = clock.time(lambda x: x + 1, 6)
    assert value == 7 and normalised == pytest.approx(raw / 3)


def test_default_seed_rebuilds_the_registry_graphs():
    assert trackers(0) == datasets.load("trackers")
    assert web_google(0) == datasets.load("web-Google")
    assert web_google(1) != web_google(0)


def test_tail_keeps_ten_samples_above_it_and_never_drops_below_median():
    assert run.tail([float(i) for i in range(30)]) == (19.0, 200.0 / 3)
    assert run.tail([float(i) for i in range(10)]) == (5.0, 60.0)
    assert run.tail([float(i) for i in range(11)]) == (5.0, 100.0 * 6 / 11)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == table
