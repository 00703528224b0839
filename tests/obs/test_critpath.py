"""The causal critical-path analyzer: schema, invariants, attribution.

A clean analyzed run must produce a ``repro.critpath/v1`` record that
validates with zero problems, and the validator must detect tampering
with any figure it re-derives — each tamper test below breaks exactly
one number and asserts a check fires.  The fixtures cover all three
producers: single-GPU peeling, multi-GPU peeling (straggler and
exchange attribution) and BFS (which inherits the analyzer through the
contract registry without declaring floors).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.api import decompose, variant_names
from repro.cli import main
from repro.core.bfs_kernel import gpu_bfs
from repro.core.decomposer import KCoreDecomposer
from repro.core.host import gpu_peel
from repro.core.multigpu import multi_gpu_peel
from repro.graph import generators as gen
from repro.obs import tracing
from repro.obs.critpath import (
    ROUND_BOUND_CLASSES,
    SCENARIOS,
    SCHEMA_VERSION,
    render_critpath,
    validate_critpath,
)
from repro.profile.flamegraph import _frame
from tests.conftest import programs_taking


@pytest.fixture(scope="module")
def graph():
    return gen.planted_core(
        150, core_size=18, core_degree=7, background_degree=3.0, seed=7
    )


@pytest.fixture(scope="module")
def single(graph):
    return gpu_peel(graph, critpath=True)


@pytest.fixture(scope="module")
def multi(graph):
    return multi_gpu_peel(graph, num_devices=2, critpath=True)


@pytest.fixture
def record(single):
    """A deep copy of the single-GPU record, safe to tamper with."""
    return copy.deepcopy(single.critpath.record)


@pytest.fixture
def multi_record(multi):
    return copy.deepcopy(multi.critpath.record)


# -- the clean path ----------------------------------------------------------

def test_clean_single_record_validates(single):
    report = single.critpath
    assert report is not None
    assert report.validate() == []
    assert report.record["schema"] == SCHEMA_VERSION
    assert report.record["kind"] == "single"


def test_clean_multi_record_validates(multi):
    report = multi.critpath
    assert report is not None
    assert report.validate() == []
    assert report.record["kind"] == "multi"
    assert report.record["num_devices"] == 2


def test_whatif_covers_scenarios_ranked(single):
    rows = single.critpath.whatif
    assert {row["scenario"] for row in rows} == set(SCENARIOS)
    ceilings = [row["speedup_ceiling"] for row in rows]
    assert ceilings == sorted(ceilings, reverse=True)
    for row in rows:
        assert row["projected_ms"] <= row["measured_ms"]
        assert row["floor_ms"] <= row["projected_ms"]


def test_speed_of_light_dominates(single):
    """The all-at-once counterfactual is at least as fast as any
    single-term one, so it ranks first."""
    rows = {row["scenario"]: row for row in single.critpath.whatif}
    sol = rows["speed_of_light"]
    for scenario, row in rows.items():
        assert sol["projected_ms"] <= row["projected_ms"], scenario


def test_every_variant_produces_a_valid_record(graph):
    for name in variant_names():
        result = decompose(graph, f"gpu-{name}", critpath=True)
        report = result.critpath
        assert report is not None, name
        assert report.validate() == [], name
        assert report.record["variant"] == name


def test_render_mentions_path_and_ceiling(single, multi):
    text = single.critpath.render()
    assert "critical path" in text
    assert "speedup ceiling" in text
    multi_text = multi.critpath.render()
    assert "round attribution" in multi_text


def test_write_roundtrips(single, tmp_path):
    import json

    path = tmp_path / "critpath.json"
    single.critpath.write(path)
    loaded = json.loads(path.read_text())
    assert validate_critpath(loaded) == []
    assert loaded == single.critpath.to_json()


# -- observability-only contract ---------------------------------------------

def test_analyzed_run_is_byte_identical(graph, single):
    plain = gpu_peel(graph)
    assert plain.critpath is None
    assert np.array_equal(plain.core, single.core)
    assert plain.simulated_ms == single.simulated_ms
    assert plain.counters == single.counters


def test_decomposer_threads_the_flag(graph):
    analyzed = KCoreDecomposer(
        mode="simulate", critpath=True
    ).decompose(graph)
    assert analyzed.critpath is not None
    assert analyzed.critpath.validate() == []
    fast = KCoreDecomposer(mode="fast", critpath=True).decompose(graph)
    assert fast.critpath is None


def test_critpathable_registry():
    critpathable = programs_taking("critpath")
    assert "gpu-ours" in critpathable
    assert "gpu-multi2" in critpathable
    assert "gpu-multi4" in critpathable
    assert "bz" not in critpathable
    assert critpathable == frozenset(
        {f"gpu-{name}" for name in variant_names()}
        | {"gpu-multi2", "gpu-multi4"}
    )


# -- tamper detection --------------------------------------------------------

def test_rejects_wrong_schema(record):
    record["schema"] = "repro.critpath/v0"
    assert any("schema" in p for p in validate_critpath(record))


def test_detects_tampered_node_cycles(record):
    record["nodes"][0]["cycles"] += 1.0
    assert validate_critpath(record) != []


def test_detects_tampered_accounting_total(record):
    record["accounting"]["total_cycles"] += 1.0
    assert any("total_cycles" in p for p in validate_critpath(record))


def test_detects_tampered_elapsed(record):
    record["elapsed_ms"] *= 1.001
    assert validate_critpath(record) != []


def test_detects_tampered_ceiling(record):
    record["whatif"][0]["speedup_ceiling"] *= 1.001
    assert any(
        "speedup_ceiling" in p for p in validate_critpath(record)
    )


def test_detects_projection_above_measured(record):
    row = record["whatif"][-1]
    row["projected_ms"] = row["measured_ms"] * 2.0
    assert validate_critpath(record) != []


def test_detects_tampered_floor(record):
    for agg in record["kernels"].values():
        agg["floor_cycles"] += 1.0
    assert validate_critpath(record) != []


def test_detects_negative_slack(record):
    record["nodes"][0]["lanes"][0]["slack_cycles"] = -1.0
    assert validate_critpath(record) != []


def test_detects_missing_scenario(record):
    record["whatif"] = record["whatif"][1:]
    assert any("must cover" in p for p in validate_critpath(record))


def test_detects_wrong_round_bound(multi_record):
    multi_record["rounds"][0]["bound"] = "mystery"
    assert validate_critpath(multi_record) != []


def test_detects_bound_histogram_mismatch(multi_record):
    histogram = multi_record["round_bounds"]
    cls = ROUND_BOUND_CLASSES[0]
    histogram[cls] = histogram.get(cls, 0) + 1
    assert any(
        "round_bounds" in p for p in validate_critpath(multi_record)
    )


# -- multi-GPU attribution ---------------------------------------------------

def test_every_round_is_classified(multi):
    record = multi.critpath.record
    rounds = record["rounds"]
    assert rounds, "multi-GPU run produced no sub-rounds"
    for rnd in rounds:
        assert rnd["bound"] in ROUND_BOUND_CLASSES
    histogram = {cls: 0 for cls in ROUND_BOUND_CLASSES}
    for rnd in rounds:
        histogram[rnd["bound"]] += 1
    assert record["round_bounds"] == histogram


def test_worker_tracks_are_self_describing(multi):
    tracks = {t["track"] for t in multi.critpath.record["tracks"]}
    assert {"gpu0", "gpu1"} <= tracks


def test_multi_trace_tracks_carry_device_names(graph):
    with tracing() as tr:
        multi_gpu_peel(graph, num_devices=2)
    kernel_tracks = {
        e["track"] for e in tr.events
        if e.get("cat") == "kernel" and "track" in e
    }
    assert {"gpu0", "gpu1"} <= kernel_tracks
    for event in tr.events:
        if event.get("cat") == "kernel":
            assert event["args"]["device"] == event["track"]


def test_straggler_floor_scales_with_devices(graph, multi):
    """A D-way partition's makespan floor is the run floor over D."""
    from repro.core.variants import get_variant
    from repro.gpusim.costmodel import CostModel
    from repro.gpusim.spec import DeviceSpec
    from repro.obs.critpath import kernel_floor_cycles
    from repro.staticheck.bounds import launch_env

    record = multi.critpath.record
    cfg = get_variant(record["variant"])
    spec = DeviceSpec()
    env = launch_env(
        graph.num_vertices, len(graph.neighbors), graph.max_degree,
        spec, cfg, None,
    )
    assert record["kernels"], "no kernels aggregated"
    for name, agg in record["kernels"].items():
        run_floor = kernel_floor_cycles(
            name, cfg, env, CostModel(), spec.num_sms, agg["launches"]
        )
        assert run_floor > 0.0
        assert agg["floor_cycles"] == run_floor / 2.0


# -- BFS inherits through the contract registry ------------------------------

def test_bfs_record_validates_with_zero_floor(graph):
    result = gpu_bfs(graph, source=0, critpath=True)
    report = result.critpath
    assert report is not None
    assert report.validate() == []
    assert report.record["algorithm"] == "gpu-bfs"
    # the bfs contract declares no floors: the bracket degenerates to
    # [0, measured] and still holds — no analyzer edits required
    for agg in report.record["kernels"].values():
        assert agg["floor_cycles"] == 0.0
    plain = gpu_bfs(graph, source=0)
    assert np.array_equal(plain.core, result.core)
    assert plain.simulated_ms == result.simulated_ms


# -- CLI ---------------------------------------------------------------------

def test_cli_writes_and_renders(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n0 2\n2 3\n1 3\n")
    out = tmp_path / "critpath.json"
    code = main([
        "--input", str(src), "--algorithm", "gpu-ours",
        "--critpath", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "speedup ceiling" in captured.out
    assert out.exists()
    import json

    assert validate_critpath(json.loads(out.read_text())) == []


def test_cli_rejects_non_critpathable(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n")
    assert main([
        "--input", str(src), "--algorithm", "bz", "--critpath",
    ]) == 2
    assert "critpath" in capsys.readouterr().err


# -- runreport merge ---------------------------------------------------------

def test_runreport_carries_and_checks_the_section(graph):
    from repro.obs.runreport import collect_run_report, validate_runreport

    report, _ = collect_run_report(
        graph, ["gpu-ours"], dataset="planted-150"
    )
    record = report.to_json()
    sec = record["sections"][0]
    assert sec["critpath"] is not None
    assert report.validate() == []
    tampered = copy.deepcopy(record)
    tampered["sections"][0]["critpath"]["elapsed_ms"] *= 1.001
    assert validate_runreport(tampered) != []


# -- flamegraph label hygiene ------------------------------------------------

def test_folded_frames_escape_reserved_characters():
    assert _frame("scan_kernel") == "scan_kernel"
    assert _frame("loop; drop table") == "loop,_drop_table"
    assert _frame("round\tk=3\n") == "round_k=3"
    assert _frame("  ") == "?"


def test_folded_output_stays_well_formed(single):
    profiled = single.profile
    assert profiled is not None
    for line in profiled.to_folded().strip().splitlines():
        # the count splits off at the LAST space (folded convention)
        stack, _, count = line.rpartition(" ")
        assert stack and count.isdigit()
        frames = stack.split(";")
        assert all(frames)
        # sanitised labels: root and kernel frames carry no whitespace
        # (only the module's own "round k=" frames may)
        assert " " not in frames[0] and " " not in frames[1]


def test_render_is_stable(single):
    assert render_critpath(single.critpath.record) == (
        single.critpath.render()
    )
