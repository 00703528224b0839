"""Kernel profiler: speed-of-light attribution, schema, aggregation.

The load-bearing assertions tie the profiler's numbers back to the
cost model itself: each launch's busy cycles must equal the sum of
``CostModel.block_cycles`` over its per-block timings, the dominated
buckets plus barrier cycles must partition that busy time exactly, and
the launch duration must reproduce the round-robin busiest-SM figure.
"""

from __future__ import annotations

import pytest

from repro.core.decomposer import KCoreDecomposer
from repro.core.host import gpu_peel
from repro.core.variants import EXTENSION_VARIANTS, VARIANTS
from repro.gpusim.device import Device
from repro.graph import generators as gen
from repro.graph.examples import fig1_graph
from repro.profile import (
    PIPELINES,
    KernelProfiler,
    ProfileReport,
    validate_profile,
)

ALL_VARIANTS = tuple(VARIANTS) + tuple(EXTENSION_VARIANTS)


@pytest.fixture(scope="module")
def graph():
    return gen.planted_core(
        150, core_size=25, core_degree=8, background_degree=3.0, seed=7
    )


@pytest.fixture(scope="module")
def profiled(graph):
    """One profiled run with the device kept for cross-checking."""
    device = Device()
    device.profiler = KernelProfiler()
    result = gpu_peel(graph, variant="ours", device=device)
    return device, result


# -- every variant produces a valid repro.profile/v1 report ------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_variant_produces_valid_report(variant, graph):
    result = gpu_peel(graph, variant=variant, profile=True)
    report = result.profile
    assert isinstance(report, ProfileReport)
    assert validate_profile(report.to_json()) == []
    assert report.variant == variant
    assert report.algorithm == f"gpu-{variant}"
    # one scan + one loop launch per round, all annotated with a round
    assert len(report.launches) == 2 * result.rounds
    assert {p.round_index for p in report.launches} == set(
        range(result.rounds)
    )


# -- arithmetic consistency with the cost model ------------------------------


def test_busy_cycles_sum_block_cycles(profiled):
    device, result = profiled
    cost = device.cost_model
    launches = result.profile.launches
    assert len(device.launch_log) == len(launches)
    for stats, launch in zip(device.launch_log, launches):
        timings = stats.block_timings
        assert timings is not None
        busy = sum(cost.block_cycles(t) for t in timings)
        assert launch.busy_cycles == pytest.approx(busy, rel=1e-12)
        # the dominated buckets + barrier partition busy exactly
        partition = sum(launch.dominated.values()) + launch.barrier_cycles
        assert partition == pytest.approx(busy, rel=1e-12)
        # the per-pipeline sums are the cost model's own terms
        terms = [cost.pipeline_terms(t) for t in timings]
        assert launch.compute_cycles == pytest.approx(
            sum(t[0] for t in terms), rel=1e-12
        )
        assert launch.memory_cycles == pytest.approx(
            sum(t[1] for t in terms), rel=1e-12
        )
        assert launch.latency_cycles == pytest.approx(
            sum(t[2] for t in terms), rel=1e-12
        )


def test_launch_cycles_reproduce_busiest_sm(profiled):
    device, result = profiled
    cost = device.cost_model
    num_sms = device.spec.num_sms
    for stats, launch in zip(device.launch_log, result.profile.launches):
        sm_load = [0.0] * num_sms
        for i, timing in enumerate(stats.block_timings):
            sm_load[i % num_sms] += cost.block_cycles(timing)
        assert launch.cycles == stats.cycles == max(sm_load)


def test_bound_is_argmax_of_dominated(profiled):
    _, result = profiled
    for launch in result.profile.launches:
        assert launch.bound in PIPELINES
        assert launch.dominated[launch.bound] == max(
            launch.dominated.values()
        )
        for pipeline in PIPELINES:
            assert launch.sol_pct[pipeline] == pytest.approx(
                100.0 * getattr(launch, f"{pipeline}_cycles")
                / launch.busy_cycles
            )


def test_efficiency_figures_in_range(profiled):
    _, result = profiled
    for launch in result.profile.launches:
        assert 0.0 <= launch.achieved_occupancy <= 1.0
        assert 0.0 <= launch.divergence_efficiency <= 1.0
        assert 0.0 <= launch.coalescing_efficiency <= 1.0
        assert launch.atomic_share >= 0.0


# -- aggregation --------------------------------------------------------------


def test_rounds_partition_the_run(profiled):
    _, result = profiled
    report = result.profile
    rounds = report.rounds()
    assert len(rounds) == result.rounds
    assert sum(agg.cycles for agg in rounds) == pytest.approx(
        report.summary().cycles
    )
    assert all(agg.launches == 2 for agg in rounds)


def test_kernel_aggregation_covers_all_launches(profiled):
    _, result = profiled
    report = result.profile
    kernels = report.kernels()
    assert set(kernels) == {"scan_kernel", "loop_kernel"}
    assert sum(agg.launches for agg in kernels.values()) == len(
        report.launches
    )
    total = report.summary()
    assert total.busy_cycles == pytest.approx(
        sum(agg.busy_cycles for agg in kernels.values())
    )


def test_render_prints_sol_table(profiled):
    _, result = profiled
    text = result.profile.render()
    assert "Speed-of-Light" in text
    assert "scan_kernel" in text and "loop_kernel" in text
    assert "total" in text
    assert "heaviest rounds:" in text


# -- flamegraph ---------------------------------------------------------------


def test_folded_stacks_partition_busy_cycles(profiled):
    _, result = profiled
    report = result.profile
    lines = report.to_folded().strip().splitlines()
    assert lines
    total = 0
    for line in lines:
        stack, weight = line.rsplit(" ", 1)
        frames = stack.split(";")
        assert frames[0] == report.algorithm
        assert frames[1] in ("scan_kernel", "loop_kernel")
        assert frames[2].startswith("round k=")
        assert frames[3] in PIPELINES + ("barrier",)
        assert int(weight) > 0
        total += int(weight)
    # integer rounding per stack; the root width is the run's busy time
    assert total == pytest.approx(
        report.summary().busy_cycles, abs=len(lines)
    )


def test_write_folded(profiled, tmp_path):
    _, result = profiled
    path = tmp_path / "profile.folded"
    result.profile.write_folded(path)
    assert path.read_text() == result.profile.to_folded()


# -- wiring and degradation ---------------------------------------------------


def test_record_launch_requires_collected_timings():
    graph, _ = fig1_graph()
    device = Device()  # no profiler: launches drop their timings
    result = gpu_peel(graph, variant="ours", device=device)
    assert result.profile is None
    stats = device.launch_log[0]
    assert stats.block_timings is None
    with pytest.raises(ValueError, match="collect_timings"):
        KernelProfiler().record_launch(
            "scan_kernel", stats, 4, 512, device.spec, device.cost_model
        )


def test_decomposer_simulate_mode_attaches_profile():
    graph, _ = fig1_graph()
    result = KCoreDecomposer(mode="simulate", profile=True).decompose(graph)
    assert isinstance(result.profile, ProfileReport)
    assert validate_profile(result.profile.to_json()) == []


def test_decomposer_fast_mode_has_no_profile():
    graph, _ = fig1_graph()
    result = KCoreDecomposer(mode="fast", profile=True).decompose(graph)
    assert result.profile is None


def test_profile_off_by_default():
    graph, _ = fig1_graph()
    assert gpu_peel(graph).profile is None


# -- validator ----------------------------------------------------------------


@pytest.fixture(scope="module")
def valid_record(profiled):
    return profiled[1].profile.to_json()


def _corrupt(record, mutate):
    import copy

    clone = copy.deepcopy(record)
    mutate(clone)
    return clone


def test_validator_rejects_wrong_schema(valid_record):
    bad = _corrupt(valid_record, lambda r: r.update(schema="nope/v0"))
    assert any("schema" in e for e in validate_profile(bad))


def test_validator_rejects_broken_partition(valid_record):
    def break_dominated(record):
        record["summary"]["dominated"]["latency"] += 1000.0

    assert any(
        "partition" in e
        for e in validate_profile(_corrupt(valid_record, break_dominated))
    )


def test_validator_rejects_wrong_bound(valid_record):
    def flip_bound(record):
        summary = record["summary"]
        losers = [p for p in PIPELINES if p != summary["bound"]]
        summary["bound"] = losers[0]

    assert any(
        "bound" in e
        for e in validate_profile(_corrupt(valid_record, flip_bound))
    )


def test_validator_rejects_impossible_roofline(valid_record):
    def inflate_term(record):
        record["summary"]["terms"]["memory"] = (
            record["summary"]["busy_cycles"] * 10.0
        )

    assert any(
        "exceeds busy" in e
        for e in validate_profile(_corrupt(valid_record, inflate_term))
    )


def test_validator_accepts_the_real_thing(valid_record):
    assert validate_profile(valid_record) == []


# -- charge-based records (system emulations) --------------------------------


def test_simt_launches_are_flagged_simt(profiled):
    device, result = profiled
    assert {p.source for p in result.profile.launches} == {"simt"}
    assert all("source" in p.to_json() for p in result.profile.launches)


def test_record_charge_appends_coarse_record():
    profiler = KernelProfiler()
    profiler.record_charge("gunrock.advance", 1234.5, launches=3)
    (record,) = profiler.launches
    assert record.source == "charge"
    assert record.kernel == "gunrock.advance"
    assert record.cycles == 1234.5
    assert record.busy_cycles == 0.0
    assert record.bound == PIPELINES[0]
    assert record.grid_dim == 0 and record.block_dim == 0


def test_system_emulations_profile_via_charge_records():
    from repro.api import decompose

    graph, _ = fig1_graph()
    for name in ("gunrock", "gswitch", "medusa-peel", "vetga"):
        result = decompose(graph, name, profile=True)
        report = result.profile
        assert report is not None, name
        assert report.launches, name
        assert {p.source for p in report.launches} == {"charge"}, name
        assert validate_profile(report.to_json()) == [], name


def test_charge_labels_name_the_systems_phases():
    from repro.api import decompose

    graph, _ = fig1_graph()
    report = decompose(graph, "gunrock", profile=True).profile
    labels = {p.kernel for p in report.launches}
    assert any("advance" in label or "filter" in label for label in labels)
