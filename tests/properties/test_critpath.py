"""Critical-path analyzer invariants under random graphs (hypothesis).

The analyzer's contract has two halves.  It is *observability-only*:
whatever graph and variant the strategy draws, an analyzed run must be
byte-identical in simulated time, counters, and core numbers to a
plain one.  And its arithmetic is *exact*: the critical path never
exceeds the elapsed window, slack is never negative, and every what-if
projection sits between the static floor and the measured time — the
``repro.critpath/v1`` validator re-derives all of it with zero
tolerance.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.host import GpuPeelOptions, gpu_peel
from repro.core.multigpu import multi_gpu_peel
from repro.graph import generators as gen
from repro.obs.critpath import ROUND_BOUND_CLASSES

VARIANT_POOL = ("ours", "sm", "vp", "bc", "ec", "ec+vp")


@st.composite
def peel_setups(draw):
    graph = gen.planted_core(
        110,
        core_size=draw(st.integers(min_value=8, max_value=25)),
        core_degree=7,
        background_degree=3.0,
        seed=draw(st.integers(min_value=0, max_value=50)),
    )
    variant = draw(st.sampled_from(VARIANT_POOL))
    options = GpuPeelOptions(
        seed=draw(st.integers(min_value=0, max_value=1000)),
    )
    return graph, variant, options


@given(peel_setups())
@settings(max_examples=10, deadline=None)
def test_analysis_never_perturbs_the_run(setup):
    graph, variant, options = setup
    analyzed = gpu_peel(graph, variant, options=options, critpath=True)
    plain = gpu_peel(graph, variant, options=options)
    assert plain.critpath is None
    assert analyzed.simulated_ms == plain.simulated_ms
    assert analyzed.rounds == plain.rounds
    assert analyzed.counters == plain.counters
    assert np.array_equal(analyzed.core, plain.core)


@given(peel_setups())
@settings(max_examples=10, deadline=None)
def test_record_invariants_hold_for_any_run(setup):
    graph, variant, options = setup
    result = gpu_peel(graph, variant, options=options, critpath=True)
    report = result.critpath
    assert report.validate() == []
    record = report.record

    # the critical path never exceeds the elapsed window: summing the
    # on-path node cycles (plus launch overhead and pre-window base
    # cycles) reproduces the elapsed time exactly
    clock = record["clock"]
    path_cycles = sum(
        record["nodes"][i]["cycles"] for i in record["critical_path"]
    )
    assert path_cycles <= record["accounting"]["total_cycles"]
    path_ms = (
        record["accounting"]["total_cycles"]
        / (clock["clock_ghz"] * 1e6)
        + record["kernel_launches"] * clock["kernel_launch_us"] / 1000.0
    )
    assert path_ms <= record["elapsed_ms"] or path_ms == record[
        "elapsed_ms"
    ]

    # slack is never negative, anywhere
    for node in record["nodes"]:
        assert node["slack_cycles"] >= 0.0
        assert node["lane_slack_cycles"] >= 0.0
        for lane in node["lanes"]:
            assert lane["slack_cycles"] >= 0.0

    # every projection is bracketed: floor <= projected <= measured
    for row in record["whatif"]:
        assert row["projected_ms"] <= row["measured_ms"]
        assert row["floor_ms"] <= row["projected_ms"]
        assert row["speedup_ceiling"] >= 1.0


@given(
    st.integers(min_value=8, max_value=20),
    st.integers(min_value=0, max_value=30),
    st.sampled_from([2, 4]),
)
@settings(max_examples=10, deadline=None)
def test_multi_gpu_rounds_always_classified(core_size, seed, devices):
    graph = gen.planted_core(
        110, core_size=core_size, core_degree=7,
        background_degree=3.0, seed=seed,
    )
    analyzed = multi_gpu_peel(graph, num_devices=devices, critpath=True)
    plain = multi_gpu_peel(graph, num_devices=devices)
    assert analyzed.simulated_ms == plain.simulated_ms
    assert analyzed.counters == plain.counters
    assert np.array_equal(analyzed.core, plain.core)

    report = analyzed.critpath
    assert report.validate() == []
    record = report.record
    assert record["num_devices"] == devices
    for rnd in record["rounds"]:
        assert rnd["bound"] in ROUND_BOUND_CLASSES
    assert sum(record["round_bounds"].values()) == len(record["rounds"])
    for row in record["whatif"]:
        assert row["floor_ms"] <= row["projected_ms"] <= row[
            "measured_ms"
        ]
