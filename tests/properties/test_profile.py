"""Profiler invariants under random graphs and schedules (hypothesis).

The profiler's contract mirrors the tracer's and sanitizer's: it is
*observability-only*.  Whatever graph, variant, and preemption schedule
the strategy draws, a profiled run must be byte-identical in simulated
time, counters, and core numbers to an unprofiled one — and the report
it produces must satisfy the ``repro.profile/v1`` arithmetic
invariants (the validator re-derives the partition of busy cycles that
``CostModel.block_cycles`` defines).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.host import GpuPeelOptions, gpu_peel
from repro.graph import generators as gen
from repro.profile import validate_profile

VARIANT_POOL = ("ours", "sm", "vp", "bc", "ec", "ec+vp", "vw2")


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
        preempt_prob=draw(st.sampled_from([0.0, 0.3])),
        seed=draw(st.integers(min_value=0, max_value=1000)),
    )
    return graph, variant, options


@given(peel_setups())
@settings(max_examples=10, deadline=None)
def test_profiling_never_perturbs_simulated_time(setup):
    graph, variant, options = setup
    profiled = gpu_peel(graph, variant, options=options, profile=True)
    plain = gpu_peel(graph, variant, options=options)
    assert plain.profile is None
    assert profiled.simulated_ms == plain.simulated_ms
    assert profiled.rounds == plain.rounds
    assert profiled.counters == plain.counters
    assert np.array_equal(profiled.core, plain.core)


@given(peel_setups())
@settings(max_examples=10, deadline=None)
def test_profile_invariants_hold_for_any_run(setup):
    graph, variant, options = setup
    result = gpu_peel(graph, variant, options=options, profile=True)
    report = result.profile
    assert validate_profile(report.to_json()) == []
    assert len(report.launches) == 2 * result.rounds
    # the summary's duration is the device's total kernel time
    assert report.summary().cycles == result.counters["device.cycles"]
