"""Memtrace invariants under random graphs and schedules (hypothesis).

Memory telemetry shares the tracer/sanitizer/profiler contract: it is
*observability-only*.  Whatever graph, variant, and preemption schedule
the strategy draws, a traced run must be byte-identical in simulated
time, counters, core numbers, and peak bytes to an untraced one — and
the report must satisfy the ``repro.memtrace/v1`` arithmetic
invariants, above all that the peak attribution breakdown sums
*exactly* to the device's reported peak.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.host import GpuPeelOptions, gpu_peel
from repro.graph import generators as gen
from repro.memtrace import validate_memtrace

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
def test_memtrace_never_perturbs_the_run(setup):
    graph, variant, options = setup
    traced = gpu_peel(graph, variant, options=options, memtrace=True)
    plain = gpu_peel(graph, variant, options=options)
    assert plain.memtrace is None
    assert traced.simulated_ms == plain.simulated_ms
    assert traced.rounds == plain.rounds
    assert traced.counters == plain.counters
    assert traced.peak_memory_bytes == plain.peak_memory_bytes
    assert np.array_equal(traced.core, plain.core)


@given(peel_setups())
@settings(max_examples=10, deadline=None)
def test_memtrace_invariants_hold_for_any_run(setup):
    graph, variant, options = setup
    result = gpu_peel(graph, variant, options=options, memtrace=True)
    report = result.memtrace
    assert validate_memtrace(report.to_json()) == []
    assert report.peak_bytes == result.peak_memory_bytes
    assert sum(report.breakdown().values()) == result.peak_memory_bytes
    assert report.clean  # a traced peel frees everything it allocates
