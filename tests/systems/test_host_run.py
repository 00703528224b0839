"""The GPU system emulations run through the shared host skeleton.

``repro.core.driver.HostRun`` attaches every observer and assembles
every device-backed result, the emulations' included; these pin what a
system run keeps from its own conventions on that path.
"""

from __future__ import annotations

import pytest

from repro.core.host import gpu_peel
from repro.errors import ReproError
from repro.gpusim.device import Device
from repro.graph import datasets
from repro.obs.tracer import Tracer, tracing
from repro.systems import (
    gswitch_decompose,
    gunrock_decompose,
    medusa_decompose,
    vetga_decompose,
)

SYSTEMS = {
    "gunrock": gunrock_decompose,
    "gswitch": gswitch_decompose,
    "vetga": vetga_decompose,
    "medusa-peel": medusa_decompose,
}


@pytest.fixture(params=sorted(SYSTEMS))
def system(request):
    return request.param, SYSTEMS[request.param]


def test_observed_run_keeps_the_system_conventions(system, fig1_graph_only):
    name, run = system
    result = run(fig1_graph_only, sanitize=True, profile=True, memtrace=True)
    assert result.algorithm == name
    # no variant: the emulations launch none
    assert result.memtrace.variant is None
    assert result.profile.variant is None
    assert result.memtrace.algorithm == name
    assert [w.worker for w in result.memtrace.workers] == ["gpu0"]
    assert not any(key.startswith("engine.") for key in result.counters)
    # sanitize is the static lint of the emulation plus the shared base
    assert result.sanitizer.modules_linted == 2
    assert result.sanitizer.launches_checked == 0


def test_prebuilt_device_prior_allocation_is_memtrace_base(
    system, fig1_graph_only
):
    _, run = system
    fresh = run(fig1_graph_only, memtrace=True)
    device = Device()
    device.malloc("prior", 1000)
    prior = device.memory.in_use
    shared = run(fig1_graph_only, device=device, memtrace=True)
    (worker,) = shared.memtrace.workers
    assert worker.base_bytes == prior
    assert worker.peak.bytes == fresh.memtrace.peak_bytes + 1000 * 4
    assert shared.core.tolist() == fresh.core.tolist()
    assert shared.counters == fresh.counters
    assert shared.memtrace.clean


def test_traced_run_mirrors_its_counters_on_the_tracer(
    system, fig1_graph_only
):
    _, run = system
    tracer = Tracer()
    with tracing(tracer):
        result = run(fig1_graph_only)
    assert result.trace is tracer
    # the device's own device.* counters are live on the tracer; the
    # run's other counters are put there when the result is assembled
    for key, value in result.counters.items():
        if not key.startswith("device."):
            assert tracer.counters[key] == value, key
    assert "host.rounds" in tracer.counters


def test_unknown_medusa_program_is_rejected_before_any_device_work(
    fig1_graph_only,
):
    device = Device()
    with pytest.raises(ReproError) as info:
        medusa_decompose(fig1_graph_only, program="typo", device=device,
                         memtrace=True)
    assert "'peel'" in str(info.value) and "'mpm'" in str(info.value)
    assert device.memtracer is None
    assert device.memory.live() == ()


def test_budget_with_prebuilt_device_is_rejected(system, fig1_graph_only):
    _, run = system
    with pytest.raises(ReproError, match="time_budget_ms"):
        run(fig1_graph_only, device=Device(), time_budget_ms=1.0)


@pytest.fixture(scope="module")
def web_google():
    return datasets.load("web-Google")


def test_run_after_gpu_peel_on_a_shared_device_sees_only_itself(
    system, web_google
):
    name, run = system
    fresh = run(web_google)
    device = Device()
    device.malloc("prior", 1000)
    gpu_peel(web_google, device=device)
    resident = device.memory.live()
    shared = run(web_google, device=device, memtrace=True)
    # counted from the run's own start, bit for bit a fresh run's
    assert list(shared.counters.items()) == list(fresh.counters.items())
    # memtrace frees only what the run allocated
    assert device.memory.live() == resident
    assert "prior" in resident
    assert shared.memtrace.clean
