"""The benchmark's workloads: seeded input graphs and the programs run on them.

Each workload is one graph, rebuilt from public
:mod:`repro.graph.generators` calls and the benchmark's ``--seed``, plus
the list of decompositions one *pass* runs on it.  Seed 0 reproduces the
registry graph (``datasets.load("trackers")`` / ``"web-Google"``), so the
simulated figures line up with Tables II/III; another seed shifts every
generator seed by ``SEED_STRIDE`` and gives a same-shaped graph.

A program takes the graph and an optional :class:`probes.Probe`.  Without
a probe it calls the public driver exactly as a user would; with one, it
routes the same call through the probe's timed device or engine, which
must not change any simulated result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.core.host import gpu_peel
from repro.core.multigpu import multi_gpu_peel
from repro.core.variants import variant_names
from repro.gpusim.spec import DeviceSpec
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.result import DecompositionResult

from probes import Probe

__all__ = [
    "BULK_SPEC",
    "Program",
    "WORKLOADS",
    "Workload",
    "bulk_ba",
    "trackers",
    "web_google",
]

#: distance between the generator seeds of consecutive benchmark seeds;
#: larger than any offset a recipe adds to its base seed, so two
#: benchmark seeds never share a random stream
SEED_STRIDE = 1000

#: the enlarged device of ``bulk-ba``: the default SimP100 (3.2 MB,
#: 16,384-slot block buffers) cannot hold a 2.5e5-edge graph; this one
#: leaves about 2.5x headroom on memory and on the largest per-block
#: frontier for every seed
BULK_SPEC = DeviceSpec(
    name="SimP100-bulk",
    global_memory_bytes=8 * 1024 * 1024,
    block_buffer_capacity=32_768,
)


def trackers(seed: int = 0) -> CSRGraph:
    """The ``trackers`` registry recipe: 22k vertices, ten medium hubs,
    one hub adjacent to 70% of the graph, a 220-vertex dense nucleus."""
    s = 118 + SEED_STRIDE * seed
    n = 22_000
    hubs = gen.hub_and_spokes(
        n, num_hubs=10, hub_degree_fraction=0.3, tail_degree=8.0, seed=s
    )
    mega = gen.hub_and_spokes(
        n, num_hubs=1, hub_degree_fraction=0.7, tail_degree=0.0, seed=s + 2
    )
    core = gen.planted_core(
        n, core_size=220, core_degree=45, background_degree=0.0, seed=s + 1
    )
    return gen.union_graphs(hubs, mega, core)


def web_google(seed: int = 0) -> CSRGraph:
    """The ``web-Google`` registry recipe: an R-MAT skeleton over 2,048
    vertices plus a planted 90-vertex nucleus on 2,500."""
    s = 104 + SEED_STRIDE * seed
    web = gen.rmat(11, edge_factor=5.0, seed=s)
    core = gen.planted_core(
        2_500, core_size=90, core_degree=18, background_degree=2.0,
        seed=s + 1,
    )
    return gen.union_graphs(web, core)


def bulk_ba(seed: int = 0) -> CSRGraph:
    """Barabasi-Albert, n=50,000, attach=5: ~2.5e5 edges in 6 rounds."""
    return gen.barabasi_albert(50_000, attach=5, seed=SEED_STRIDE * seed)


Runner = Callable[[CSRGraph, Optional[Probe]], DecompositionResult]


@dataclass(frozen=True)
class Program:
    """One decomposition of a pass."""

    name: str
    run: Runner
    multi_gpu: bool = False


def peel(
    variant: str, spec: DeviceSpec | None = None, **observers: bool
) -> Program:
    """``gpu_peel`` of ``variant``; traced, on the probe's timed device."""
    label = "+".join([f"gpu-{variant}", *observers])

    def run(graph: CSRGraph, probe: Probe | None) -> DecompositionResult:
        if probe is None:
            return gpu_peel(graph, variant, spec=spec, **observers)
        return gpu_peel(graph, variant, device=probe.device(spec), **observers)

    return Program(label, run)


def multi(num_devices: int, **observers: bool) -> Program:
    """``multi_gpu_peel``; traced, every worker on the probe's engine."""
    label = "+".join([f"gpu-multi{num_devices}", *observers])

    def run(graph: CSRGraph, probe: Probe | None) -> DecompositionResult:
        return multi_gpu_peel(
            graph, num_devices=num_devices,
            engine=probe.engine() if probe is not None else None,
            **observers,
        )

    return Program(label, run, multi_gpu=True)


@dataclass(frozen=True)
class Workload:
    """A graph recipe and the programs one pass runs on it."""

    name: str
    why: str
    build: Callable[[int], CSRGraph]
    programs: Tuple[Program, ...]
    #: measure ``observers.<name>.overhead_x`` on this workload's graph
    observer_costs: bool = False


_CHECKED = dict(report=True, critpath=True, staticheck=True, dataflow=True)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hub-skew",
            "one 17k-degree hub and 64 rounds of small frontiers: host "
            "time is the engine's per-edge flush replay, the one VP win",
            trackers,
            (peel("ours"), peel("vp")),
        ),
        Workload(
            "bulk-ba",
            "2.5e5 edges peeled in 6 rounds of large frontiers: graph "
            "generation and CSR build outweigh the peel",
            bulk_ba,
            (peel("ours", spec=BULK_SPEC),),
        ),
        Workload(
            "observed-matrix",
            "many short launches with every observer on, reference "
            "fallback (vw2) and the multi-GPU coordinator",
            web_google,
            tuple(peel(v, **_CHECKED) for v in (*variant_names(), "vw2"))
            + (
                multi(2, critpath=True, memtrace=True),
                multi(4, critpath=True, memtrace=True),
            ),
            observer_costs=True,
        ),
    )
}
