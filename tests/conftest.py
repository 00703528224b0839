"""Shared fixtures: reference graphs and ground-truth core numbers, the
pinned table of which programs take which observer keyword, and one
measurement of the program-matrix gate."""

from __future__ import annotations

import importlib.util
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import algorithm_names, supported_keywords
from repro.cpu.bz import bz_core_numbers
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.examples import fig1_graph, k_clique, path_graph, triangle


@pytest.fixture
def fig1():
    """The paper's Fig. 1 example: ``(graph, expected_core_numbers)``."""
    return fig1_graph()


@pytest.fixture
def fig1_graph_only():
    return fig1_graph()[0]


def small_graph_battery() -> list[tuple[str, CSRGraph]]:
    """A diverse battery of small graphs for agreement tests.

    Covers: empty/trivial graphs, trees (core 1), cliques, structured
    graphs with known cores, random graphs of several shapes, isolated
    vertices, and skew.
    """
    return [
        ("empty", CSRGraph.empty(0)),
        ("isolated", CSRGraph.empty(5)),
        ("single-edge", CSRGraph.from_edges([(0, 1)])),
        ("triangle", triangle()),
        ("path", path_graph(20)),
        ("clique6", k_clique(6)),
        ("fig1", fig1_graph()[0]),
        ("star", CSRGraph.from_edges([(0, i) for i in range(1, 30)])),
        ("ring-of-cliques", gen.ring_of_cliques(4, 5)),
        ("grid", gen.grid_2d(6, 7)),
        ("tree", gen.random_tree(60, seed=1)),
        ("er-sparse", gen.erdos_renyi(120, 3.0, seed=2)),
        ("er-dense", gen.erdos_renyi(80, 14.0, seed=3)),
        ("ba", gen.barabasi_albert(100, 4, seed=4)),
        ("powerlaw", gen.power_law_configuration(150, 2.3, d_min=2, seed=5)),
        ("planted", gen.planted_core(150, core_size=25, core_degree=10, seed=6)),
        ("hubs", gen.hub_and_spokes(200, num_hubs=2, seed=7)),
        ("clique+leaf", CSRGraph.from_edges(
            [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5)]
        )),
    ]


BATTERY = small_graph_battery()
BATTERY_IDS = [name for name, _ in BATTERY]


@pytest.fixture(params=BATTERY, ids=BATTERY_IDS)
def battery_graph(request):
    """Parametrised over the whole battery: ``(graph, reference_core)``."""
    _, graph = request.param
    return graph, bz_core_numbers(graph)


@pytest.fixture
def er_graph():
    """A moderate random graph with its reference decomposition."""
    graph = gen.erdos_renyi(250, 6.0, seed=11)
    return graph, bz_core_numbers(graph)


def assert_cores_equal(core: np.ndarray, reference: np.ndarray, label: str = ""):
    """Readable comparison helper for core-number arrays."""
    core = np.asarray(core)
    reference = np.asarray(reference)
    assert core.shape == reference.shape, (
        f"{label}: shape {core.shape} != {reference.shape}"
    )
    if not np.array_equal(core, reference):
        bad = np.flatnonzero(core != reference)
        detail = ", ".join(
            f"v{int(v)}: got {int(core[v])}, want {int(reference[v])}"
            for v in bad[:8]
        )
        raise AssertionError(
            f"{label}: {bad.size} wrong core numbers ({detail})"
        )


# -- which programs take which observer keyword ------------------------------

_PEEL = frozenset({
    "gpu-ours", "gpu-sm", "gpu-vp", "gpu-bc", "gpu-bc+sm", "gpu-bc+vp",
    "gpu-ec", "gpu-ec+sm", "gpu-ec+vp",
})
_MULTI_GPU = frozenset({"gpu-multi2", "gpu-multi4"})
_SYSTEMS = frozenset({
    "vetga", "medusa-mpm", "medusa-peel", "gunrock", "gswitch",
})
_MULTICORE = frozenset({
    "park", "park-serial", "pkc", "pkc-serial", "pkc-o", "pkc-o-serial",
    "mpm", "mpm-serial",
})

#: observer keyword -> every program whose runner takes it, written out
#: so that a signature edit which drops (or adds) an observer fails
OBSERVER_PROGRAMS = {
    "sanitize": _PEEL | _MULTI_GPU | _SYSTEMS | {"fast"},
    "staticheck": _PEEL,
    "dataflow": _PEEL,
    "profile": _PEEL | _SYSTEMS | _MULTICORE,
    "engine": _PEEL | _MULTI_GPU,
    "memtrace": _PEEL | _MULTI_GPU | _SYSTEMS | _MULTICORE
    | {"semi-external"},
    "critpath": _PEEL | _MULTI_GPU,
}


def programs_taking(keyword: str) -> frozenset[str]:
    """The registry's own answer: programs whose runner takes ``keyword``."""
    return frozenset(
        name for name in algorithm_names()
        if keyword in supported_keywords(name)
    )


# -- the program-matrix gate -------------------------------------------------

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="session")
def matrix_gate():
    """``scripts/check_matrix.py`` loaded the way CI runs it, with one
    full measurement of the committed baseline.

    The gate's ``measure`` is then replaced by that measurement (less
    its ``trackers`` and ``it-2004`` runs under ``--quick``), so
    every test drives ``gate.main`` end to end (exit code, messages,
    artifacts, trajectory) against a doctored baseline or a doctored
    measurement without re-running the matrix.  ``calls`` counts the
    runs the measurement made: ``("collect", programs)``,
    ``("plain", program)`` and ``("gpu_peel", variant, instrumented)``.
    """
    spec = importlib.util.spec_from_file_location(
        "check_matrix", SCRIPTS / "check_matrix.py"
    )
    gate = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gate  # the gate's dataclass looks itself up
    spec.loader.exec_module(gate)
    baseline = json.loads(gate.DEFAULT_BASELINE.read_text())
    calls: Counter = Counter()
    collect, decompose, gpu_peel = (
        gate.collect_run_report, gate.decompose, gate.gpu_peel
    )

    def spy_collect(graph, programs, **kwargs):
        calls["collect", tuple(programs)] += 1
        return collect(graph, programs, **kwargs)

    def spy_decompose(graph, name, **kwargs):
        calls["plain", name] += 1
        return decompose(graph, name, **kwargs)

    def spy_gpu_peel(graph, variant, **kwargs):
        calls["gpu_peel", variant, bool(kwargs)] += 1
        return gpu_peel(graph, variant=variant, **kwargs)

    gate.collect_run_report = spy_collect
    gate.decompose = spy_decompose
    gate.gpu_peel = spy_gpu_peel
    try:
        matrix = gate.measure(baseline, False)
    finally:
        gate.collect_run_report = collect
        gate.decompose = decompose
        gate.gpu_peel = gpu_peel
    quick = replace(matrix, vp={}, oom={})
    gate.measure = lambda baseline, skip: quick if skip else matrix
    return SimpleNamespace(gate=gate, matrix=matrix, calls=calls)
