"""Both flush kernels of the loop-kernel replay against the reference.

The vectorized engine's loop executor (``repro.core.fastsim``) flushes
each batch of pending frontier events with one of two kernels, chosen
by the batch's event count: an event-by-event replay for small batches
and a numpy batch kernel for large ones.  Forcing the crossover to
either end runs every batch of a decomposition through one kernel, and
each must stay byte-identical to the reference interpreter.  A spy
records what the batches actually exercised, so every test also proves
it reached the case it names.
"""

from __future__ import annotations

import collections
from typing import Any, Set

import numpy as np
import pytest

import repro.core.fastsim as fastsim
from repro.core.host import gpu_peel
from repro.core.multigpu import multi_gpu_peel
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from tests.properties.test_engines import assert_byte_identical

#: crossover forcing every batch into one kernel (a batch holds at most
#: one event per warp, far fewer than a million)
CROSSOVER = {"_flush_batch": 1, "_flush_scalar": 1_000_000}


class Seen:
    """What the flushed batches of the runs under test exercised."""

    def __init__(self, forced: str) -> None:
        self.forced = forced
        self.calls: collections.Counter[str] = collections.Counter()
        self.reads: Set[int] = set()
        self.repeated_touch = 0


@pytest.fixture(params=sorted(CROSSOVER))
def seen(request: Any, monkeypatch: pytest.MonkeyPatch) -> Seen:
    """Force the parametrised kernel and spy on every flush."""
    record = Seen(request.param)
    monkeypatch.setattr(fastsim, "_BATCH_EVENTS", CROSSOVER[request.param])
    for name in CROSSOVER:
        real = getattr(fastsim, name)

        def spy(run: Any, real: Any = real, name: str = name) -> None:
            log = run.ev_rows
            flat, size = len(log.flat), log.size
            real(run)
            record.calls[name] += 1
            rows = np.concatenate([
                np.asarray(log.flat[flat:], dtype=np.int64).reshape(-1, 3),
                log.block[size : log.size],
            ])
            record.reads.update(rows[:, 2].tolist())
            offs = run.offsets.data
            touched = [
                run.neighbors.data[offs[rel] : offs[rel + 1]]
                for rel in rows[:, 1]
            ]
            flat = np.concatenate(touched) if touched else np.zeros(0)
            if np.unique(flat).size < flat.size:
                record.repeated_touch += 1

        monkeypatch.setattr(fastsim, name, spy)
    return record


def _only(seen: Seen) -> None:
    assert seen.calls[seen.forced] > 0
    assert sum(seen.calls.values()) == seen.calls[seen.forced]


def _shuffled(graph: CSRGraph, seed: int) -> CSRGraph:
    """The same graph with every adjacency slice in random order."""
    rng = np.random.default_rng(seed)
    neighbors = np.array(graph.neighbors)
    offs = graph.offsets
    for v in range(graph.num_vertices):
        neighbors[offs[v] : offs[v + 1]] = rng.permutation(
            neighbors[offs[v] : offs[v + 1]]
        )
    return CSRGraph(offs.copy(), neighbors)


def _agree(graph: CSRGraph, variant: str) -> None:
    ref = gpu_peel(graph, variant=variant, engine="reference")
    vec = gpu_peel(graph, variant=variant, engine="vectorized")
    assert_byte_identical(ref, vec)
    assert vec.counters["engine.served.vectorized"] == (
        vec.counters["kernel.scan.launches"]
        + vec.counters["kernel.loop.launches"]
    )


@pytest.mark.parametrize("variant", ["ours", "bc", "ec+sm"])
def test_unsorted_adjacency_slices(seen: Seen, variant: str) -> None:
    graph = _shuffled(gen.erdos_renyi(300, 8.0, seed=5), seed=1)
    offs = graph.offsets
    assert any(
        np.any(np.diff(graph.neighbors[offs[v] : offs[v + 1]]) < 0)
        for v in range(graph.num_vertices)
    )
    _agree(graph, variant)
    _only(seen)


@pytest.mark.parametrize("variant", ["ours", "vp"])
def test_batch_touching_a_vertex_more_than_once(
    seen: Seen, variant: str
) -> None:
    """Spokes of one hub share it: a batch decrements it once per event
    until it reaches ``k`` and is appended by the touch that sees
    ``k + 1``."""
    graph = gen.hub_and_spokes(
        400, num_hubs=3, hub_degree_fraction=0.4, tail_degree=2.0, seed=3
    )
    _agree(graph, variant)
    _only(seen)
    assert seen.repeated_touch > 0


@pytest.mark.parametrize("variant", ["sm", "bc+sm", "ec+sm"])
def test_shared_window_spill(seen: Seen, variant: str) -> None:
    """A tree peels in one long cascade, so each block appends past its
    32-slot shared window and reads back from both sides of it."""
    _agree(gen.random_tree(500, seed=2), variant)
    _only(seen)
    assert {fastsim._READ_WINDOW, fastsim._READ_SPILL} <= seen.reads


@pytest.mark.parametrize("variant", ["vp", "bc+vp", "ec+vp"])
def test_prefetched_values(seen: Seen, variant: str) -> None:
    _agree(gen.planted_core(300, 24, 10, 3.0, seed=4), variant)
    _only(seen)
    assert seen.reads == {fastsim._READ_VALUE}


@pytest.mark.parametrize("num_devices", [2, 3])
def test_multi_gpu_own_range(seen: Seen, num_devices: int) -> None:
    """Workers sweep a CSR slice indexed from their range's start and
    never append (the ownership window is empty)."""
    graph = gen.barabasi_albert(300, 4, seed=6)
    ref = multi_gpu_peel(graph, num_devices=num_devices, engine="reference")
    vec = multi_gpu_peel(graph, num_devices=num_devices, engine="vectorized")
    assert_byte_identical(ref, vec)
    _only(seen)
