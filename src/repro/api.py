"""Top-level convenience API and the algorithm registry.

``decompose(graph, algorithm=...)`` runs any program in the repository
by its Table III/IV name.  The registry is also what the benchmark
harness iterates over, so the set of names here *is* the set of columns
the paper's tables have.

Each entry is a :func:`functools.partial` of its program function, and
that function's signature is the one record of which keywords the
program takes: :func:`supported_keywords` reads it, and every layer
that asks "does this program support ``memtrace`` / ``critpath`` /
``engine`` / ..." (the CLI, the run-report collector, the bench
harness, the CI gates) asks it instead of keeping its own list.
"""

from __future__ import annotations

import inspect
import tempfile
from dataclasses import replace
from functools import lru_cache, partial
from typing import Any, Dict, FrozenSet, Tuple

from repro.core.fastpath import fast_decompose
from repro.core.host import gpu_peel
from repro.core.multigpu import multi_gpu_peel
from repro.core.variants import variant_names
from repro.cpu.bz import bz_decompose
from repro.cpu.external import SemiExternalConfig, decompose_graph_via_disk
from repro.cpu.mpm import mpm_decompose
from repro.cpu.naive import networkx_style_decompose
from repro.cpu.park import park_decompose
from repro.cpu.pkc import pkc_decompose
from repro.errors import UnknownAlgorithmError, UnsupportedKeywordError
from repro.graph.csr import CSRGraph
from repro.result import DecompositionResult
from repro.systems.gswitch import gswitch_decompose
from repro.systems.gunrock import gunrock_decompose
from repro.systems.medusa import medusa_decompose
from repro.systems.vetga import vetga_decompose

__all__ = [
    "ALGORITHMS",
    "algorithm_names",
    "decompose",
    "supported_keywords",
]

Runner = partial[DecompositionResult]


def _semi_external_runner(
    graph: CSRGraph,
    config: SemiExternalConfig | None = None,
    memtrace: bool = False,
) -> DecompositionResult:
    """Spill the graph to a temporary directory and run the disk path."""
    with tempfile.TemporaryDirectory() as work_dir:
        return decompose_graph_via_disk(
            graph, work_dir, config=config, memtrace=memtrace
        )


def _fast_runner(
    graph: CSRGraph, sanitize: bool = False
) -> DecompositionResult:
    result = fast_decompose(graph)
    if not sanitize:
        return result
    # the native path launches no kernels: sanitize degrades to the
    # static lint sweep over the shipped kernel sources
    from repro.sanitize.lint import lint_repo

    return replace(result, sanitizer=lint_repo())


def _build_registry() -> Dict[str, Runner]:
    registry: Dict[str, Runner] = {
        # the paper's own program and its fast native path
        "gpu-ours": partial(gpu_peel, variant="ours"),
        "fast": partial(_fast_runner),
        # CPU programs (Table IV)
        "networkx": partial(networkx_style_decompose),
        "bz": partial(bz_decompose),
        "park-serial": partial(park_decompose, parallel=False),
        "park": partial(park_decompose, parallel=True),
        "pkc-o-serial": partial(pkc_decompose, parallel=False, compact=False),
        "pkc-o": partial(pkc_decompose, parallel=True, compact=False),
        "mpm": partial(mpm_decompose, parallel=True),
        "mpm-serial": partial(mpm_decompose, parallel=False),
        "pkc-serial": partial(pkc_decompose, parallel=False, compact=True),
        "pkc": partial(pkc_decompose, parallel=True, compact=True),
        # the Section II-C semi-external (disk-streaming) model
        "semi-external": partial(_semi_external_runner),
        # GPU systems (Table III)
        "vetga": partial(vetga_decompose),
        "medusa-mpm": partial(medusa_decompose, program="mpm"),
        "medusa-peel": partial(medusa_decompose, program="peel"),
        "gunrock": partial(gunrock_decompose),
        "gswitch": partial(gswitch_decompose),
        # the Section VII future-work extension
        "gpu-multi2": partial(multi_gpu_peel, num_devices=2),
        "gpu-multi4": partial(multi_gpu_peel, num_devices=4),
    }
    # the ablation variants (Table II): gpu-ours, gpu-sm, gpu-vp, ...
    for name in variant_names():
        registry.setdefault(f"gpu-{name}", partial(gpu_peel, variant=name))
    return registry


#: name -> runner for every program in the repository
ALGORITHMS: Dict[str, Runner] = _build_registry()


def algorithm_names() -> Tuple[str, ...]:
    """All registered program names."""
    return tuple(ALGORITHMS)


def _runner(name: str) -> Runner:
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown algorithm {name!r}; known: "
            f"{', '.join(sorted(ALGORITHMS))}"
        ) from None


@lru_cache(maxsize=None)
def supported_keywords(name: str) -> FrozenSet[str]:
    """The keywords :func:`decompose` accepts for program ``name``.

    Read off the runner's signature: its parameters minus the graph and
    minus the ones the registry entry binds (``variant``, ``parallel``,
    ``compact``, ``program``, ``num_devices``).  ``"memtrace" in
    supported_keywords(name)`` is how every caller asks whether a
    program supports an observer.

    Raises:
        UnknownAlgorithmError: ``name`` is not registered.
    """
    runner = _runner(name)
    _graph, *params = inspect.signature(runner.func).parameters
    return frozenset(params) - frozenset(runner.keywords)


def decompose(
    graph: CSRGraph, algorithm: str = "gpu-ours", **kwargs: Any
) -> DecompositionResult:
    """Run the named program on ``graph``.

    Args:
        graph: input graph in CSR form.
        algorithm: a registry name, e.g. ``"gpu-ours"``, ``"bz"``,
            ``"pkc"``, ``"gswitch"``; see :func:`algorithm_names`.
        **kwargs: forwarded to the program (e.g. ``time_budget_ms`` for
            the GPU systems, ``cost`` for the CPU programs); must be a
            subset of :func:`supported_keywords`.

    Returns:
        The program's :class:`~repro.result.DecompositionResult`.

    Raises:
        UnknownAlgorithmError: ``algorithm`` is not registered.
        UnsupportedKeywordError: a keyword the program does not take,
            including one its registry entry binds (``variant`` for
            ``gpu-*``, ``parallel`` for the CPU baselines, ...); raised
            before anything runs.  It is also a :class:`TypeError`.
    """
    runner = _runner(algorithm)
    supported = supported_keywords(algorithm)
    rejected = set(kwargs) - supported
    if rejected:
        raise UnsupportedKeywordError(algorithm, rejected, supported)
    return runner(graph, **kwargs)
