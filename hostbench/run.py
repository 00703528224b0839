"""Host wall-clock benchmark of the simulator.

Usage, from the root of a checkout (no install needed)::

    python3 hostbench/run.py --workload hub-skew --seed 0 --seconds 30 --trace 0

One process, one client, closed loop: every decomposition starts only
after the previous one returned.  A run builds the workload's graph from
``--seed``, computes its BZ core numbers once, runs one warm-up pass,
then timed passes until ``--seconds`` is spent.  Spread evenly over the
timed passes, it builds the graph again (at least ``SETUP_REPEATS``
builds and ``SETUP_SECONDS`` in all, for ``setup_s``) and, untraced,
has fresh child processes run one warm-up pass each (for ``warmup_s``).
With ``--trace 1`` the timed passes alternate between untraced and
traced ones, and the per-layer metrics come from the traced passes (see
``hostbench/README.md``).

Every result is checked outside the timed region: core numbers against
BZ, ``report.validate()`` / ``critpath.validate()``, and simulated time,
counters, peak and cores byte-identical to the warm-up pass (so a traced
pass must measure the same program).  A decomposition that raises or
fails a check counts in ``failed``; the run goes on.

Every metric is printed with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The traced run's spans are written to
``.hostbench/spans-<workload>-seed<seed>.json``.  Exit code 0 when every
check passed, 1 when one failed, 2 when the program under test is
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # these import repro, which main() puts on the path
    from clock import Clock
    from probes import Probe
    from repro.graph.csr import CSRGraph
    from repro.result import DecompositionResult
    from workloads import Program, Workload

ROOT = Path(__file__).resolve().parent.parent

#: the observers whose cost ``observers.<name>.overhead_x`` reports
OBSERVERS = (
    "profile", "memtrace", "staticheck", "dataflow", "report", "critpath",
    "sanitize",
)

#: name -> unit of the end-to-end metrics (``--trace 0``)
END_TO_END = {
    "setup_s": "s",
    "warmup_s": "s",
    "pass_s.p50": "s",
    "pass_s.tail": "s",
    "edges_per_s": "1/s",
    "sim_ms": "ms",
    "sim_peak_bytes": "bytes",
    "host_rss_peak_mb": "MB",
    "ok_frac": "frac",
}

#: name -> unit of the per-layer metrics (``--trace 1``); a layer a
#: workload does not exercise reads 0
PER_LAYER = {
    "graph.generate_s": "s",
    "graph.csr_build_s": "s",
    "graph.vertices": "count",
    "graph.edges": "count",
    "device.malloc_s": "s",
    "device.malloc_bytes": "bytes",
    "device.read_back_s": "s",
    "device.launch_s": "s",
    "device.launches": "count",
    "engine.loop_kernel_s": "s",
    "engine.scan_kernel_s": "s",
    "engine.warp_instructions": "count",
    "engine.ns_per_warp_instruction": "ns",
    "engine.served.vectorized": "count",
    "engine.served.reference": "count",
    "engine.vectorized_ratio": "frac",
    "engine.sim_cycles": "cycles",
    "driver.self_s": "s",
    "driver.launch_hook_s": "s",
    "driver.rounds": "count",
    **{f"observers.{name}.overhead_x": "x" for name in OBSERVERS},
    "multigpu.subrounds": "count",
    "multigpu.exchange_bound_subrounds": "count",
    "multigpu.sim_ratio_vs_single": "x",
    "bench.trace_overhead_x": "x",
}

#: least graph builds, and least seconds of them, per run; ``setup_s``
#: is their median
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
#: fresh processes (this one and children spread over the run) whose
#: first pass gives ``warmup_s``, their median
WARMUP_PROCESSES = 3
#: paired (bare, observed) calls per observer for ``overhead_x``
OBSERVER_REPEATS = 3


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least ten
    samples above it, never below the median (21 samples or fewer give
    the upper median)."""
    ordered = sorted(samples)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n


class Tally:
    """Decompositions attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.fingerprints: Dict[str, str] = {}

    def fail(self, program: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {program}: {why}", file=sys.stderr)

    def check(self, program: str, result: Optional[DecompositionResult],
              reference: np.ndarray) -> None:
        """Count one decomposition; ``result`` is ``None`` when it raised.

        The result must also be byte-identical to the first one seen for
        ``program`` in this run.
        """
        self.attempted += 1
        if result is None:
            self.fail(program, "raised")
            return
        problems = []
        if not np.array_equal(result.core, reference):
            problems.append("core numbers differ from BZ")
        for part in (result.report, result.critpath):
            if part is not None:
                problems.extend(part.validate())
        first = self.fingerprints.setdefault(program, fingerprint(result))
        if fingerprint(result) != first:
            problems.append("simulated result differs from the first run")
        if problems:
            self.fail(program, "; ".join(problems))

    def check_fingerprint(self, program: str, digest: Optional[str]) -> None:
        """Count a decomposition run elsewhere, known by its fingerprint
        (``None`` when it raised), against this run's first result."""
        self.attempted += 1
        if digest is None:
            self.fail(program, "raised")
        elif digest != self.fingerprints.get(program):
            self.fail(program, "simulated result differs from the first run")


def fingerprint(result: DecompositionResult) -> str:
    """Digest of simulated time, peak, rounds, counters and core numbers."""
    exact = repr((
        result.simulated_ms, result.peak_memory_bytes, result.rounds,
        sorted(result.counters.items()),
    ))
    digest = hashlib.sha256(exact.encode())
    digest.update(result.core.astype("int64").tobytes())
    return digest.hexdigest()


def call(program: Program, graph: CSRGraph,
         probe: Optional[Probe] = None) -> Optional[DecompositionResult]:
    """Run one program; ``None`` (and a traceback on stderr) if it raised.

    The benchmark is a boundary that keeps running: a raise is counted
    as a failure, not propagated.
    """
    try:
        if probe is None:
            return program.run(graph, None)
        with probe.span(f"driver:{program.name}"):
            return program.run(graph, probe)
    except Exception:
        traceback.print_exc()
        return None


def run_pass(
    workload: Workload, graph: CSRGraph, reference: np.ndarray, tally: Tally,
    clock: Clock, probe: Optional[Probe] = None,
) -> Tuple[float, float, List[Optional[DecompositionResult]]]:
    """One pass through the program list: its normalised and raw host
    seconds, and its results.

    Only the calls are timed; the checks run after the clock stops.
    """
    normalised = raw = 0.0
    results = []
    for program in workload.programs:
        result, seconds, scaled = clock.time(call, program, graph, probe)
        results.append(result)
        raw += seconds
        normalised += scaled
    for program, result in zip(workload.programs, results):
        tally.check(program.name, result, reference)
    return normalised, raw, results


def build(workload: Workload, seed: int,
          probe: Optional[Probe] = None) -> CSRGraph:
    """The workload's graph; with a probe, also times a CSR rebuild."""
    from repro.graph.csr import CSRGraph

    if probe is None:
        return workload.build(seed)
    with probe.span("graph.generate"):
        graph = workload.build(seed)
    edges = graph.edge_array()
    with probe.span("graph.csr_build"):
        rebuilt = CSRGraph.from_edges(edges, num_vertices=graph.num_vertices)
    if rebuilt != graph:
        raise RuntimeError("CSRGraph.from_edges did not rebuild the graph")
    return graph


def layer_metrics(probe: Probe, workload: Workload,
                  results: List[DecompositionResult]) -> Dict[str, float]:
    """The device, engine, driver and multi-GPU metrics of one traced pass."""
    totals = probe.totals()  # a name with no spans reads as zeros
    counts = probe.counts
    engine_s = sum(
        row["seconds"] for name, row in totals.items()
        if name.startswith("engine.")
    )
    vectorized = counts["engine.served.vectorized"]
    served = vectorized + counts["engine.served.reference"]
    instructions = counts["engine.warp_instructions"]
    out = {
        "device.malloc_s": totals["device.malloc"]["seconds"],
        "device.malloc_bytes": float(counts["device.malloc_bytes"]),
        "device.read_back_s": totals["device.read_back"]["seconds"],
        "device.launch_s": totals["device.launch"]["seconds"],
        "device.launches": totals["device.launch"]["calls"],
        "engine.loop_kernel_s": totals["engine.loop_kernel"]["seconds"],
        "engine.scan_kernel_s": totals["engine.scan_kernel"]["seconds"],
        "engine.warp_instructions": float(instructions),
        "engine.ns_per_warp_instruction": (
            engine_s * 1e9 / instructions if instructions else 0.0
        ),
        "engine.served.vectorized": float(vectorized),
        "engine.served.reference": float(counts["engine.served.reference"]),
        "engine.vectorized_ratio": vectorized / served if served else 0.0,
        "engine.sim_cycles": float(counts["engine.sim_cycles"]),
        "driver.self_s": totals["driver"]["self_s"],
        "driver.launch_hook_s": totals["device.launch"]["self_s"],
        "driver.rounds": float(sum(r.rounds for r in results)),
    }
    pairs = list(zip(workload.programs, results))
    multis = [r for p, r in pairs if p.multi_gpu]
    singles = [r for p, r in pairs if p.name.startswith("gpu-ours")]
    out["multigpu.subrounds"] = float(
        sum(r.stats["sub_rounds"] for r in multis)
    )
    out["multigpu.exchange_bound_subrounds"] = float(sum(
        rnd["bound"] == "exchange"
        for r in multis if r.critpath is not None
        for rnd in r.critpath.rounds
    ))
    out["multigpu.sim_ratio_vs_single"] = (
        statistics.fmean(r.simulated_ms for r in multis)
        / singles[0].simulated_ms
        if multis and singles else 0.0
    )
    return out


def observer_costs(graph: CSRGraph, reference: np.ndarray, tally: Tally,
                   clock: Clock) -> Dict[str, float]:
    """``gpu-ours`` with one observer on over ``gpu-ours`` with none.

    Each observed call is paired with a bare call just before it, and
    the metric is the median of the pairs' ratios, so machine-load drift
    between pairs cancels.  Every call is checked like a pass's.
    """
    from workloads import peel

    def timed(program: Program) -> float:
        result, _, seconds = clock.time(call, program, graph)
        tally.check(program.name, result, reference)
        return seconds

    bare = peel("ours")
    ratios: Dict[str, List[float]] = {name: [] for name in OBSERVERS}
    for _ in range(OBSERVER_REPEATS):
        for name in OBSERVERS:
            baseline = timed(bare)
            ratios[name].append(timed(peel("ours", **{name: True})) / baseline)
    return {
        f"observers.{name}.overhead_x": statistics.median(values)
        for name, values in ratios.items()
    }


def timed_build(
    workload: Workload, seed: int, clock: Clock, trace: bool,
    times: List[float], layers: List[Dict[str, float]],
) -> CSRGraph:
    """Build the graph once, appending its normalised seconds to ``times``
    (and, traced, its graph-layer spans, normalised alike, to ``layers``)."""
    from probes import Probe

    probe = Probe() if trace else None
    graph, raw, normalised = clock.time(build, workload, seed, probe)
    times.append(normalised)
    if probe is not None:
        totals = probe.totals()
        layers.append({
            name: totals[span]["seconds"] * normalised / raw
            for name, span in (("graph.generate_s", "graph.generate"),
                               ("graph.csr_build_s", "graph.csr_build"))
        })
    return graph


def cold_pass(workload: Workload, seed: int) -> Dict[str, Any]:
    """This fresh process's first pass: its normalised seconds and each
    program's result fingerprint (``None`` if it raised)."""
    from clock import Clock

    clock = Clock()
    graph = workload.build(seed)
    seconds = 0.0
    digests = {}
    for program in workload.programs:
        result, _, normalised = clock.time(call, program, graph)
        seconds += normalised
        digests[program.name] = None if result is None else fingerprint(result)
    return {"warmup_s": seconds, "fingerprints": digests}


def fresh_warmup(
    workload: Workload, seed: int, tally: Tally
) -> Optional[float]:
    """:func:`cold_pass` in a child process; its results count in
    ``tally``, checked against this run's first results."""
    command = [
        sys.executable, str(Path(__file__)), "--workload", workload.name,
        "--seed", str(seed), "--warmup-only",
    ]
    try:
        child = subprocess.run(
            command, capture_output=True, text=True, timeout=120,
        )
        data = json.loads(child.stdout.splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
        tally.attempted += 1
        tally.fail("warm-up process", repr(exc))
        return None
    for program, digest in data["fingerprints"].items():
        tally.check_fingerprint(program, digest)
    return data["warmup_s"]


def measure(workload: Workload, seed: int, seconds: float,
            trace: bool) -> Tuple[Dict[str, Any], List[List[Any]]]:
    """Run the workload; return the result object and the traced spans.

    The host's speed drifts for seconds at a time, so the extra graph
    builds and fresh-process warm-ups are spread evenly over the timed
    passes instead of run back to back.  ``--seconds`` bounds the raw
    time of the passes and the warm-up processes; every reported time
    is normalised (see :mod:`clock`).
    """
    from clock import Clock
    from probes import Probe
    from repro.cpu.bz import bz_core_numbers

    clock = Clock()
    tally = Tally()
    setup_times: List[float] = []
    setup_layers: List[Dict[str, float]] = []
    graph = timed_build(
        workload, seed, clock, trace, setup_times, setup_layers
    )
    reference = bz_core_numbers(graph)
    warmup_s, _, first = run_pass(workload, graph, reference, tally, clock)
    warmups = [warmup_s]

    # (share of ``seconds`` spent, what to run then)
    builds = max(SETUP_REPEATS, math.ceil(SETUP_SECONDS / setup_times[0])) - 1
    events = [(i / builds, "build") for i in range(1, builds + 1)]
    if not trace:
        children = WARMUP_PROCESSES - 1
        events += [(i / children, "warm-up") for i in range(1, children + 1)]
    events.sort(reverse=True)

    untraced: List[float] = []
    untraced_raw: List[float] = []
    traced: List[float] = []
    layers: List[Dict[str, float]] = []
    spans: List[List[Any]] = []
    spent = 0.0
    while True:
        while events and events[-1][0] * seconds <= spent:
            if events.pop()[1] == "build":
                if timed_build(workload, seed, clock, trace, setup_times,
                               setup_layers) != graph:
                    tally.fail("set-up", "the same seed built another graph")
                continue
            start = perf_counter()
            sample = fresh_warmup(workload, seed, tally)
            spent += perf_counter() - start
            if sample is not None:
                warmups.append(sample)
        if spent >= seconds:
            break
        normalised, raw, _ = run_pass(workload, graph, reference, tally, clock)
        untraced.append(normalised)
        untraced_raw.append(raw)
        spent += raw
        if trace:
            probe = Probe()
            normalised, raw, results = run_pass(
                workload, graph, reference, tally, clock, probe
            )
            traced.append(normalised)
            spent += raw
            if None not in results:
                row = layer_metrics(probe, workload, results)
                layers.append({
                    name: value * normalised / raw
                    if PER_LAYER[name] in ("s", "ns") else value
                    for name, value in row.items()
                })
            spans.extend(
                [len(traced), s.name, s.start, s.end, s.parent]
                for s in probe.spans
            )

    edges = graph.num_edges * len(workload.programs)
    p50 = statistics.median(untraced)
    tail_s, tail_pct = tail(untraced)
    print(f"{workload.name} seed={seed}: {len(setup_times)} builds, "
          f"{len(warmups)} warm-up processes, "
          f"{len(untraced)} untraced passes "
          f"(pass_s.tail = p{tail_pct:.0f}), {len(traced)} traced passes, "
          f"{tally.attempted} decompositions, {tally.failed} failed; "
          f"raw pass_s.p50 {statistics.median(untraced_raw):.4f} s")
    if trace:
        metrics = {
            name: statistics.median(row[name] for row in setup_layers)
            for name in ("graph.generate_s", "graph.csr_build_s")
        }
        metrics["graph.vertices"] = float(graph.num_vertices)
        metrics["graph.edges"] = float(graph.num_edges)
        for name in layers[0] if layers else ():
            metrics[name] = statistics.median(row[name] for row in layers)
        costs = (
            observer_costs(graph, reference, tally, clock)
            if workload.observer_costs else {}
        )
        for name in PER_LAYER:
            if name.startswith("observers."):
                metrics[name] = costs.get(name, 0.0)
        metrics["bench.trace_overhead_x"] = statistics.median(traced) / p50
        units = PER_LAYER
    else:
        ok = all(r is not None for r in first)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "warmup_s": statistics.median(warmups),
            "pass_s.p50": p50,
            "pass_s.tail": tail_s,
            "edges_per_s": edges / p50,
            "sim_ms": sum(r.simulated_ms for r in first) if ok else 0.0,
            "sim_peak_bytes": (
                float(max(r.peak_memory_bytes for r in first)) if ok else 0.0
            ),
            "host_rss_peak_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
            "ok_frac": 1.0 - tally.failed / tally.attempted,
        }
        units = END_TO_END
    # a metric is missing only when every traced pass failed a check
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:36s} {metrics[name]:>16.6g} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }, spans


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--warmup-only", action="store_true",
                        help="time one cold pass in this fresh process")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({src}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload; known: {', '.join(WORKLOADS)}")
    if args.warmup_only:
        print(json.dumps(cold_pass(workload, args.seed)))
        return 0
    result, spans = measure(
        workload, args.seed, args.seconds, bool(args.trace)
    )
    if args.trace:
        out = ROOT / ".hostbench"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{workload.name}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "columns": ["pass", "name", "start", "end", "parent"],
            "spans": spans,
        }))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
