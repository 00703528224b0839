#!/usr/bin/env python
"""CI gate: one full-telemetry run of the program matrix, one baseline.

Usage::

    python scripts/check_matrix.py [BASELINE_JSON] [--quick] [--update]
        [--artifacts DIR] [--trajectory FILE | --no-trajectory]

One :func:`repro.obs.runreport.collect_run_report` call runs the matrix
(:data:`MATRIX`) with every observer each program takes, direct
profiled ``gpu_peel`` calls run pinned variants that are not registry
programs (``vw2``, ``vw4``), and every program gets one plain rerun.
The sections ``perf``, ``memory``, ``run report``, ``critpath`` and
``identity`` all read that one set of results; the first two diff
their sections of ``benchmarks/results/matrix_baseline.json``.
``--quick`` skips the ``trackers`` VP and ``it-2004`` OOM runs.  Each
run appends one record to ``benchmarks/results/BENCH_trajectory.json``
(``--trajectory`` moves it, ``--no-trajectory`` skips it);
``--artifacts DIR`` writes the CI artifacts there; ``--update``
re-baselines instead of checking.  Exit status: 0 OK, 1 failed check,
2 configuration error.  See "The program-matrix gate" in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _bench_common import (  # noqa: E402
    RESULTS_DIR,
    bootstrap,
    cells_by_dataset,
    load_record,
    write_artifact,
)

bootstrap()

import numpy as np  # noqa: E402

from repro.api import algorithm_names, decompose, supported_keywords  # noqa: E402
from repro.bench.runner import SIMULATED_HOUR_MS, run_program  # noqa: E402
from repro.core.host import gpu_peel  # noqa: E402
from repro.core.variants import get_variant  # noqa: E402
from repro.gpusim.costmodel import CostModel  # noqa: E402
from repro.gpusim.spec import DeviceSpec  # noqa: E402
from repro.graph import datasets  # noqa: E402
from repro.memtrace import validate_memtrace  # noqa: E402
from repro.obs.critpath import (  # noqa: E402
    ROUND_BOUND_CLASSES,
    kernel_floor_cycles,
)
from repro.obs.runreport import RunReport, collect_run_report  # noqa: E402
from repro.profile import validate_profile  # noqa: E402
from repro.staticheck.bounds import launch_env  # noqa: E402

BASELINE_SCHEMA = "repro.matrix-baseline/v1"
TRAJECTORY_SCHEMA = "repro.bench-trajectory/v1"
DEFAULT_BASELINE = RESULTS_DIR / "matrix_baseline.json"
DEFAULT_TRAJECTORY = RESULTS_DIR / "BENCH_trajectory.json"
#: absolute slack for Table II cells, which are rounded to 3 decimals
_TABLE_MS_SLACK = 0.0005
_MIB = 1024 * 1024

#: every program whose runner takes ``critpath``: the nine Table II
#: variants and the 2- and 4-worker multi-GPU runners
CRITPATH_PROGRAMS = tuple(sorted(
    name for name in algorithm_names()
    if "critpath" in supported_keywords(name)
))
SYSTEMS = ("vetga", "medusa-mpm", "medusa-peel", "gunrock", "gswitch")
#: one GPU kernel run, one multicore baseline, one semi-external disk
#: run: the three telemetry verticals a run report must merge
RUNREPORT_PROGRAMS = ("gpu-ours", "pkc", "semi-external")
MATRIX = CRITPATH_PROGRAMS + SYSTEMS + ("pkc", "semi-external")

#: a section's problems, its one-line scope, its trajectory payload
Section = Tuple[List[str], str, Any]


@dataclass
class Matrix:
    """One measurement: an instrumented run and a plain rerun per
    program, plus the ``vp_check`` and ``oom`` runs (empty when
    ``--quick``).  Kernel variants are keyed ``gpu-<variant>``."""

    graph: Any
    report: RunReport
    runs: Dict[str, Any]
    plain: Dict[str, Any]
    vp: Dict[str, Any]
    oom: Dict[str, Any]


def measure(baseline: Dict[str, Any], quick: bool) -> Matrix:
    """Run the matrix once with full telemetry, then once plain."""
    perf, memory = baseline["perf"], baseline["memory"]
    graph = datasets.load(perf["dataset"])
    report, results = collect_run_report(
        graph, MATRIX, dataset=perf["dataset"]
    )
    runs = dict(zip(MATRIX, results))
    plain = {name: decompose(graph, name) for name in MATRIX}
    for variant in perf["variants"]:
        name = f"gpu-{variant}"
        if name not in runs:  # not a registry program (vw2, vw4)
            runs[name] = gpu_peel(graph, variant=variant, profile=True)
            plain[name] = gpu_peel(graph, variant=variant)
    m = Matrix(graph, report, runs, plain, {}, {})
    if not quick and perf.get("vp_check"):
        check = perf["vp_check"]
        small = datasets.load(check["dataset"])
        m.vp = {
            v: gpu_peel(small, variant=v, profile=True)
            for v in (check["slower"], check["faster"])
        }
    if not quick and memory.get("oom"):
        big = memory["oom"]
        m.oom = {
            name: run_program(name, big["dataset"],
                              budget_ms=SIMULATED_HOUR_MS)
            for name in big["systems"]
        }
    return m


# -- perf ---------------------------------------------------------------------

def _pin(result: Any) -> Dict[str, Any]:
    """A profiled result's cycles and per-kernel bound classes."""
    report = result.profile
    return {
        "cycles": round(report.summary().cycles, 1),
        "bounds": {k: agg.bound for k, agg in report.kernels().items()},
    }


def _check_variant(
    name: str, result: Any, pinned: Dict[str, Any], tolerance: float,
    where: str,
) -> List[str]:
    report = result.profile
    problems = [
        f"{where}: {name}: invalid fresh profile: {err}"
        for err in validate_profile(report.to_json())
    ]
    budget = float(pinned["cycles"])
    cycles = float(report.summary().cycles)
    if cycles > budget * (1.0 + tolerance):
        problems.append(
            f"{where}: {name}: {cycles:.0f} cycles exceeds the committed "
            f"budget {budget:.0f} by more than {tolerance:.0%} — "
            "performance regression"
        )
    elif cycles < budget * (1.0 - tolerance):
        problems.append(
            f"{where}: {name}: {cycles:.0f} cycles undershoots the "
            f"committed budget {budget:.0f} by more than {tolerance:.0%} "
            "— stale baseline, re-run with --update"
        )
    bounds = _pin(result)["bounds"]
    for kernel, pinned_bound in dict(pinned.get("bounds", {})).items():
        if bounds.get(kernel) != pinned_bound:
            problems.append(
                f"{where}: {name}: {kernel} is {bounds.get(kernel)}-bound, "
                f"baseline pins {pinned_bound}-bound — the roofline "
                "balance moved"
            )
    return problems


def check_perf(perf: Dict[str, Any], m: Matrix) -> Section:
    dataset = perf["dataset"]
    tolerance = float(perf.get("tolerance", 0.05))
    runs = {v: m.runs[f"gpu-{v}"] for v in perf["variants"]}
    problems: List[str] = []
    for name, pinned in perf["variants"].items():
        problems.extend(
            _check_variant(name, runs[name], pinned, tolerance, dataset)
        )
    # the fresh simulated times must agree with the committed Table II
    row = cells_by_dataset(
        load_record(RESULTS_DIR / "table2_ablation.json")
    ).get(dataset)
    if row is None:
        problems.append(f"table2: no committed row for dataset {dataset!r}")
    for name, committed_text in (row or {}).items():
        if name not in runs:
            continue
        committed = float(committed_text)
        measured = float(runs[name].simulated_ms)
        slack = _TABLE_MS_SLACK + tolerance * committed
        if abs(measured - committed) > slack:
            problems.append(
                f"table2: {dataset}: {name} measured {measured:.4f} ms, "
                f"committed {committed:.4f} ms (slack {slack:.4f}) — "
                "bench JSON out of date"
            )
    vp = "VP win skipped"
    if m.vp:  # the Table II winner claim: VP beats Ours on trackers
        check = perf["vp_check"]
        vp = f"{check['dataset']} VP win"
        for name, pinned in check.get("variants", {}).items():
            problems.extend(_check_variant(
                name, m.vp[name], pinned, tolerance, check["dataset"],
            ))
        faster, slower = check["faster"], check["slower"]
        fast, slow = (m.vp[v].profile.summary().cycles
                      for v in (faster, slower))
        if fast >= slow:
            problems.append(
                f"{check['dataset']}: {faster} ({fast:.0f} cycles) no "
                f"longer beats {slower} ({slow:.0f}) — the paper's "
                "latency-boundness claim shifted"
            )
    scope = (
        f"{len(runs)} variant(s) on {dataset} within ±{tolerance:.0%} "
        f"cycles, bound classes, Table II cells; {vp}"
    )
    cycles = {name: _pin(result)["cycles"] for name, result in runs.items()}
    return problems, scope, cycles


# -- memory -------------------------------------------------------------------

def _memory_programs(memory: Dict[str, Any]) -> Dict[str, int]:
    return {**memory["variants"], **memory.get("systems", {})}


def check_memory(memory: Dict[str, Any], m: Matrix) -> Section:
    dataset = memory["dataset"]
    problems: List[str] = []
    peaks: Dict[str, int] = {}
    for name, pinned in _memory_programs(memory).items():
        result = m.runs[name]
        report = result.memtrace
        peak = peaks[name] = int(report.peak_bytes)
        where = f"{dataset}: {name}"
        problems.extend(
            f"{where}: invalid fresh memtrace: {err}"
            for err in validate_memtrace(report.to_json())
        )
        if peak != int(result.peak_memory_bytes):
            problems.append(
                f"{where}: telemetry peak {peak} B disagrees with the "
                f"device's peak_memory_bytes {result.peak_memory_bytes} B"
            )
        problems.extend(
            f"{where}: memory finding: {finding}"
            for finding in report.findings
        )
        if peak != int(pinned):
            direction = (
                "memory regression" if peak > int(pinned)
                else "stale baseline, re-run with --update"
            )
            problems.append(
                f"{where}: peak {peak} B != committed {int(pinned)} B — "
                f"{direction}"
            )
    # Table V shape: Ours = SM = VP minimal, compaction strictly above
    ordering = memory["ordering"]
    tie = {n: peaks[n] for n in ordering.get("minimal_tie", []) if n in peaks}
    if not tie:
        problems.append(
            f"{dataset}: ordering.minimal_tie names no measured program"
        )
    elif len(set(tie.values())) != 1:
        problems.append(
            f"{dataset}: the buffering variants no longer tie on peak "
            f"bytes: {tie} — Table V's Ours=SM=VP column split"
        )
    floor = min(tie.values(), default=0)
    for name in ordering.get("above", []):
        if name in peaks and peaks[name] <= floor:
            problems.append(
                f"{dataset}: {name} ({peaks[name]} B) no longer sits "
                f"above the buffering variants ({floor} B) — Table V's "
                "compaction-scratch ordering flipped"
            )
    # the fresh peaks must agree with the committed Table V artefact
    table5 = load_record(RESULTS_DIR / "table5_memory.json")
    cells = cells_by_dataset(table5)
    if dataset not in cells:
        problems.append(f"table5: no committed row for dataset {dataset!r}")
    for name, peak in peaks.items():
        committed = cells.get(dataset, {}).get(name)
        if committed not in (None, "N/A") and f"{peak / _MIB:.2f}" != committed:
            problems.append(
                f"table5: {dataset}: {name} measured {peak / _MIB:.2f} MB, "
                f"committed {committed} MB — bench JSON out of date"
            )
    for name, entry in table5.get("attribution", {}).get(dataset, {}).items():
        if name in peaks and entry.get("peak_bytes") != peaks[name]:
            problems.append(
                f"table5: {dataset}: attribution pins {name} at "
                f"{entry.get('peak_bytes')} B, measured {peaks[name]} B — "
                "attribution out of date"
            )
    oom = "OOM skipped"
    if m.oom:  # the paper's N/A cells: systems fail on the big graph
        big = memory["oom"]["dataset"]
        oom = f"{big} OOM"
        row = cells.get(big, {})
        if row and row.get("gpu-ours") in (None, "N/A"):
            problems.append(
                f"oom: {big}: committed table5 no longer shows gpu-ours "
                "surviving the biggest graph"
            )
        for name, outcome in m.oom.items():
            if outcome.status == "ok":
                problems.append(
                    f"oom: {big}: {name} completed ({outcome.cell}) — the "
                    "paper's failed-run (N/A) cell no longer reproduces"
                )
            if row and row.get(name) not in (None, "N/A"):
                problems.append(
                    f"oom: {big}: committed table5 cell for {name} is "
                    f"{row.get(name)!r}, expected 'N/A'"
                )
    scope = (
        f"{len(peaks)} program(s) on {dataset} with exact peaks, "
        f"ordering, Table V cells; {oom}"
    )
    return problems, scope, peaks


# -- run report ---------------------------------------------------------------

def invariant_count(sections: List[Dict[str, Any]]) -> int:
    """How many cross-layer checks the validator applies to
    ``sections``, mirroring the key-presence gating of
    :func:`repro.obs.runreport.validate_runreport`."""
    count = 0
    for sec in sections:
        counters = sec.get("counters", {})
        count += 1  # host.rounds == rounds
        if sec.get("memtrace") is not None:
            count += 2  # memtrace validator + peak equality
        if sec.get("profile") is not None:
            count += 1  # profile validator
        if "kernel.scan.cycles" in counters:
            count += 6  # cycles x2 layers x2 kernels, launches, served
        if sec.get("critpath") is not None:
            count += 4  # critpath validator, clock, kernel agreement x2
        if sec.get("multicore") is not None:
            count += 4  # tiling, end re-derivation, bounds, barriers
        if "disk.passes" in counters:
            count += 3  # page-in arithmetic, stats, trace peak
    return count


def check_runreport(m: Matrix) -> Section:
    record = m.report.to_json()
    sections = dict(zip(MATRIX, record["sections"]))
    every = sections.values()
    # a multi-GPU result carries no trace: its workers trace per device
    single = [s for n, s in sections.items() if not n.startswith("gpu-multi")]
    checks = (
        ("a GPU kernel profile",
         any((s["profile"] or {}).get("kernels") for s in every)),
        ("a multicore epoch profile",
         any((s["multicore"] or {}).get("epochs") for s in every)),
        ("disk.* I/O counters",
         any("disk.passes" in s["counters"] for s in every)),
        ("memtrace attribution on every section",
         all(s["memtrace"] is not None for s in every)),
        ("a trace summary on every single-device section",
         all(s["trace"] is not None for s in single)),
    )
    problems = m.report.validate() + [
        f"report lacks {label}" for label, present in checks if not present
    ]
    total = invariant_count(record["sections"])
    old = invariant_count([sections[n] for n in RUNREPORT_PROGRAMS])
    scope = (
        f"{len(sections)} section(s), {total} invariant(s) checked "
        f"({old} on {', '.join(RUNREPORT_PROGRAMS)})"
    )
    return problems, scope, {
        "sections": {
            sec["algorithm"]: {
                "simulated_ms": round(sec["simulated_ms"], 4),
                "peak_memory_bytes": sec["peak_memory_bytes"],
            }
            for sec in record["sections"]
        },
        "invariants_checked": total,
    }


# -- critical path ------------------------------------------------------------

def _refloor(graph: Any, record: Dict[str, Any], where: str) -> List[str]:
    """Re-derive every stored per-kernel static floor from nothing but
    the record's variant name and the graph, so a floor that drifted
    from its contract fails loudly."""
    cfg = get_variant(record["variant"])
    spec = DeviceSpec()
    env = launch_env(
        graph.num_vertices, len(graph.neighbors), graph.max_degree,
        spec, cfg, None,
    )
    scale = float(record["num_devices"]) if record["kind"] == "multi" else 1.0
    problems: List[str] = []
    for name, agg in record["kernels"].items():
        expected = kernel_floor_cycles(
            name, cfg, env, CostModel(), spec.num_sms, agg["launches"]
        ) / scale
        if agg["floor_cycles"] != expected:
            problems.append(
                f"{where}: stored floor for {name!r} "
                f"({agg['floor_cycles']!r}) != re-derived ({expected!r})"
            )
    return problems


def _check_rounds(record: Dict[str, Any], where: str) -> List[str]:
    """Every multi-GPU sub-round is classified, and the histogram
    tiles the round list."""
    problems: List[str] = []
    rounds = record.get("rounds", [])
    histogram = {name: 0 for name in ROUND_BOUND_CLASSES}
    for i, rnd in enumerate(rounds):
        if rnd.get("bound") in ROUND_BOUND_CLASSES:
            histogram[rnd["bound"]] += 1
        else:
            problems.append(f"{where}: rounds[{i}] carries no bound class "
                            f"({rnd.get('bound')!r})")
    if record.get("round_bounds") != histogram:
        problems.append(
            f"{where}: round_bounds {record.get('round_bounds')!r} does "
            f"not tile the {len(rounds)} round(s) ({histogram!r})"
        )
    return problems


def check_critpath(m: Matrix) -> Section:
    problems: List[str] = []
    summary: Dict[str, Any] = {
        "programs": {}, "round_bounds": {}, "invariants_checked": 0,
    }
    for name in CRITPATH_PROGRAMS:
        report = m.runs[name].critpath
        if report is None:
            problems.append(f"{name}: no critpath report produced")
            continue
        record = report.record
        problems.extend(f"{name}: {err}" for err in report.validate())
        problems.extend(_refloor(m.graph, record, name))
        # validator suite + per-kernel floors + 4 identity checks
        checks = 1 + len(record["kernels"]) + 4
        if record["kind"] == "multi":
            problems.extend(_check_rounds(record, name))
            summary["round_bounds"][name] = record["round_bounds"]
            checks += 1 + len(record["rounds"])
        top = record["whatif"][0]
        summary["programs"][name] = {
            "best_scenario": top["scenario"],
            "best_ceiling": round(top["speedup_ceiling"], 4),
        }
        summary["invariants_checked"] += checks
    scope = (
        f"{len(CRITPATH_PROGRAMS)} program(s), "
        f"{summary['invariants_checked']} invariant(s) checked"
    )
    return problems, scope, summary


# -- identity -----------------------------------------------------------------

def check_identity(m: Matrix) -> Section:
    """Each plain rerun must be byte-identical to its instrumented run."""
    problems: List[str] = []
    for name, on in m.runs.items():
        off = m.plain[name]
        same = {
            "cores": np.array_equal(off.core, on.core),
            "simulated_ms": off.simulated_ms == on.simulated_ms,
            "counters": dict(off.counters) == dict(on.counters),
            "peak_memory_bytes": off.peak_memory_bytes == on.peak_memory_bytes,
        }
        problems.extend(
            f"{name}: {label} drifted with telemetry on"
            for label, equal in same.items() if not equal
        )
    return problems, f"{len(m.plain)} plain rerun(s) byte-identical", None


# -- outputs ------------------------------------------------------------------

def _update(path: Path, baseline: Dict[str, Any], m: Matrix) -> None:
    perf, memory = baseline["perf"], baseline["memory"]
    perf["variants"] = {v: _pin(m.runs[f"gpu-{v}"]) for v in perf["variants"]}
    if m.vp:
        perf["vp_check"]["variants"] = {
            v: _pin(result) for v, result in m.vp.items()
        }
    for group in ("variants", "systems"):
        memory[group] = {
            name: int(m.runs[name].memtrace.peak_bytes)
            for name in memory.get(group, {})
        }
    path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    print(f"wrote the fresh cycles, bound classes and peaks to {path}")


def _append_trajectory(path: Path, entry: Dict[str, Any]) -> None:
    trajectory = load_record(path) if path.exists() else {}
    if trajectory.get("schema") != TRAJECTORY_SCHEMA or not isinstance(
        trajectory.get("records"), list
    ):
        trajectory = {"schema": TRAJECTORY_SCHEMA, "records": []}
    trajectory["records"].append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")


def _write_artifacts(
    directory: Path, baseline: Dict[str, Any], m: Matrix
) -> bool:
    """The CI artifacts, each a view of the one measurement: the
    pinned programs' tables, and the Ours, run-report and 4-GPU
    records."""
    ours = m.runs["gpu-ours"]

    def text(views: Any) -> Callable[[str], None]:
        body = "\n\n".join(views) + "\n"
        return lambda p: Path(p).write_text(body, encoding="utf-8")

    writers: List[Tuple[str, Callable[[str], None], str]] = [
        ("sol_report.txt", text(
            m.runs[f"gpu-{v}"].profile.render()
            for v in baseline["perf"]["variants"]
        ), "speed-of-light report"),
        ("profile.folded", ours.profile.write_folded,
         "ours flamegraph stacks"),
        ("memory_timelines.txt", text(
            m.runs[n].memtrace.render()
            for n in _memory_programs(baseline["memory"])
        ), "memory timelines"),
        ("memtrace.json", ours.memtrace.write, "gpu-ours memtrace report"),
        ("runreport.json", m.report.write, "run report"),
        ("critpath.json", m.runs["gpu-multi4"].critpath.write,
         "gpu-multi4 critical-path record"),
    ]
    written = [
        write_artifact(str(directory / name), write, label)
        for name, write, label in writers
    ]
    print(f"wrote {sum(written)} artifact(s) to {directory}")
    return all(written)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?", default=str(DEFAULT_BASELINE))
    parser.add_argument("--quick", action="store_true",
                        help="skip the trackers and it-2004 runs")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from fresh measurements")
    parser.add_argument("--artifacts", metavar="DIR", default=None)
    parser.add_argument("--trajectory", metavar="FILE",
                        default=str(DEFAULT_TRAJECTORY))
    parser.add_argument("--no-trajectory", action="store_true")
    args = parser.parse_args(argv)

    baseline_path = Path(args.baseline)
    baseline = load_record(baseline_path)
    if baseline.get("schema") != BASELINE_SCHEMA:
        print(
            f"error: {baseline_path}: schema must be {BASELINE_SCHEMA!r}, "
            f"got {baseline.get('schema')!r}", file=sys.stderr,
        )
        return 2
    perf, memory = baseline["perf"], baseline["memory"]
    if memory["dataset"] != perf["dataset"]:
        print(f"error: {baseline_path}: the perf and memory sections pin "
              "different datasets", file=sys.stderr)
        return 2

    m = measure(baseline, args.quick)
    written = args.artifacts is None or _write_artifacts(
        Path(args.artifacts), baseline, m
    )
    if args.update:
        _update(baseline_path, baseline, m)
        return 0 if written else 1
    sections = {
        "perf": check_perf(perf, m),
        "memory": check_memory(memory, m),
        "run report": check_runreport(m),
        "critpath": check_critpath(m),
        "identity": check_identity(m),
    }
    problems = [p for found, _, _ in sections.values() for p in found]
    if not args.no_trajectory:
        _append_trajectory(Path(args.trajectory), {
            "date": date.today().isoformat(),
            "dataset": perf["dataset"],
            "cycles": sections["perf"][2],
            "peaks": sections["memory"][2],
            "runreport": sections["run report"][2],
            "critpath": sections["critpath"][2],
            "ok": not problems,
            "problems": len(problems),
        })
    for section, (found, scope, _) in sections.items():
        for problem in found:
            print(f"error: {section}: {problem}", file=sys.stderr)
        status = f"FAIL ({len(found)} problem(s))" if found else "OK"
        print(f"{section}: {scope}: {status}")
    print(
        f"program matrix vs {baseline_path.name} ({len(MATRIX)} "
        f"program(s) on {perf['dataset']}): "
        f"{'FAIL (%d problem(s))' % len(problems) if problems else 'OK'}"
    )
    return 1 if problems or not written else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
