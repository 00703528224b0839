#!/usr/bin/env python
"""CI gate: full-telemetry run reports over the small-graph matrix.

Usage::

    python scripts/check_runreport.py [--datasets NAMES]
        [--algorithms NAMES] [--report FILE]
        [--trajectory FILE | --no-trajectory]

For each dataset the gate runs every matrix algorithm with *all* of its
telemetry on (trace, plus whichever of profile, memtrace and critpath
its runner takes per ``repro.api.supported_keywords``), merges the
results into one unified ``repro.runreport/v1`` record
(:mod:`repro.obs.runreport`), and fails the build when:

1. **schema + invariants** — the report must validate: every
   cross-layer consistency invariant (memtrace peak == result peak,
   profile cycles == trace kernel-span cycles == host counters,
   multicore epochs tiling the timeline, disk page-in arithmetic) must
   hold *exactly* — no tolerance;
2. **byte-identity** — an uninstrumented rerun of each algorithm must
   produce byte-identical cores, simulated milliseconds and counters
   (telemetry is observability-only by contract);
3. **coverage** — each report must actually contain the verticals the
   matrix promises (a GPU section with kernels, a multicore section
   with epochs, a disk section with ``disk.*`` counters), so a silently
   dropped producer cannot pass.

The default matrix is ``web-Google`` x (``gpu-ours``, ``pkc``,
``semi-external``) — one GPU kernel run, one multicore baseline, one
semi-external disk run per report.  Every run appends a dated
``runreport`` record to ``benchmarks/results/BENCH_trajectory.json``
(``--trajectory`` moves it, ``--no-trajectory`` skips it); ``--report``
writes the last report as a CI artifact.  Exit status: 0 OK, 1 failed
check, 2 configuration error.  See the "Run reports" section of
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import date
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _bench_common import (  # noqa: E402
    RESULTS_DIR,
    bootstrap,
    load_record,
    write_artifact,
)

bootstrap()

import numpy as np  # noqa: E402

from repro.api import decompose  # noqa: E402
from repro.graph import datasets  # noqa: E402
from repro.obs.runreport import collect_run_report  # noqa: E402

TRAJECTORY_SCHEMA = "repro.bench-trajectory/v1"
DEFAULT_TRAJECTORY = RESULTS_DIR / "BENCH_trajectory.json"
DEFAULT_DATASETS = ("web-Google",)
#: one GPU kernel run, one multicore baseline, one semi-external disk
#: run — the three telemetry verticals a unified report must merge
DEFAULT_ALGORITHMS = ("gpu-ours", "pkc", "semi-external")


def _invariant_count(record: Dict[str, Any]) -> int:
    """How many cross-layer checks the validator applied to ``record``.

    Mirrors the key-presence gating of
    :func:`repro.obs.runreport.validate_runreport` so the trajectory
    records how much was actually verified, not just that nothing
    failed.
    """
    count = 0
    for sec in record.get("sections", []):
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


def _check_coverage(
    record: Dict[str, Any], algorithms: List[str], where: str
) -> List[str]:
    """The report must contain the verticals the matrix promises."""
    problems: List[str] = []
    sections = {s.get("algorithm"): s for s in record.get("sections", [])}
    missing = [a for a in algorithms if a not in sections]
    if missing:
        problems.append(f"{where}: missing section(s): {missing}")
        return problems
    checks = (
        ("a GPU kernel profile",
         any(s.get("profile", {} ) and s["profile"].get("kernels")
             for s in sections.values() if s.get("profile"))),
        ("a multicore epoch profile",
         any(s.get("multicore", {}).get("epochs")
             for s in sections.values() if s.get("multicore"))),
        ("disk.* I/O counters",
         any("disk.passes" in s.get("counters", {})
             for s in sections.values())),
        ("memtrace attribution on every section",
         all(s.get("memtrace") is not None for s in sections.values())),
        ("a trace summary on every section",
         all(s.get("trace") is not None for s in sections.values())),
    )
    for label, present in checks:
        if not present:
            problems.append(f"{where}: report lacks {label}")
    return problems


def _check_byte_identity(
    graph: Any, results: List[Any], where: str
) -> List[str]:
    """Uninstrumented reruns must be byte-identical to the report's."""
    problems: List[str] = []
    for instrumented in results:
        name = instrumented.algorithm
        plain = decompose(graph, name)
        if not np.array_equal(plain.core, instrumented.core):
            problems.append(
                f"{where}: {name}: cores differ with telemetry on"
            )
        if plain.simulated_ms != instrumented.simulated_ms:
            problems.append(
                f"{where}: {name}: simulated_ms drifted with telemetry "
                f"on ({plain.simulated_ms!r} != "
                f"{instrumented.simulated_ms!r})"
            )
        if dict(plain.counters) != dict(instrumented.counters):
            problems.append(
                f"{where}: {name}: counters drifted with telemetry on"
            )
        if plain.peak_memory_bytes != instrumented.peak_memory_bytes:
            problems.append(
                f"{where}: {name}: peak_memory_bytes drifted with "
                f"telemetry on"
            )
    return problems


def _append_trajectory(
    path: Path,
    dataset: str,
    record: Dict[str, Any],
    problems: List[str],
) -> None:
    trajectory: Dict[str, Any] = {
        "schema": TRAJECTORY_SCHEMA, "records": [],
    }
    if path.exists():
        loaded = load_record(path)
        if loaded.get("schema") == TRAJECTORY_SCHEMA and isinstance(
            loaded.get("records"), list
        ):
            trajectory = loaded
    trajectory["records"].append({
        "date": date.today().isoformat(),
        "dataset": dataset,
        "runreport": {
            "sections": {
                sec["algorithm"]: {
                    "simulated_ms": round(sec["simulated_ms"], 4),
                    "peak_memory_bytes": sec["peak_memory_bytes"],
                }
                for sec in record.get("sections", [])
            },
            "invariants_checked": _invariant_count(record),
        },
        "ok": not problems,
        "problems": len(problems),
    })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(trajectory, indent=1) + "\n", encoding="utf-8"
    )


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--datasets", default=",".join(DEFAULT_DATASETS),
        help="comma-separated dataset names "
             f"(default: {','.join(DEFAULT_DATASETS)})",
    )
    parser.add_argument(
        "--algorithms", default=",".join(DEFAULT_ALGORITHMS),
        help="comma-separated matrix algorithms "
             f"(default: {','.join(DEFAULT_ALGORITHMS)})",
    )
    parser.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the last dataset's repro.runreport/v1 artifact here",
    )
    parser.add_argument(
        "--trajectory", metavar="FILE", default=str(DEFAULT_TRAJECTORY),
    )
    parser.add_argument("--no-trajectory", action="store_true")
    args = parser.parse_args(argv)

    names = [d for d in args.datasets.split(",") if d]
    algorithms = [a for a in args.algorithms.split(",") if a]
    if not names or not algorithms:
        print("error: need at least one dataset and one algorithm",
              file=sys.stderr)
        return 2

    problems: List[str] = []
    last_report = None
    checked = 0
    for dataset in names:
        try:
            graph = datasets.load(dataset)
        except Exception:
            print(f"error: unknown dataset {dataset!r}", file=sys.stderr)
            return 2
        report, results = collect_run_report(
            graph, algorithms, dataset=dataset
        )
        record = report.to_json()
        last_report = report
        problems.extend(
            f"{dataset}: {err}" for err in report.validate()
        )
        problems.extend(_check_coverage(record, algorithms, dataset))
        problems.extend(_check_byte_identity(graph, results, dataset))
        checked += _invariant_count(record)
        if not args.no_trajectory:
            _append_trajectory(
                Path(args.trajectory), dataset, record, problems
            )

    if args.report and last_report is not None:
        if not write_artifact(
            args.report, last_report.write, "run report"
        ):
            return 1
        print(f"wrote run report to {args.report}")

    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(
        f"run reports ({len(names)} dataset(s) x {len(algorithms)} "
        f"algorithm(s), {checked} invariant(s) checked): "
        f"{'FAIL (%d problem(s))' % len(problems) if problems else 'OK'}"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
