"""The ``repro.memtrace/v1`` report: schema, rendering, validation.

A :class:`MemtraceReport` wraps the telemetry of one run's
:class:`~repro.memtrace.tracker.MemoryTracker`\\ (s) — one *worker*
section per device, so multi-GPU runs keep per-worker provenance — and
is what ``gpu_peel(memtrace=True)`` attaches to ``result.memtrace``.

``to_json()`` emits the ``repro.memtrace/v1`` record:

.. code-block:: json

    {
      "schema": "repro.memtrace/v1",
      "algorithm": "gpu-ours", "variant": "ours", "dataset": null,
      "peak_bytes": 901120,
      "workers": [
        {
          "worker": "gpu0",
          "base_bytes": 262144,
          "peak": {"bytes": 901120, "ts_ms": 0.0,
                   "breakdown": [{"name": "(context)", "bytes": 262144,
                                  "share": 0.29}, ...]},
          "rounds": [{"round": 0, "high_water_bytes": 901120}, ...],
          "allocations": [{"name": "offsets", "bytes": 3204,
                           "alloc_ms": 0.0, "free_ms": 4.1,
                           "scope": "host", "round": null, "index": 0},
                          ...],
          "shared": [{"kernel": "loop_kernel", "name": "buf",
                      "bytes_per_block": 128, "blocks": 4}],
          "allocs": 7, "frees": 7,
          "findings": []
        }
      ]
    }

:func:`validate_memtrace` checks a parsed record against the schema
*and* its arithmetic invariants — above all that every worker's
breakdown sums **exactly** (integer bytes, no tolerance) to its peak,
which is how ``result.memtrace`` is guaranteed to explain
``device.peak_memory_bytes`` rather than approximate it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.memtrace.tracker import (
    CONTEXT_NAME,
    AllocationRecord,
    MemoryTracker,
    PeakSnapshot,
    SharedFootprint,
)
from repro.sanitize.report import SanitizerFinding

__all__ = [
    "SCHEMA_VERSION",
    "WorkerMemtrace",
    "MemtraceReport",
    "validate_memtrace",
    "validate_memtrace_file",
]

SCHEMA_VERSION = "repro.memtrace/v1"

#: detectors a memtrace finding may carry
_MEMTRACE_DETECTORS = ("memory-leak", "double-free", "use-after-free")

#: absolute slack for the share-sum check (shares are derived floats;
#: the byte sums themselves are checked exactly)
_SHARE_TOL = 1e-9


@dataclass(frozen=True)
class WorkerMemtrace:
    """One device's memory telemetry within a report."""

    worker: str
    base_bytes: int
    peak: PeakSnapshot
    rounds: Tuple[Tuple[int, int], ...]
    allocations: Tuple[AllocationRecord, ...]
    shared: Tuple[SharedFootprint, ...]
    allocs: int
    frees: int
    findings: Tuple[SanitizerFinding, ...]

    def breakdown(self) -> Dict[str, int]:
        """The peak attribution as a ``name -> bytes`` mapping."""
        return dict(self.peak.breakdown)

    def to_json(self) -> Dict[str, Any]:
        return {
            "worker": self.worker,
            "base_bytes": self.base_bytes,
            "peak": self.peak.to_json(),
            "rounds": [
                {"round": k, "high_water_bytes": high}
                for k, high in self.rounds
            ],
            "allocations": [a.to_json() for a in self.allocations],
            "shared": [s.to_json() for s in self.shared],
            "allocs": self.allocs,
            "frees": self.frees,
            "findings": [
                {
                    "detector": f.detector,
                    "severity": f.severity,
                    "kernel": f.kernel,
                    "message": f.message,
                }
                for f in self.findings
            ],
        }


@dataclass(frozen=True)
class MemtraceReport:
    """The full memory telemetry of one run; see the module docstring."""

    algorithm: Optional[str]
    variant: Optional[str]
    dataset: Optional[str]
    workers: Tuple[WorkerMemtrace, ...]

    @classmethod
    def from_trackers(
        cls,
        trackers: Sequence[MemoryTracker],
        algorithm: Optional[str] = None,
        variant: Optional[str] = None,
        dataset: Optional[str] = None,
    ) -> "MemtraceReport":
        """Fold one tracker per device into a report (multi-GPU merge)."""
        labels: Dict[str, str] = {}
        for tracker in trackers:
            labels.update(tracker.labels)
        workers = tuple(
            WorkerMemtrace(
                worker=t.worker,
                base_bytes=t.base_bytes,
                peak=t.peak,
                rounds=t.rounds(),
                allocations=t.allocations(),
                shared=t.shared_footprints(),
                allocs=t.n_allocs,
                frees=t.n_frees,
                findings=tuple(t.findings),
            )
            for t in trackers
        )
        return cls(
            algorithm=algorithm or labels.get("algorithm"),
            variant=variant or labels.get("variant"),
            dataset=dataset or labels.get("dataset"),
            workers=workers,
        )

    # -- views ----------------------------------------------------------------

    @property
    def peak_bytes(self) -> int:
        """The busiest single worker's peak (the Table V figure)."""
        return max((w.peak.bytes for w in self.workers), default=0)

    @property
    def peak_worker(self) -> Optional[WorkerMemtrace]:
        """The worker whose peak is the report's peak."""
        if not self.workers:
            return None
        return max(self.workers, key=lambda w: w.peak.bytes)

    def breakdown(self) -> Dict[str, int]:
        """Attribution of the busiest worker's peak (``name -> bytes``)."""
        worker = self.peak_worker
        return worker.breakdown() if worker is not None else {}

    @property
    def findings(self) -> Tuple[SanitizerFinding, ...]:
        """Findings across every worker."""
        return tuple(f for w in self.workers for f in w.findings)

    @property
    def clean(self) -> bool:
        """True when no memory detector fired."""
        return not self.findings

    @property
    def errors(self) -> List[SanitizerFinding]:
        """Findings with severity ``error``."""
        return [f for f in self.findings if f.severity == "error"]

    # -- export ---------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """The ``repro.memtrace/v1`` record."""
        return {
            "schema": SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "variant": self.variant,
            "dataset": self.dataset,
            "peak_bytes": self.peak_bytes,
            "workers": [w.to_json() for w in self.workers],
        }

    def write(self, path: "str | Path") -> None:
        """Serialise :meth:`to_json` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=1)

    # -- human-readable timeline ----------------------------------------------

    def render(self) -> str:
        """The ``--memtrace`` console report: timeline + attribution."""
        label = self.algorithm or "run"
        if self.dataset:
            label += f" on {self.dataset}"
        lines = [
            f"Memory telemetry: {label}",
            "=" * max(24, len(label) + 18),
        ]
        mib = 1024.0 * 1024.0
        for worker in self.workers:
            peak = worker.peak
            lines.append(
                f"{worker.worker}: peak {peak.bytes / mib:.2f} MB "
                f"({peak.bytes} B) at {peak.ts_ms:.3f} ms — "
                f"{worker.allocs} alloc(s), {worker.frees} free(s)"
            )
            shares = peak.shares()
            lines.append(
                f"  {'array':<22} {'bytes':>12} {'share':>7}  "
                f"{'scope':<14} {'lifetime (ms)':<18}"
            )
            lifetimes = {a.name: a for a in worker.allocations}
            for name, nbytes in peak.breakdown:
                record = lifetimes.get(name)
                if name == CONTEXT_NAME or record is None:
                    span = "whole run"
                    scope = "-"
                else:
                    end = (
                        f"{record.free_ms:.3f}"
                        if record.free_ms is not None
                        else "live"
                    )
                    span = f"{record.alloc_ms:.3f} – {end}"
                    scope = record.scope
                lines.append(
                    f"  {name:<22} {nbytes:>12} "
                    f"{100.0 * shares.get(name, 0.0):>6.1f}%  "
                    f"{scope:<14} {span:<18}"
                )
            if worker.rounds:
                highs = [high for _, high in worker.rounds]
                lines.append(
                    f"  rounds: {len(worker.rounds)}, high-water "
                    f"{min(highs)} – {max(highs)} B"
                )
            for footprint in worker.shared:
                lines.append(
                    f"  shared: {footprint.kernel}/{footprint.name} "
                    f"{footprint.bytes_per_block} B/block x "
                    f"{footprint.blocks} block(s)"
                )
        if self.clean:
            lines.append("findings: clean")
        else:
            lines.append(f"findings: {len(self.findings)}")
            for finding in self.findings:
                lines.append(f"  {finding}")
        return "\n".join(lines)


# -- validation ---------------------------------------------------------------


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_worker(entry: Any, where: str, errors: List[str]) -> None:
    if not isinstance(entry, dict):
        errors.append(f"{where}: not an object")
        return
    if not isinstance(entry.get("worker"), str) or not entry.get("worker"):
        errors.append(f"{where}: missing or empty 'worker'")
    base = entry.get("base_bytes")
    if not _is_int(base) or base < 0:
        errors.append(f"{where}: 'base_bytes' must be a non-negative int")
        base = 0
    peak = entry.get("peak")
    if not isinstance(peak, dict):
        errors.append(f"{where}: 'peak' must be an object")
        return
    peak_bytes = peak.get("bytes")
    if not _is_int(peak_bytes) or peak_bytes < 0:
        errors.append(f"{where}: peak.bytes must be a non-negative int")
        return
    if not _is_number(peak.get("ts_ms")) or float(peak["ts_ms"]) < 0.0:
        errors.append(f"{where}: peak.ts_ms must be a non-negative number")
    if peak_bytes < base:
        errors.append(
            f"{where}: peak.bytes ({peak_bytes}) below base_bytes ({base})"
        )
    breakdown = peak.get("breakdown")
    if not isinstance(breakdown, list):
        errors.append(f"{where}: peak.breakdown must be a list")
        return
    total = 0
    share_sum = 0.0
    names: List[str] = []
    for i, item in enumerate(breakdown):
        if not isinstance(item, dict):
            errors.append(f"{where}: peak.breakdown[{i}] not an object")
            return
        name = item.get("name")
        nbytes = item.get("bytes")
        share = item.get("share")
        if not isinstance(name, str) or not name:
            errors.append(
                f"{where}: peak.breakdown[{i}].name must be a string"
            )
            continue
        if not _is_int(nbytes) or nbytes < 0:
            errors.append(
                f"{where}: peak.breakdown[{i}].bytes must be a "
                "non-negative int"
            )
            continue
        if not _is_number(share):
            errors.append(
                f"{where}: peak.breakdown[{i}].share must be a number"
            )
            continue
        if peak_bytes and abs(share - nbytes / peak_bytes) > _SHARE_TOL:
            errors.append(
                f"{where}: peak.breakdown[{i}].share ({share}) != "
                f"bytes/peak ({nbytes / peak_bytes})"
            )
        names.append(name)
        total += nbytes
        share_sum += float(share)
    if len(set(names)) != len(names):
        errors.append(f"{where}: duplicate names in peak.breakdown")
    # the headline invariant: attribution sums EXACTLY to the peak
    if total != peak_bytes:
        errors.append(
            f"{where}: breakdown sums to {total} B, not the peak "
            f"({peak_bytes} B) — attribution must be exact"
        )
    if peak_bytes and abs(share_sum - 1.0) > 1e-6:
        errors.append(
            f"{where}: breakdown shares sum to {share_sum}, not 1"
        )
    if base and CONTEXT_NAME not in names:
        errors.append(
            f"{where}: base_bytes > 0 but no {CONTEXT_NAME!r} entry in "
            "the breakdown"
        )
    # allocation lifetimes
    allocations = entry.get("allocations")
    if not isinstance(allocations, list):
        errors.append(f"{where}: 'allocations' must be a list")
        allocations = []
    alloc_names: Dict[str, List[Dict[str, Any]]] = {}
    for i, alloc in enumerate(allocations):
        if not isinstance(alloc, dict):
            errors.append(f"{where}: allocations[{i}] not an object")
            continue
        if not isinstance(alloc.get("name"), str) or not alloc.get("name"):
            errors.append(f"{where}: allocations[{i}].name must be a string")
            continue
        if not _is_int(alloc.get("bytes")) or alloc["bytes"] < 0:
            errors.append(
                f"{where}: allocations[{i}].bytes must be a "
                "non-negative int"
            )
            continue
        if not _is_number(alloc.get("alloc_ms")) or alloc["alloc_ms"] < 0.0:
            errors.append(
                f"{where}: allocations[{i}].alloc_ms must be a "
                "non-negative number"
            )
            continue
        free_ms = alloc.get("free_ms")
        if free_ms is not None:
            if not _is_number(free_ms):
                errors.append(
                    f"{where}: allocations[{i}].free_ms must be a "
                    "number or null"
                )
            elif float(free_ms) < float(alloc["alloc_ms"]):
                errors.append(
                    f"{where}: allocations[{i}] freed ({free_ms}) before "
                    f"allocated ({alloc['alloc_ms']})"
                )
        if not isinstance(alloc.get("scope"), str) or not alloc.get("scope"):
            errors.append(
                f"{where}: allocations[{i}].scope must be a string"
            )
        alloc_names.setdefault(alloc["name"], []).append(alloc)
    # every non-context breakdown entry must be a recorded allocation
    # that was live at the peak timestamp, with matching bytes.  A name
    # may be allocated, freed and allocated again (BFS's per-level
    # frontier), so the entry refers to the record of its name live at
    # the peak — or, when the peak's timestamp frees one and allocates
    # the next, the live one with the entry's bytes
    peak_ts = peak.get("ts_ms")
    ts = float(peak_ts) if _is_number(peak_ts) else math.inf
    for item in breakdown:
        if not isinstance(item, dict):
            continue
        name = item.get("name")
        if name == CONTEXT_NAME or not isinstance(name, str):
            continue
        records = alloc_names.get(name)
        if not records:
            errors.append(
                f"{where}: breakdown entry {name!r} has no allocation "
                "record"
            )
            continue
        live = [
            a for a in records
            if a["alloc_ms"] <= ts
            and not (_is_number(a.get("free_ms")) and a["free_ms"] < ts)
        ]
        same_size = [a for a in live if a["bytes"] == item.get("bytes")]
        # with none live, the liveness checks below reject the last one
        alloc = (same_size or live or records)[-1]
        if alloc.get("bytes") != item.get("bytes"):
            errors.append(
                f"{where}: breakdown entry {name!r} ({item.get('bytes')} B) "
                f"disagrees with its allocation record "
                f"({alloc.get('bytes')} B)"
            )
        if _is_number(peak_ts) and _is_number(alloc.get("alloc_ms")):
            if float(alloc["alloc_ms"]) > float(peak_ts):
                errors.append(
                    f"{where}: breakdown entry {name!r} allocated after "
                    "the peak"
                )
            free_ms = alloc.get("free_ms")
            if _is_number(free_ms) and float(free_ms) < float(peak_ts):
                errors.append(
                    f"{where}: breakdown entry {name!r} freed before "
                    "the peak"
                )
    # per-round high-water marks
    rounds = entry.get("rounds")
    if not isinstance(rounds, list):
        errors.append(f"{where}: 'rounds' must be a list")
        rounds = []
    for i, item in enumerate(rounds):
        if not isinstance(item, dict) or not _is_int(item.get("round")):
            errors.append(f"{where}: rounds[{i}] malformed")
            continue
        high = item.get("high_water_bytes")
        if not _is_int(high) or high < 0:
            errors.append(
                f"{where}: rounds[{i}].high_water_bytes must be a "
                "non-negative int"
            )
        elif high > peak_bytes:
            errors.append(
                f"{where}: rounds[{i}] high-water ({high}) above the "
                f"peak ({peak_bytes})"
            )
    for key in ("allocs", "frees"):
        if not _is_int(entry.get(key)) or entry[key] < 0:
            errors.append(f"{where}: {key!r} must be a non-negative int")
    findings = entry.get("findings")
    if not isinstance(findings, list):
        errors.append(f"{where}: 'findings' must be a list")
        findings = []
    for i, finding in enumerate(findings):
        if (
            not isinstance(finding, dict)
            or finding.get("detector") not in _MEMTRACE_DETECTORS
        ):
            errors.append(
                f"{where}: findings[{i}].detector must be one of "
                f"{_MEMTRACE_DETECTORS}"
            )


def validate_memtrace(record: Any) -> List[str]:
    """Check a parsed ``repro.memtrace/v1`` record; return problems."""
    errors: List[str] = []
    if not isinstance(record, dict):
        return [f"record must be an object, got {type(record).__name__}"]
    if record.get("schema") != SCHEMA_VERSION:
        errors.append(
            f"schema must be {SCHEMA_VERSION!r}, got {record.get('schema')!r}"
        )
    workers = record.get("workers")
    if not isinstance(workers, list):
        return errors + ["'workers' must be a list"]
    for i, entry in enumerate(workers):
        _check_worker(entry, f"workers[{i}]", errors)
    peak_bytes = record.get("peak_bytes")
    if not _is_int(peak_bytes) or peak_bytes < 0:
        errors.append("'peak_bytes' must be a non-negative int")
    else:
        worker_peaks = [
            w["peak"]["bytes"]
            for w in workers
            if isinstance(w, dict)
            and isinstance(w.get("peak"), dict)
            and _is_int(w["peak"].get("bytes"))
        ]
        expected = max(worker_peaks, default=0)
        if worker_peaks and peak_bytes != expected:
            errors.append(
                f"peak_bytes ({peak_bytes}) != max worker peak "
                f"({expected})"
            )
    names = [
        w.get("worker") for w in workers if isinstance(w, dict)
    ]
    if len(set(names)) != len(names):
        errors.append("duplicate worker names")
    return errors


def validate_memtrace_file(path: "str | Path") -> List[str]:
    """Validate one exported memtrace JSON file."""
    path = Path(path)
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    return [f"{path.name}: {p}" for p in validate_memtrace(record)]
