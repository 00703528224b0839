"""CI-gate tests for the run-report, critpath and identity sections of
scripts/check_matrix.py, and for the one-run-per-program contract.

The failure cases doctor the shared ``matrix_gate`` measurement (a
tampered critpath floor, a dropped memtrace section, counters that
drift on the plain rerun) and drive the gate's :func:`main` on the
committed baseline.
"""

from __future__ import annotations

import copy
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.schema import SIBLING_SCHEMAS
from repro.obs.critpath import CritPathReport
from repro.obs.runreport import RunReport

BASELINE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "matrix_baseline.json"
)


def run_doctored(matrix_gate, monkeypatch, **changes):
    """Run the gate on the committed baseline over a doctored copy of
    the shared measurement."""
    doctored = replace(matrix_gate.matrix, vp={}, oom={}, **changes)
    gate = matrix_gate.gate
    monkeypatch.setattr(gate, "measure", lambda baseline, quick: doctored)
    return gate.main([str(BASELINE), "--quick", "--no-trajectory"])


def test_gate_makes_every_old_gates_checks_with_their_counts(
    matrix_gate, tmp_path, capsys
):
    gate = matrix_gate.gate
    trajectory = tmp_path / "trajectory.json"
    assert gate.main([str(BASELINE), "--trajectory", str(trajectory)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert (
        "perf: 11 variant(s) on web-Google within ±5% cycles, bound "
        "classes, Table II cells; trackers VP win: OK"
    ) in out
    assert (
        "memory: 16 program(s) on web-Google with exact peaks, ordering, "
        "Table V cells; it-2004 OOM: OK"
    ) in out
    assert "critpath: 11 program(s), 251 invariant(s) checked: OK" in out
    (report,) = [line for line in out if line.startswith("run report:")]
    assert "(27 on gpu-ours, pkc, semi-external)" in report
    assert "identity: 20 plain rerun(s) byte-identical: OK" in out
    record = json.loads(trajectory.read_text())
    assert SIBLING_SCHEMAS["repro.bench-trajectory/v1"](record) == []
    (entry,) = record["records"]
    assert {"cycles", "peaks", "runreport", "critpath"} <= set(entry)
    assert entry["critpath"]["invariants_checked"] == 251
    assert len(entry["runreport"]["sections"]) == len(gate.MATRIX)


def test_each_program_runs_once_instrumented_and_once_plain(matrix_gate):
    gate, calls = matrix_gate.gate, matrix_gate.calls
    assert len(gate.MATRIX) == 18
    expected = {("collect", gate.MATRIX): 1}
    expected.update({("plain", name): 1 for name in gate.MATRIX})
    for variant in ("vw2", "vw4"):  # not registry programs
        expected["gpu_peel", variant, True] = 1
        expected["gpu_peel", variant, False] = 1
    # the trackers VP check: one profiled run each of Ours and VP
    expected["gpu_peel", "ours", True] = 1
    expected["gpu_peel", "vp", True] = 1
    assert dict(calls) == expected


def test_gate_fails_on_tampered_critpath_floor(
    matrix_gate, monkeypatch, capsys
):
    runs = matrix_gate.matrix.runs
    record = copy.deepcopy(runs["gpu-ours"].critpath.record)
    record["kernels"]["loop_kernel"]["floor_cycles"] += 1.0
    tampered = replace(runs["gpu-ours"], critpath=CritPathReport(record))
    assert run_doctored(
        matrix_gate, monkeypatch, runs={**runs, "gpu-ours": tampered}
    ) == 1
    err = capsys.readouterr().err
    assert "critpath: gpu-ours: stored floor for 'loop_kernel'" in err


def test_gate_fails_on_dropped_memtrace_section(
    matrix_gate, monkeypatch, capsys
):
    report = matrix_gate.matrix.report
    sections = list(report.sections)
    sections[0] = {**sections[0], "memtrace": None}
    dropped = RunReport(dataset=report.dataset, sections=tuple(sections))
    assert run_doctored(matrix_gate, monkeypatch, report=dropped) == 1
    err = capsys.readouterr().err
    assert "run report: report lacks memtrace attribution" in err


@pytest.mark.parametrize("program", ["gpu-ours", "gunrock", "gpu-vw2"])
def test_gate_fails_when_counters_drift_on_the_plain_rerun(
    matrix_gate, monkeypatch, capsys, program
):
    plain = matrix_gate.matrix.plain
    counters = dict(plain[program].counters)
    first = next(iter(counters))
    counters[first] += 1.0
    drifted = replace(plain[program], counters=counters)
    assert run_doctored(
        matrix_gate, monkeypatch, plain={**plain, program: drifted}
    ) == 1
    err = capsys.readouterr().err
    assert f"identity: {program}: counters drifted with telemetry on" in err
