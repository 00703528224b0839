"""CI-gate tests for the ``perf`` section of scripts/check_matrix.py:
it passes on the committed baseline and demonstrably fails on doctored
budgets (the ``matrix_gate`` fixture shares one matrix measurement)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
RESULTS = REPO_ROOT / "benchmarks" / "results"
BASELINE = RESULTS / "matrix_baseline.json"


@pytest.fixture
def gate(matrix_gate):
    return matrix_gate.gate


def _doctor(tmp_path, mutate, only=("ours",)):
    """A doctored baseline whose perf section pins only ``only``."""
    record = json.loads(BASELINE.read_text())
    perf = record["perf"]
    perf["variants"] = {name: perf["variants"][name] for name in only}
    perf.pop("vp_check", None)
    mutate(perf)
    path = tmp_path / "matrix_baseline.json"
    path.write_text(json.dumps(record))
    return str(path)


def test_gate_passes_on_committed_baseline(gate, tmp_path, capsys):
    trajectory = tmp_path / "trajectory.json"
    assert gate.main([str(BASELINE), "--trajectory", str(trajectory)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert ("perf: 11 variant(s) on web-Google within ±5% cycles, bound "
            "classes, Table II cells; trackers VP win: OK") in out
    record = json.loads(trajectory.read_text())
    assert record["schema"] == gate.TRAJECTORY_SCHEMA
    assert len(record["records"]) == 1
    entry = record["records"][0]
    assert entry["ok"] is True
    assert set(entry["cycles"]) == set(
        json.loads(BASELINE.read_text())["perf"]["variants"]
    )


def test_gate_fails_on_2x_slowdown(gate, tmp_path, capsys):
    # halving the committed budget makes the fresh run look 2x slower
    def halve_budget(perf):
        perf["variants"]["ours"]["cycles"] /= 2.0

    baseline = _doctor(tmp_path, halve_budget)
    assert gate.main([baseline, "--quick", "--no-trajectory"]) == 1
    assert "performance regression" in capsys.readouterr().err


def test_gate_fails_on_stale_baseline(gate, tmp_path, capsys):
    def double_budget(perf):
        perf["variants"]["ours"]["cycles"] *= 2.0

    baseline = _doctor(tmp_path, double_budget)
    assert gate.main([baseline, "--quick", "--no-trajectory"]) == 1
    assert "stale baseline" in capsys.readouterr().err


def test_gate_fails_on_flipped_bound_class(gate, tmp_path, capsys):
    def flip_bound(perf):
        bounds = perf["variants"]["ours"]["bounds"]
        assert bounds["loop_kernel"] != "memory"
        bounds["loop_kernel"] = "memory"

    baseline = _doctor(tmp_path, flip_bound)
    assert gate.main([baseline, "--quick", "--no-trajectory"]) == 1
    assert "roofline balance moved" in capsys.readouterr().err


def test_gate_writes_ci_artifacts(gate, tmp_path, capsys):
    artifacts = tmp_path / "artifacts"
    baseline = _doctor(tmp_path, lambda perf: None)
    assert gate.main([
        baseline, "--quick", "--no-trajectory", "--artifacts", str(artifacts),
    ]) == 0
    assert "Speed-of-Light" in (artifacts / "sol_report.txt").read_text()
    folded = (artifacts / "profile.folded").read_text().strip().splitlines()
    assert folded and all(
        line.rsplit(" ", 1)[1].isdigit() for line in folded
    )


def test_gate_appends_to_existing_trajectory(gate, tmp_path):
    trajectory = tmp_path / "trajectory.json"
    baseline = _doctor(tmp_path, lambda perf: None)
    assert gate.main([baseline, "--quick",
                      "--trajectory", str(trajectory)]) == 0
    assert gate.main([baseline, "--quick",
                      "--trajectory", str(trajectory)]) == 0
    record = json.loads(trajectory.read_text())
    assert len(record["records"]) == 2


def test_gate_exits_2_for_missing_baseline(gate, capsys):
    with pytest.raises(SystemExit) as exc:
        gate.main(["/nonexistent/matrix_baseline.json"])
    assert exc.value.code == 2
    assert "no such file" in capsys.readouterr().err
