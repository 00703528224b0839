"""CI-gate tests for the ``memory`` section of scripts/check_matrix.py.

Drives the gate's :func:`main` against small purpose-built baselines
(four variants + one system) so the failure modes the Table V claims
need — an injected 2x peak and a flipped ordering — are demonstrated
by tests, not just by hand.  The ``matrix_gate`` fixture shares one
matrix measurement between them.
"""

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "benchmarks" / "results" / "matrix_baseline.json"


@pytest.fixture
def gate(matrix_gate):
    return matrix_gate.gate


@pytest.fixture
def committed_baseline():
    return json.loads(BASELINE.read_text())


def small_baseline(committed, **overrides):
    """The committed baseline with its memory section trimmed to a
    four-program subset and no big-graph OOM run."""
    memory = committed["memory"]
    section = {
        "dataset": memory["dataset"],
        "variants": {
            name: memory["variants"][name]
            for name in ("gpu-ours", "gpu-sm", "gpu-vp", "gpu-ec")
        },
        "systems": {"gswitch": memory["systems"]["gswitch"]},
        "ordering": {
            "minimal_tie": ["gpu-ours", "gpu-sm", "gpu-vp"],
            "above": ["gpu-ec"],
        },
    }
    section.update(overrides)
    return {**committed, "memory": section}


def write(tmp_path, record):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(record))
    return str(path)


def run(gate, path, *extra):
    return gate.main([path, "--quick", "--no-trajectory", *extra])


def test_committed_baseline_is_schema_valid(committed_baseline):
    from repro.bench.schema import SIBLING_SCHEMAS

    validator = SIBLING_SCHEMAS["repro.matrix-baseline/v1"]
    assert validator(committed_baseline) == []
    memory = committed_baseline["memory"]
    assert set(memory["ordering"]["minimal_tie"]) == {
        "gpu-ours", "gpu-sm", "gpu-vp"
    }
    assert memory["oom"]["dataset"] == "it-2004"


def test_gate_passes_on_fresh_measurements(
    gate, committed_baseline, tmp_path, capsys
):
    path = write(tmp_path, small_baseline(committed_baseline))
    assert run(gate, path) == 0
    assert "OK" in capsys.readouterr().out


def test_gate_fails_on_injected_2x_peak(
    gate, committed_baseline, tmp_path, capsys
):
    record = small_baseline(committed_baseline)
    record["memory"]["variants"]["gpu-ours"] *= 2
    assert run(gate, write(tmp_path, record)) == 1
    assert "peak" in capsys.readouterr().err


def test_gate_fails_on_flipped_ordering(
    gate, committed_baseline, tmp_path, capsys
):
    record = small_baseline(committed_baseline, ordering={
        "minimal_tie": ["gpu-ours", "gpu-sm", "gpu-vp", "gpu-ec"],
        "above": [],
    })
    assert run(gate, write(tmp_path, record)) == 1
    assert "no longer tie" in capsys.readouterr().err


def test_gate_writes_artifacts(gate, committed_baseline, tmp_path):
    from repro.memtrace import validate_memtrace_file

    path = write(tmp_path, small_baseline(committed_baseline))
    artifacts = tmp_path / "artifacts"
    assert run(gate, path, "--artifacts", str(artifacts)) == 0
    assert "Memory telemetry" in (
        artifacts / "memory_timelines.txt"
    ).read_text()
    assert validate_memtrace_file(artifacts / "memtrace.json") == []


def test_gate_appends_peaks_trajectory(gate, committed_baseline, tmp_path):
    from repro.bench.schema import SIBLING_SCHEMAS

    baseline = write(tmp_path, small_baseline(committed_baseline))
    trajectory = tmp_path / "trajectory.json"
    assert gate.main([baseline, "--quick",
                      "--trajectory", str(trajectory)]) == 0
    record = json.loads(trajectory.read_text())
    assert SIBLING_SCHEMAS["repro.bench-trajectory/v1"](record) == []
    (entry,) = record["records"]
    assert entry["peaks"]["gpu-ours"] > 0
    assert entry["ok"] is True


def test_gate_rejects_missing_or_invalid_baseline(gate, tmp_path):
    with pytest.raises(SystemExit) as exc:
        gate.main([str(tmp_path / "missing.json"), "--quick"])
    assert exc.value.code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope"}))
    assert gate.main([str(bad), "--quick"]) == 2
