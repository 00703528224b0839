"""Bench-harness unit tests: outcome classification and table rendering."""

import pytest

from repro.bench.runner import SIMULATED_HOUR_MS, BenchCache, Outcome, run_program
from repro.bench.tables import render_table


class TestOutcome:
    def test_ok_cell(self):
        o = Outcome("bz", "x", "ok", simulated_ms=1.2345)
        assert o.cell == "1.234" or o.cell == "1.235"

    def test_cell_with_std(self):
        o = Outcome("bz", "x", "ok", simulated_ms=1.0, simulated_ms_std=0.1)
        assert "±" in o.cell

    def test_failure_cells(self):
        assert Outcome("a", "x", "oom").cell == "OOM"
        assert Outcome("a", "x", "timeout").cell == "> 1hr"
        assert Outcome("a", "x", "load-timeout").cell == "LD > 1hr"

    def test_memory_cell(self):
        assert Outcome("a", "x", "oom").memory_cell == "N/A"
        ok = Outcome("a", "x", "ok", peak_memory_mb=1.5)
        assert ok.memory_cell == "1.50"


class TestRunProgram:
    def test_ok_run(self):
        outcome = run_program("bz", "amazon0601")
        assert outcome.status == "ok"
        assert outcome.simulated_ms > 0
        assert outcome.rounds > 0

    def test_oom_classified(self):
        outcome = run_program("medusa-peel", "it-2004")
        assert outcome.status == "oom"

    def test_load_timeout_classified(self):
        outcome = run_program("vetga", "it-2004")
        assert outcome.status == "load-timeout"

    def test_cpu_timeout_classified_post_hoc(self):
        outcome = run_program("networkx", "amazon0601", budget_ms=0.001)
        assert outcome.status == "timeout"

    def test_repeats_produce_spread(self):
        outcome = run_program("gpu-ours", "amazon0601", repeats=3)
        assert outcome.status == "ok"
        # schedule fuzzing may or may not shift cells around; std >= 0
        assert outcome.simulated_ms_std >= 0.0

    def test_multi_gpu_repeats_rerun_unfuzzed(self):
        # the multi-GPU runner takes no GpuPeelOptions (and no schedule
        # fuzzing), so its repeats are identical
        outcome = run_program("gpu-multi2", "amazon0601", repeats=2)
        assert outcome.status == "ok"
        assert outcome.simulated_ms_std == 0.0

    def test_no_budget(self):
        outcome = run_program("bz", "amazon0601", budget_ms=None)
        assert outcome.status == "ok"


class TestBenchCache:
    def test_memoisation(self):
        cache = BenchCache()
        a = cache.get("bz", "amazon0601")
        b = cache.get("bz", "amazon0601")
        assert a is b

    def test_default_budget_is_the_scaled_hour(self):
        assert BenchCache().budget_ms == SIMULATED_HOUR_MS


class TestRenderTable:
    def test_basic_layout(self):
        text = render_table("T", ["d", "a", "b"], [["x", "1", "2"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "x" in lines[-1] and "2" in lines[-1]

    def test_highlight_min_marks_winner(self):
        text = render_table(
            "T", ["d", "a", "b", "c"],
            [["x", "3.0", "1.0", "OOM"]],
            highlight_min=True,
        )
        assert "1.0*" in text
        assert "3.0*" not in text

    def test_highlight_handles_all_failures(self):
        text = render_table(
            "T", ["d", "a"], [["x", "OOM"]], highlight_min=True
        )
        assert "*" not in text.splitlines()[-1]

    def test_highlight_parses_std_cells(self):
        text = render_table(
            "T", ["d", "a", "b"],
            [["x", "2.0±0.1", "5.0"]],
            highlight_min=True,
        )
        assert "2.0±0.1*" in text
