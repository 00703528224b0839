"""Benchmark runner: executes programs with the paper's failure modes.

The paper reports three outcome kinds besides a time: out-of-memory
("OOM"), force-terminated computation ("> 1hr"), and force-terminated
*loading* ("LD > 1hr").  :func:`run_program` maps our exceptions onto
those outcomes, and :class:`BenchCache` memoises (algorithm, dataset)
outcomes so the Table III and Table V benches share one set of runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.api import decompose, supported_keywords
from repro.errors import (
    BufferOverflowError,
    DeviceOutOfMemoryError,
    SimulatedTimeLimitExceeded,
)
from repro.graph import datasets
from repro.result import DecompositionResult

__all__ = ["Outcome", "run_program", "BenchCache", "SIMULATED_HOUR_MS"]

#: the scaled equivalent of the paper's one-hour force-termination
#: budget (the datasets and device are ~2^12 smaller than the paper's)
SIMULATED_HOUR_MS = 400.0

#: programs whose time budget models *loading*, not compute
_LOAD_GATED = {"vetga"}


@dataclass(frozen=True)
class Outcome:
    """One cell of a paper table.

    ``peak_bytes`` / ``attribution`` carry the exact memory telemetry
    behind ``peak_memory_mb`` when the program's runner takes
    ``memtrace`` (:func:`repro.api.supported_keywords`): ``attribution``
    maps every array live at the peak (plus the ``(context)`` base) to
    its bytes, and sums exactly to ``peak_bytes``.
    """

    algorithm: str
    dataset: str
    status: str  # "ok" | "oom" | "timeout" | "load-timeout"
    simulated_ms: Optional[float] = None
    simulated_ms_std: float = 0.0
    peak_memory_mb: Optional[float] = None
    rounds: int = 0
    peak_bytes: Optional[int] = None
    attribution: Optional[Dict[str, int]] = None

    @property
    def cell(self) -> str:
        """Paper-style table cell: a time, "OOM", or "> 1hr"."""
        if self.status == "oom":
            return "OOM"
        if self.status == "load-timeout":
            return "LD > 1hr"
        if self.status == "timeout":
            return "> 1hr"
        if self.simulated_ms_std > 0:
            return f"{self.simulated_ms:.3f}±{self.simulated_ms_std:.3f}"
        return f"{self.simulated_ms:.3f}"

    @property
    def memory_cell(self) -> str:
        """Table V cell: peak MB or "N/A" for failed runs."""
        if self.peak_memory_mb is None:
            return "N/A"
        return f"{self.peak_memory_mb:.2f}"


def _takes_peel_options(algorithm: str) -> bool:
    """Whether ``algorithm`` runs :func:`~repro.core.host.gpu_peel`
    (the multi-GPU runners take ``MultiGpuOptions`` instead)."""
    return algorithm.startswith("gpu-") and not algorithm.startswith(
        "gpu-multi"
    )


def _kwargs_for(algorithm: str, budget_ms: Optional[float]) -> dict:
    if budget_ms is None:
        return {}
    if "time_budget_ms" in supported_keywords(algorithm):
        return {"time_budget_ms": budget_ms}  # the GPU systems
    if _takes_peel_options(algorithm):
        from repro.core.host import GpuPeelOptions

        return {"options": GpuPeelOptions(time_budget_ms=budget_ms)}
    return {}  # CPU programs run to completion; harness checks after


def run_program(
    algorithm: str,
    dataset: str,
    budget_ms: Optional[float] = SIMULATED_HOUR_MS,
    repeats: int = 1,
) -> Outcome:
    """Run ``algorithm`` on ``dataset`` and classify the outcome.

    ``repeats > 1`` reruns single-GPU kernels with different
    schedule-fuzz seeds and reports mean±std of the simulated time (the
    paper runs its GPU programs 100 times; our simulator is
    deterministic unless fuzzed, so the spread comes from schedule
    jitter).  Other programs simply rerun.
    """
    graph = datasets.load(dataset)
    times = []
    result: Optional[DecompositionResult] = None
    for rep in range(max(1, repeats)):
        kwargs = _kwargs_for(algorithm, budget_ms)
        if "memtrace" in supported_keywords(algorithm):
            # memory telemetry is observability-only (byte-identical
            # simulated time and peak), so every bench run carries it
            kwargs["memtrace"] = True
        if repeats > 1 and _takes_peel_options(algorithm):
            from repro.core.host import GpuPeelOptions

            kwargs["options"] = GpuPeelOptions(
                time_budget_ms=budget_ms, preempt_prob=0.05, seed=rep
            )
        try:
            result = decompose(graph, algorithm, **kwargs)
        except DeviceOutOfMemoryError:
            return Outcome(algorithm, dataset, "oom")
        except BufferOverflowError:
            return Outcome(algorithm, dataset, "oom")
        except SimulatedTimeLimitExceeded:
            status = "load-timeout" if algorithm in _LOAD_GATED else "timeout"
            return Outcome(algorithm, dataset, status)
        times.append(result.simulated_ms)
    assert result is not None
    mean = float(np.mean(times))
    if budget_ms is not None and mean > budget_ms:
        # CPU programs have no in-run budget; classify afterwards
        return Outcome(algorithm, dataset, "timeout")
    memtrace = result.memtrace
    return Outcome(
        algorithm,
        dataset,
        "ok",
        simulated_ms=mean,
        simulated_ms_std=float(np.std(times)),
        peak_memory_mb=result.peak_memory_bytes / (1024 * 1024)
        if result.peak_memory_bytes
        else None,
        rounds=result.rounds,
        peak_bytes=memtrace.peak_bytes if memtrace is not None else None,
        attribution=(
            dict(memtrace.breakdown()) if memtrace is not None else None
        ),
    )


class BenchCache:
    """Memoised outcomes shared between benches (Tables III and V)."""

    def __init__(self, budget_ms: Optional[float] = SIMULATED_HOUR_MS):
        self.budget_ms = budget_ms
        self._memo: Dict[Tuple[str, str], Outcome] = {}

    def get(self, algorithm: str, dataset: str, repeats: int = 1) -> Outcome:
        key = (algorithm, dataset)
        if key not in self._memo:
            self._memo[key] = run_program(
                algorithm, dataset, budget_ms=self.budget_ms, repeats=repeats
            )
        return self._memo[key]
