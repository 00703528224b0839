"""Shared machinery for the graph-parallel system emulations.

Each system (Medusa, Gunrock, GSWITCH, VETGA) is re-implemented at the
level of its *programming model*: the same UDF structure, the same
iteration scheme, the same memory layout.  Execution is vectorised, and
each system converts the quantities it genuinely incurs — edges swept
per superstep, vertices filtered, frontier expansions, kernel launches
— into device cycles with per-system tuning constants.

The constants encode McSherry et al.'s observation (and Table III's
measurement) that general-purpose systems pay large per-element
overheads over a tailor-made kernel: message construction and combiner
machinery in Medusa (sorting for an h-index combiner is far costlier
than a sum), frontier bookkeeping in Gunrock, autotuned-but-still
-generic dispatch in GSWITCH, and full-length vector temporaries in
VETGA.  Values are calibrated against the ratios of Table III (see
EXPERIMENTS.md).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sanitize.report import SanitizerReport

__all__ = ["SystemTuning", "DEFAULT_TUNING", "lint_emulation"]


@dataclass(frozen=True)
class SystemTuning:
    """Per-system cycle costs (per element per pass) and overheads."""

    # Medusa: strict BSP, processes EVERY edge each superstep
    medusa_edge_sum_cycles: float = 3.0      # Peel program: sum combiner
    medusa_edge_hindex_cycles: float = 150.0  # MPM program: sort-based combiner
    medusa_vertex_cycles: float = 4.0
    medusa_superstep_launches: int = 3        # send / combine / update kernels

    # Gunrock: data-centric advance/filter over frontiers
    gunrock_filter_vertex_cycles: float = 2.0
    gunrock_advance_edge_cycles: float = 4.0
    gunrock_iteration_launches: int = 3

    # GSWITCH: autotuned kernels, compacted active set
    gswitch_filter_vertex_cycles: float = 0.7
    gswitch_advance_edge_cycles: float = 1.6
    gswitch_iteration_launches: int = 1
    gswitch_tuning_cycles: float = 300.0      # per-iteration feature probe

    # VETGA: full-length vector primitives per iteration (PyTorch-style)
    vetga_vector_op_cycles: float = 0.35      # per element per pass
    vetga_passes_per_iteration: float = 6.0   # the vector ops of one peel step
    vetga_load_us_per_edge: float = 2.7       # slow host-side loading

    # memory blow-ups relative to the CSR arrays (drives Table V / OOM)
    medusa_edge_state_factor: float = 1.5     # per-edge message + index buffers
    gunrock_frontier_factor: float = 1.5      # frontier queues sized by edges
    gswitch_frontier_factor: float = 0.95
    vetga_tensor_factor: float = 1.2          # int64 tensors + temporaries


DEFAULT_TUNING = SystemTuning()


def lint_emulation(module_name: str) -> "SanitizerReport":
    """Sanitizer report for one system emulation's own source.

    The emulations execute vectorised on the host and book device time
    through :meth:`~repro.gpusim.device.Device.charge` — they launch no
    SIMT kernels, so there is nothing for the dynamic racecheck to
    shadow.  ``sanitize=True`` on an emulation therefore degrades to
    the static lint pass (:mod:`repro.sanitize.lint`) over the
    emulation's module plus this shared base, which still catches any
    kernel-style generator that sneaks in with wall-clock, RNG or
    host-mutation misuse.
    """
    from repro.sanitize.lint import lint_module
    from repro.sanitize.report import SanitizerReport

    report = SanitizerReport()
    for name in (module_name, __name__):
        report.extend(lint_module(sys.modules[name]))
        report.modules_linted += 1
    return report
