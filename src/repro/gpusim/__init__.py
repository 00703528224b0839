"""SIMT GPU simulator: the substrate the paper's CUDA kernels run on.

See DESIGN.md section 2 for why a simulator substitutes for the Tesla
P100 and what it preserves.  Public entry points:

* :class:`~repro.gpusim.device.Device` — memory + kernel launches +
  accumulated simulated time,
* :class:`~repro.gpusim.spec.DeviceSpec` — hardware parameters,
* :class:`~repro.gpusim.costmodel.CostModel` — cycle cost constants,
* :class:`~repro.gpusim.context.WarpContext` — the API kernels program
  against (loads, stores, atomics, shared memory, warp primitives),
* :func:`~repro.gpusim.engine.get_engine` /
  :func:`~repro.gpusim.engine.available_engines` — the pluggable
  execution engines (``"reference"``, ``"vectorized"``);
  see ``docs/SIMULATOR.md`` for the architecture.
"""

from repro.gpusim.context import BARRIER, STEP, WarpContext
from repro.gpusim.costmodel import BlockTiming, CostModel
from repro.gpusim.device import Device
from repro.gpusim.engine import (
    DEFAULT_ENGINE,
    ExecutionEngine,
    FallbackToReference,
    ReferenceEngine,
    VectorizedEngine,
    available_engines,
    get_engine,
    has_vectorized_impl,
    register_vectorized_kernel,
    vectorized_kernel_names,
)
from repro.gpusim.memory import DeviceArray, GlobalMemory
from repro.gpusim.scheduler import KernelStats, run_kernel
from repro.gpusim.spec import DeviceSpec

__all__ = [
    "BARRIER",
    "STEP",
    "WarpContext",
    "BlockTiming",
    "CostModel",
    "DEFAULT_ENGINE",
    "Device",
    "DeviceArray",
    "ExecutionEngine",
    "FallbackToReference",
    "GlobalMemory",
    "KernelStats",
    "ReferenceEngine",
    "VectorizedEngine",
    "available_engines",
    "get_engine",
    "has_vectorized_impl",
    "register_vectorized_kernel",
    "run_kernel",
    "vectorized_kernel_names",
    "DeviceSpec",
]
