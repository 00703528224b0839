"""Nsight-Compute-style profiler for the simulated GPU.

A driver's ``profile=True`` attaches a :class:`KernelProfiler` to its
device; every launch then yields a speed-of-light :class:`LaunchProfile` (bound
classification, pipeline utilisation, achieved occupancy, divergence /
coalescing efficiency, atomic-serialisation share), and
:meth:`KernelProfiler.report` folds them into a :class:`ProfileReport`
with per-kernel and per-round aggregation, ``repro.profile/v1`` JSON
export, a human-readable table (the CLI's ``--ncu`` mode), and
folded-stack flamegraph output.  Profiling is observability-only:
simulated time is byte-identical with it on or off.

See ``docs/OBSERVABILITY.md`` for a walkthrough.
"""

from repro.profile.flamegraph import to_folded, write_folded
from repro.profile.profiler import PIPELINES, KernelProfiler, LaunchProfile
from repro.profile.report import (
    SCHEMA_VERSION,
    AggregateProfile,
    ProfileReport,
    validate_profile,
    validate_profile_file,
)

__all__ = [
    "PIPELINES",
    "SCHEMA_VERSION",
    "AggregateProfile",
    "KernelProfiler",
    "LaunchProfile",
    "ProfileReport",
    "to_folded",
    "validate_profile",
    "validate_profile_file",
    "write_folded",
]
