"""Known-bad fixture kernels: each one makes exactly one detector fire.

These kernels are deliberately wrong — they exist so the sanitizer
tests can prove every detector catches the hazard it documents (and
pins the ``file:line`` provenance to this file).  Never import them
into production code.

The first group races at runtime and is exercised through
``Device.launch`` under a sanitizer; the second group violates the static
lint rules and is only ever parsed, not executed.
"""

from __future__ import annotations

import datetime
import random
import time

import numpy as np

# -- dynamic racecheck fixtures ---------------------------------------------


def shared_write_write_race(ctx):
    """Every warp plain-writes the same shared slot in the same epoch."""
    arr = ctx.smem_array("slots", 4)
    ctx.sstore(arr, 0, ctx.warp_id)
    yield ctx.STEP
    ctx.sload(arr, 0)
    yield ctx.STEP


def global_write_race(ctx, out):
    """Every block plain-writes the same global word, unsynchronised."""
    ctx.gstore(out, 0, ctx.global_warp_id)
    yield ctx.STEP
    ctx.gload(out, 0)
    yield ctx.STEP


def global_race_fixed(ctx, out):
    """The same update done right: atomics only — must stay clean."""
    ctx.atomic_global(out, 0, 1)
    yield ctx.STEP
    ctx.atomic_global(out, 0, -1)
    yield ctx.STEP


def barrier_divergence(ctx):
    """Only warp 0 reaches the __syncthreads: divergent generations."""
    if ctx.warp_id == 0:
        yield ctx.BARRIER
    yield ctx.STEP


def ballot_after_unsynced_write(ctx):
    """Warp 0 writes shared data other warps ballot on, no barrier."""
    arr = ctx.smem_array("flags", 1)
    if ctx.warp_id == 0:
        ctx.sstore(arr, 0, 1)
    yield ctx.STEP
    if ctx.warp_id != 0:
        vals = ctx.sload(arr, np.zeros(ctx.warp_size, dtype=np.int64))
        ctx.ballot(np.asarray(vals) > 0)
    yield ctx.STEP


def ballot_fixed(ctx):
    """Same shape with a barrier between write and ballot — clean."""
    arr = ctx.smem_array("flags", 1)
    if ctx.warp_id == 0:
        ctx.sstore(arr, 0, 1)
    yield ctx.BARRIER
    vals = ctx.sload(arr, np.zeros(ctx.warp_size, dtype=np.int64))
    ctx.ballot(np.asarray(vals) > 0)
    yield ctx.STEP


# -- static lint fixtures (parsed, never executed) --------------------------


def illegal_yield_kernel(ctx):
    ctx.charge(1)
    yield "sync"


def wall_clock_kernel(ctx):
    started = time.time()
    _ = datetime.datetime.now()
    ctx.charge(1)
    yield ctx.STEP
    ctx.charge(time.time() - started)


def rng_kernel(ctx):
    if random.random() < 0.5:
        ctx.charge(1)
    noise = np.random.default_rng(0).integers(0, 2)
    ctx.charge(int(noise))
    yield ctx.STEP


def host_mutation_kernel(ctx, deg, out):
    deg[0] = 99
    out.data[1] = 7
    deg += 1
    yield ctx.STEP


def unsynced_shared_kernel(ctx):
    if ctx.warp_id == 0:
        ctx.smem_set("head", 5)
    head = ctx.smem_get("head", 0)
    ctx.charge(head)
    yield ctx.STEP


def clean_kernel(ctx, out):
    """Every rule followed: must produce zero findings."""
    if ctx.warp_id == 0:
        ctx.smem_set("head", 0)
    yield ctx.BARRIER
    base = ctx.smem_atomic_add("head", ctx.warp_size, lanes=ctx.warp_size)
    ctx.atomic_global(out, 0, 1)
    ctx.charge(base)
    yield ctx.STEP
