"""Disjoint-shard fan-out: independent DES worlds across forked workers.

A single heap-driven :class:`~repro.sim.engine.Engine` tops out
around 10^5 logical events/s in CPython.  Work that splits into
*self-contained worlds* — the fan-in sweep's independent points, the
fleet trace's time slices — runs one world per job across forked worker
processes; each job builds its own engine, fabric, daemons and seeds,
so its output is byte-identical to the inline run of the same job.

There is one engine per world and no cross-worker synchronization: a
world that does not fit one engine is not split (DESIGN.md, "Why
coupled windows were removed").

Toggle: ``REPRO_SHARDS=N`` (default off) is the worker count
:func:`maybe_parallel` uses.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from typing import Any, Callable, Sequence

from repro.util.errors import ConfigError, SimulationError

__all__ = [
    "shards_default",
    "run_parallel",
    "maybe_parallel",
]


def shards_default() -> int:
    """The ``REPRO_SHARDS`` toggle: worker count, ``0``/``1`` = off."""
    raw = os.environ.get("REPRO_SHARDS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"REPRO_SHARDS={raw!r} is not an integer")
    if n < 0:
        raise ConfigError(f"REPRO_SHARDS={n} must be >= 0")
    return 0 if n < 2 else n


def _parallel_worker(fn, shard_id: int, payloads: Sequence, cursor, tx) -> None:
    try:
        done = []
        i = shard_id
        while i < len(payloads):
            done.append((i, fn(payloads[i])))
            with cursor.get_lock():
                i = cursor.value
                cursor.value = i + 1
        tx.send(("ok", done))
    except BaseException:
        tx.send(("err", traceback.format_exc()))
    finally:
        tx.close()


def _collect(procs, outs) -> list:
    results = []
    try:
        for rx in outs:
            status, payload = rx.recv()
            if status != "ok":
                raise SimulationError(f"shard worker failed:\n{payload}")
            results.append(payload)
    except BaseException:
        # Nobody reads the remaining pipes now, so a sibling blocked
        # sending a result larger than the pipe buffer would never exit
        # and the join below would never return.  SIGKILL, not SIGTERM:
        # a worker inherits whatever handler the parent installed.
        for p in procs:
            p.kill()
        raise
    finally:
        for p in procs:
            p.join()
    return results


def run_parallel(fn: Callable[[Any], Any], payloads: Sequence,
                 nshards: int) -> list:
    """Run ``fn(payload)`` for every payload across ``nshards`` forked
    workers; results come back in payload order.

    Payloads are handed out in the order given: worker ``s`` starts on
    payload ``s`` and each worker takes the next unclaimed payload as it
    finishes one — greedy packing onto the least-loaded worker.  A
    caller that passes payloads largest-first therefore gets
    longest-job-first scheduling, and its two biggest jobs never share
    a worker.

    For *disjoint* shards only: each call must be a self-contained
    world (its own engine, fabric, daemons, seeds), which is exactly
    what makes the per-shard output byte-identical to the unsharded run
    restricted to that shard — the worker executes the very same code
    on the very same inputs, just in its own address space.  ``fn`` and
    payloads ride the fork; results must be picklable.
    """
    if not payloads:
        return []
    nshards = max(1, min(nshards, len(payloads)))
    ctx = multiprocessing.get_context("fork")
    cursor = ctx.Value("l", nshards)
    procs = []
    outs = []
    for s in range(nshards):
        rx, tx = ctx.Pipe(False)
        outs.append(rx)
        procs.append(ctx.Process(
            target=_parallel_worker,
            args=(fn, s, payloads, cursor, tx),
            daemon=True))
    for p in procs:
        p.start()
    results: list = [None] * len(payloads)
    for done in _collect(procs, outs):
        for i, res in done:
            results[i] = res
    return results


def maybe_parallel(fn: Callable[[Any], Any], payloads: Sequence,
                   nshards: int | None = None) -> list:
    """``run_parallel`` under ``REPRO_SHARDS`` (or an explicit count);
    inline, in-order execution when sharding is off."""
    if nshards is None:
        nshards = shards_default()
    if nshards < 2 or len(payloads) < 2:
        return [fn(job) for job in payloads]
    return run_parallel(fn, payloads, nshards)
