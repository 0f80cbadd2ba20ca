#!/usr/bin/env python
"""Sampler-side CPU of the real-time path: the ``sock_loopback`` samplers
without the aggregator.

Builds the two sampler daemons of the ledger's ``sock_loopback`` world
(2 daemons x 32 synthetic 64-metric sets, synchronous at 20 ms, one
shared ``RealEnv``, pinned to one core), lets them sample for
``--seconds`` and prints the process CPU time per sample taken.  Nothing
pulls the sets, so the number is the timer thread, the worker pools and
the samplers alone: the share of ``cpu_us_per_set @ sock_loopback``
that one wake-up per cadence moves.

    PYTHONPATH=src python benchmarks/sampler_only.py --seconds 10

Compare two commits by running it alternately from sibling checkouts
(host noise moves single runs by several percent).
"""

from __future__ import annotations

import argparse
import json
import os
import time

import repro.plugins  # noqa: F401  (registers the samplers)
from repro.core import Ldmsd
from repro.core.env import RealEnv


def measure(seconds: float, daemons: int = 2, sets: int = 32,
            interval: float = 0.02) -> dict:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = RealEnv()
    built = []
    plugins = []
    try:
        for s in range(daemons):
            d = Ldmsd(f"s{s}", env=env, transports={}, mem="4MB", workers=1,
                      conn_threads=1, flush_threads=1)
            built.append(d)
            for j in range(sets):
                plugins.append(d.load_sampler(
                    "synthetic", instance=f"s{s}/syn{j}",
                    component_id=s * sets + j + 1, num_metrics=64))
                d.start_sampler(f"s{s}/syn{j}", interval=interval, offset=0.0)
        time.sleep(1.0)  # warm-up
        n0 = sum(p.samples_taken for p in plugins)
        c0 = time.process_time()
        time.sleep(seconds)
        cpu = time.process_time() - c0
        samples = sum(p.samples_taken for p in plugins) - n0
    finally:
        for d in built:
            d.shutdown()
        env.shutdown()
    return {"samples": samples, "cpu_s": cpu,
            "cpu_us_per_sample": cpu / samples * 1e6 if samples else None,
            "expected": round(seconds / interval) * daemons * sets}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()
    print(json.dumps(measure(args.seconds)))


if __name__ == "__main__":
    main()
