#!/usr/bin/env python
"""CI smoke: telemetry overhead on the PR-1 fast path stays < 5%.

Times the shared sample→transport→store pipeline unit
(``pipeline_unit.build_unit``) with live instruments and with
do-nothing stand-ins at the same call sites, on *this* machine, and
asserts the relative overhead.  The live set is the full observability
plane: histograms/counters, the span ring's exemplar draw and spans,
the freshness tracker and the flight recorder — the instrumented
closure pays every per-stored-update obs cost the aggregator's hot path
pays.  The baseline still makes every obs call and clock read, so this
gates what the instruments cost, not what the call sites cost.  The
comparison is relative, so the assertion is machine-independent; to stay robust on
noisy shared runners the two variants are timed in strict alternation
(each pair of calls experiences the same interference), GC is paused
during the timed region, and the verdict is the **median of the
per-pair differences over the median bare op** — a preempted or
cache-cold call lands in one pair's tail and moves neither median.  A
whole measurement can still land in a slow phase of a shared host (one
run has read 3.4 % and 5.0 % on the same code), so the verdict is the
median of ``RUNS`` measurements in one invocation, each printed: a red
gate means a regression, not one unlucky run.

    PYTHONPATH=src python benchmarks/check_obs_overhead.py
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pipeline_unit import build_unit  # noqa: E402

LIMIT_PCT = 5.0
WARMUP = 600
PAIRS = 20_000
RUNS = 5


def measure_overhead_pct() -> tuple[float, float, float]:
    """Median bare ns/op, median per-pair (instrumented - bare) ns, and
    their ratio in percent."""
    clock = time.perf_counter
    with tempfile.TemporaryDirectory() as d_bare, \
            tempfile.TemporaryDirectory() as d_inst:
        bare, close_bare = build_unit(d_bare, instrumented=False)
        inst, close_inst = build_unit(d_inst, instrumented=True)
        for _ in range(WARMUP):
            bare()
            inst()
        bares = [0.0] * PAIRS
        diffs = [0.0] * PAIRS
        gc.disable()
        try:
            for i in range(PAIRS):
                t0 = clock()
                bare()
                t1 = clock()
                inst()
                t2 = clock()
                bares[i] = t1 - t0
                diffs[i] = (t2 - t1) - (t1 - t0)
        finally:
            gc.enable()
        close_bare()
        close_inst()
    bare_ns = statistics.median(bares) * 1e9
    diff_ns = statistics.median(diffs) * 1e9
    return bare_ns, diff_ns, 100.0 * diff_ns / bare_ns


def main() -> int:
    pcts = []
    for run in range(1, RUNS + 1):
        bare_ns, diff_ns, pct = measure_overhead_pct()
        pcts.append(pct)
        print(f"run {run}: median bare {bare_ns:.0f} ns/op   median per-pair "
              f"(instrumented - bare) {diff_ns:+.0f} ns   over {PAIRS} pairs"
              f"   {pct:+.2f}%")
    pct = statistics.median(pcts)
    print(f"overhead: {pct:+.2f}%  (median of {RUNS} runs; limit {LIMIT_PCT}%)")
    if pct >= LIMIT_PCT:
        print("FAIL: telemetry overhead exceeds the limit")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
