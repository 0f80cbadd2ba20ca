#!/usr/bin/env python
"""CI smoke: the full-scale fan-in sweep keeps its knee and its rows.

Two checks, both machine-independent (speed is the ledger's job:
``sets_per_s`` / ``setup_s`` @ ``fanin_knee``, ``benchmarks/ledger``):

1. **Full-scale knee.**  The complete full-scale sock sweep (up to
   10,229 samplers) runs once, inline; the knee must land exactly at the
   profile's 9,216-connection capacity, and the aggregator's live
   freshness tracker must report the ground-truth delivered/expected
   completeness *exactly* at the knee and at the over-capacity point
   (~0.901).  Each point hashes every stored row (sha256 over
   (timestamp, producer, set_name, values)) and counts its events.
   Every field of the regenerated artifact — digests, event counts,
   completeness, knee — must equal the one committed in
   ``BENCH_fanin.json``: the simulated history is a function of the
   cost model alone, so a number that moves is a behaviour change.  A
   change that means to move one commits the regenerated file.  The
   artifact therefore carries no wall-clock numbers at all.

   Event counts are *logical* events: heap-processed events plus the
   per-member events the sampler cohorts materialize inside vectorized
   sweeps (``engine.vectorized_events``), so the count stays comparable
   across releases however much work a sweep vectorizes.

2. **Sharded full-scale sweep.**  The same sweep runs again with the
   points fanned out, largest first, across one forked worker per host
   core (``repro.sim.shard.run_parallel``).  Every point's row —
   digest, event counts, completeness, tracker — must equal check 1's
   (so the knee and the tracker's exactness carry over).  The
   ``sharded`` block of ``BENCH_fanin.json`` records ``workers`` and
   ``host_cpus`` — the two fields that describe the host, not the
   simulation, and so the only two the identity check skips.

    PYTHONPATH=src python benchmarks/check_fanin.py
"""

from __future__ import annotations

import gc
import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The committed artifact: the identity oracle.
COMMITTED_PATH = os.path.join(_ROOT, "BENCH_fanin.json")
OUT_PATH = os.environ.get("BENCH_FANIN_OUT", "BENCH_fanin.json")

INTERVAL = 5.0
METRICS = 10
DURATION = 30.0

#: The fields that describe the host the artifact was generated on;
#: everything else is compared with the committed file.
HOST_FIELDS = ("sharded.workers", "sharded.host_cpus")


def _measure(n: int) -> dict:
    """Build+run one sweep point in *this* process; returns its artifact
    row: logical event counts (heap-processed plus cohort-vectorized
    member events), completeness, tracker and the row digest.  The
    cyclic GC is paused around build+run, as ``sweep_transport`` (the
    shipped sweep path) does.
    """
    from repro.experiments.fanin import _build, _rows_digest

    gc.collect()
    gc.disable()
    try:
        eng, env, agg, agg_x, store = _build(n, "sock", INTERVAL, METRICS,
                                             DURATION, scale=1)
        eng.run(until=DURATION)
    finally:
        gc.enable()
    expected = n * (DURATION / INTERVAL - 1)
    completeness = min(len(store.rows) / expected, 1.0)
    tracker = agg.freshness.fleet(env.now())["completeness"]
    return {"n_samplers": n,
            "events": eng.events_processed + eng.vectorized_events,
            "vectorized_events": eng.vectorized_events,
            "completeness": round(completeness, 4),
            "tracker_completeness": round(tracker, 4),
            "tracker_exact": tracker == completeness,
            "rows_sha256": _rows_digest(store)}


def check_full_scale() -> dict:
    from repro.experiments.fanin import default_sizes
    from repro.transport.base import get_transport_profile

    sizes = default_sizes("sock")
    cap = get_transport_profile("sock").max_connections
    per_point = []
    for n in sizes:
        row = _measure(n)
        per_point.append(row)
        print(f"  n={n:6d}  events {row['events']:8d}  "
              f"completeness {row['completeness']:.4f}  "
              f"tracker {row['tracker_completeness']:.4f}")
    knee = max(p["n_samplers"] for p in per_point
               if p["completeness"] >= 0.99)
    return {
        "benchmark": "fanin_sock_full_scale",
        "transport": "sock",
        "interval_s": INTERVAL,
        "metrics_per_set": METRICS,
        "duration_s": DURATION,
        "knee": knee,
        "profile_capacity": cap,
        "points": per_point,
        "total_events": sum(p["events"] for p in per_point),
    }


def check_sharded(inline: dict) -> dict:
    """Check 2: the full sweep fanned out across forked shard workers.

    Byte-identity is the gate: every point's row must equal the inline
    sweep's row for the same point, digest and counts alike.  One
    worker per host core (oversubscribed workers only serialize),
    points handed out largest first so the two biggest never share a
    worker.
    """
    from repro.sim.shard import run_parallel

    sizes = sorted((p["n_samplers"] for p in inline["points"]), reverse=True)
    host_cpus = os.cpu_count() or 1
    nworkers = min(host_cpus, len(sizes))
    per_point = sorted(run_parallel(_measure, sizes, nworkers),
                       key=lambda p: p["n_samplers"])
    digests_match = per_point == inline["points"]
    print(f"  sharded sweep: {nworkers} workers on {host_cpus} cpu(s), "
          f"rows {'identical' if digests_match else 'DIVERGED'}")
    return {
        "workers": nworkers,
        "host_cpus": host_cpus,
        "digests_match_inline": digests_match,
    }


def _leaves(doc, prefix: str = "") -> dict:
    """``{"a.0.b": value}`` for every leaf of a nested JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return {prefix: doc}
    out = {}
    for key, value in items:
        out.update(_leaves(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def main() -> int:
    with open(COMMITTED_PATH) as f:
        committed = _leaves(json.load(f))

    print("== full-scale sock sweep (inline) ==")
    report = check_full_scale()
    # Drop the last world before forking, so the workers do not each
    # inherit and collect it.
    gc.collect()
    print(f"knee {report['knee']} (capacity {report['profile_capacity']}), "
          f"{report['total_events']} events")
    if report["knee"] != report["profile_capacity"]:
        print("FAIL: full-scale knee moved off the profile capacity")
        return 1
    # The live freshness tracker must agree with ground truth *exactly*
    # at the knee and at the over-capacity point — same delivered count,
    # same elapsed-time expectation, same clamp.
    cap = report["profile_capacity"]
    checked = [p for p in report["points"] if p["n_samplers"] >= cap]
    if not checked:
        print("FAIL: sweep never reached the knee point")
        return 1
    for p in checked:
        if not p["tracker_exact"]:
            print(f"FAIL: freshness tracker diverged from ground truth at "
                  f"n={p['n_samplers']} "
                  f"({p['tracker_completeness']} != {p['completeness']})")
            return 1
    print(f"freshness tracker exact at {[p['n_samplers'] for p in checked]}")

    print("\n== full-scale sock sweep (sharded, one worker per core) ==")
    report["sharded"] = check_sharded(report)
    with open(OUT_PATH, "w") as f:
        json.dump(report, f, indent=2)
    print(f"wrote {OUT_PATH}")
    measured = _leaves(report)
    moved = [key for key in sorted(set(committed) | set(measured))
             if key not in HOST_FIELDS
             and committed.get(key) != measured.get(key)]
    if moved:
        print(f"FAIL: {moved} differ from the values committed in "
              f"{COMMITTED_PATH} — the simulated history changed; if that "
              "is intended, commit the regenerated file")
        return 1
    if not report["sharded"]["digests_match_inline"]:
        print("FAIL: sharded sweep rows diverged from the inline sweep — "
              "the shard byte-identity contract is broken")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(_ROOT, "src"))
    sys.exit(main())
