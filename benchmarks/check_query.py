#!/usr/bin/env python
"""CI smoke: the query/serving tier holds its shape at reduced scale.

Runs the :mod:`repro.experiments.query_load` client-population
experiment (pollers + alert evaluators + range scanners against one
aggregator) twice and checks the properties that define the tier, all
machine-independent:

1. **Traffic served.**  Every client class got replies; reply count
   tracks request count (the only shortfall allowed is requests still
   in flight at the horizon).
2. **Cache effectiveness.**  The hot-window + LRU cache answers the
   dashboard-heavy mix: hit rate must clear ``MIN_HIT_PERMILLE``
   (dashboards poll the hot window; evaluators repeat identical rollup
   queries — the measured smoke-scale rate is ~90%+, floor 600‰).
3. **Latency sanity.**  Served p50/p95/p99 are simulated quantities
   (worker-pool queueing + per-row cost), so they are *exact* across
   runs and must be non-zero and ordered p50 <= p95 <= p99.
4. **Determinism.**  The same-seed replay fingerprint — every counter,
   every quantile, and the SHA-256 of the SOS container bytes — must
   match exactly.
5. **Identity with the committed artifact.**  Every field of the run —
   each counter, quantile and the ``container_sha256`` — must equal the
   committed ``BENCH_query.json`` (read before the run): the simulated
   history is a function of the cost model alone, so a host-speed
   change to the read path moves nothing here, and a number that moves
   is a behaviour change.  A change that means to move one commits the
   regenerated file.  (Speed is the ledger's job: ``query_mix``,
   ``benchmarks/ledger``.)

Writes the full trajectory to ``BENCH_query.json`` for the CI
artifact (``BENCH_QUERY_OUT=...`` to leave the committed file alone).
A failing run never touches that path: it leaves the regenerated
trajectory beside it as ``BENCH_query.new.json`` and prints where.

    PYTHONPATH=src python benchmarks/check_query.py
"""

from __future__ import annotations

import json
import os
import sys

MIN_HIT_PERMILLE = 600
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The committed artifact: the identity oracle.
COMMITTED_PATH = os.path.join(_ROOT, "BENCH_query.json")
OUT_PATH = os.environ.get("BENCH_QUERY_OUT", "BENCH_query.json")

N_SAMPLERS = 8
N_METRICS = 6
INTERVAL = 1.0
DURATION = 120.0


def _leaves(doc, prefix: str = "") -> dict:
    """``{"a.b.c": value}`` for every leaf of a nested JSON object."""
    if not isinstance(doc, dict):
        return {prefix: doc}
    out = {}
    for key, value in doc.items():
        out.update(_leaves(value, f"{prefix}.{key}" if prefix else key))
    return out


def staged_path(path: str) -> str:
    """Where a run writes its artifact before the checks pass."""
    root, ext = os.path.splitext(path)
    return f"{root}.new{ext}"


def main() -> int:
    from repro.experiments import query_load

    with open(COMMITTED_PATH, "r", encoding="utf-8") as f:
        committed = _leaves(json.load(f))
    # Run from the repo root, OUT_PATH is the oracle itself: write
    # beside it and move into place only once every check passed.
    staged = staged_path(OUT_PATH)

    out = query_load.main([
        "--samplers", str(N_SAMPLERS),
        "--metrics", str(N_METRICS),
        "--interval", str(INTERVAL),
        "--duration", str(DURATION),
        "--out", staged,
    ])
    r = out["run"]

    failures = []
    for kind in ("poller", "evaluator", "scanner"):
        s = getattr(r, kind)
        if s.replies == 0:
            failures.append(f"{kind}: no replies served")
        if s.sent - s.replies > s.clients:
            failures.append(
                f"{kind}: {s.sent - s.replies} unanswered requests "
                f"(> {s.clients} in-flight allowance)")
    if r.cache_hit_permille < MIN_HIT_PERMILLE:
        failures.append(
            f"cache hit rate {r.cache_hit_permille}‰ under the "
            f"{MIN_HIT_PERMILLE}‰ floor")
    if not (0 < r.serve_us_p50 <= r.serve_us_p95 <= r.serve_us_p99):
        failures.append(
            f"served quantiles broken: p50={r.serve_us_p50} "
            f"p95={r.serve_us_p95} p99={r.serve_us_p99}")
    if r.rows_served == 0:
        failures.append("no rows served")
    if not out["deterministic"]:
        failures.append("same-seed replay diverged")

    with open(staged, "r", encoding="utf-8") as f:
        measured = _leaves(json.load(f))
    for key in sorted(set(committed) | set(measured)):
        if committed.get(key) != measured.get(key):
            failures.append(
                f"{key} = {measured.get(key)!r} differs from the "
                f"{committed.get(key)!r} committed in {COMMITTED_PATH} — "
                "the simulated history changed; if that is intended, "
                "commit the regenerated file")

    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        print(f"regenerated artifact left at {staged}; {OUT_PATH} untouched")
        return 1
    os.replace(staged, OUT_PATH)
    print(f"query smoke ok: {r.query_requests} requests, "
          f"{r.cache_hit_permille / 10:.1f}% cached, "
          f"p99 {r.serve_us_p99}us, deterministic")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(_ROOT, "src"))
    sys.exit(main())
