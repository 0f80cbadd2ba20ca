"""One sample→transport→store traversal of a BW-sized set.

Used by the CI overhead smoke (``check_obs_overhead.py``); the
per-stage ns/op live in the ledger (``benchmarks/ledger/run.py
--micro``).  ``build_unit`` returns a closure
performing exactly the per-stored-sample work of the PR-1 fast path —
sampling transaction, one-sided read service + mirror install, store
record build, compiled CSV row render — wrapped in the same
``repro.obs`` hooks the daemon executes: clock reads, histogram
observes (the update RTT per update; the sample-to-store latency staged
at delivery and, with the flush latency, observed in bulk per one-row
flush batch), the exemplar draw of the span ring (an update span opened
at issue and closed when stored, plus the store-flush span, for one
transaction in 16) and the per-stored-update freshness observe.  The counts the daemon derives from pipeline
state (samples, an endpoint's reads and bytes) are pipeline work, not
telemetry, and are left out of both variants.  ``instrumented=False`` runs the same call
sites against do-nothing stand-ins, so timing the two variants measures
the telemetry overhead on the fast path, independent of machine speed.
"""

from __future__ import annotations

import time

from repro.core.memory import Arena
from repro.core.metric import MetricType
from repro.core.metric_set import MetricSet
from repro.core.store import StoreRecord
from repro.obs import FreshnessTracker, SpanRecorder, Telemetry
from repro.obs.spans import HOP_STORE

__all__ = ["N_METRICS", "build_unit"]

N_METRICS = 194  # the Blue Waters set size used throughout the benches


class _Off:
    """Do-nothing stand-in for every obs object the unit touches:
    registry, instruments, span ring and tracker."""

    def counter(self, name):
        return self

    histogram = counter

    def inc(self, n=1):
        pass

    def observe(self, value):
        pass

    observe_many = observe

    def record(self, *args):
        pass

    def start(self, *args):
        return None

    arm = finish = start


def build_unit(outdir, instrumented: bool, n: int = N_METRICS,
               clock=time.perf_counter):
    """Return ``(unit, close)``: the per-sample closure and a cleanup."""
    from repro.plugins.stores.csv_store import CsvStore

    mset = MetricSet.create(
        "n0/bench", "bench",
        [(f"metric_{i:03d}", MetricType.U64, 1) for i in range(n)],
        Arena(1 << 20),
    )
    values = list(range(n))
    mset.set_all(values, clock())
    mirror = MetricSet.from_meta(mset.meta_bytes(), Arena(1 << 20))
    mirror.apply_data(mset.data_bytes())

    store = CsvStore()
    store.config(path=str(outdir), buffer_lines=1 << 30)
    store.submit(StoreRecord.from_set(mirror, "n0"))  # compiles formatters
    buf = store._buffers["bench"]

    if instrumented:
        obs, spans, freshness = Telemetry(), SpanRecorder("bench"), FreshnessTracker()
    else:
        obs = spans = freshness = _Off()
    # The observability plane: freshness tracking per stored update and
    # the exemplar's update and store-flush spans — same call shape as
    # the daemon's _issue_update/_complete_update/_flush_rows paths.
    fresh = freshness.arm("n0", 1.0, 1, clock())
    spans_record = spans.record
    h_sample = obs.histogram("sample.duration")
    h_update = obs.histogram("update.rtt")
    h_e2e = obs.histogram("pipeline.sample_to_store")
    h_flush = obs.histogram("store.flush")
    staged: list = []  # Ldmsd._e2e_staged

    def unit():
        # sampler fire (Ldmsd._begin_sample / _finish_sample)
        t0 = clock()
        mset.set_all(values, t0)
        h_sample.observe(clock() - t0)
        # producer fetch: one-sided read service + mirror install
        t_issue = clock()
        span = spans.start("n0", "n0/bench", t_issue)
        data = mset.data_bytes()
        mirror.apply_data(data)
        # One decode of the transaction timestamp serves the exemplar,
        # the store hand-off and the freshness tracker (_complete_update).
        ts = mirror.timestamp
        now = clock()
        if span is not None:
            span.sample_ts = ts
        h_update.observe(now - t_issue)
        # store delivery (Ldmsd._deliver_to_stores / _flush_rows)
        rec = StoreRecord.from_set(mirror, "n0")
        t_submit = clock()
        staged.append(max(t_submit - ts, 0.0))
        h_e2e.observe_many(staged)  # the flush batch's first step
        staged.clear()
        store.store(rec)
        buf.clear()
        t_done = clock()
        h_flush.observe_many([t_done - t_submit])
        spans.finish(span, "stored", now)
        # observability plane (aggregator _complete_update/_flush_rows)
        if fresh is not None:
            fresh.observe(ts, 0)
        if span is not None:
            spans_record(span.trace_id, spans.alloc(), span.span_id,
                         HOP_STORE, "store_flush", t_submit, t_done)
        return rec

    return unit, store.close
