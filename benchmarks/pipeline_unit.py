"""One sample→transport→store traversal of a BW-sized set.

Used by the CI overhead smoke (``check_obs_overhead.py``); the
per-stage ns/op live in the ledger (``benchmarks/ledger/run.py
--micro``).  ``build_unit`` returns a closure
performing exactly the per-stored-sample work of the PR-1 fast path —
sampling transaction, one-sided read service + mirror install, store
record build, compiled CSV row render — optionally wrapped in the same
``repro.obs`` hooks the daemon executes (clock reads, histogram
observes, counter incs, one pipeline trace, and — since the
observability plane landed — the per-stored-update freshness observe,
the flight-recorder event, and span recording for exemplar-sampled
traces).  Timing the closure with ``instrumented=True`` vs ``False``
therefore measures the true telemetry overhead on the fast path,
independent of machine speed.
"""

from __future__ import annotations

import time

from repro.core.memory import Arena
from repro.core.metric import MetricType
from repro.core.metric_set import MetricSet
from repro.core.store import StoreRecord
from repro.obs import (
    FlightRecorder,
    FreshnessTracker,
    SpanRecorder,
    Telemetry,
    Tracer,
)
from repro.obs.spans import HOP_STORE, HOP_UPDATE

__all__ = ["N_METRICS", "build_unit"]

N_METRICS = 194  # the Blue Waters set size used throughout the benches


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

    obs = Telemetry(enabled=instrumented)
    tracer = Tracer(clock, enabled=instrumented)
    # The PR-7 observability plane: freshness tracking per stored
    # update, a flight-recorder event per flush, and span recording for
    # the exemplar-sampled traces — same call shape as the daemon's
    # _complete_update/_flush_rows paths.
    flight = FlightRecorder("bench", enabled=instrumented)
    spans = SpanRecorder("bench", enabled=instrumented)
    freshness = FreshnessTracker(enabled=instrumented)
    fresh = freshness.arm("n0", 1.0, 1, clock())
    flight_record = flight.record
    spans_record = spans.record
    h_sample = obs.histogram("sample.duration")
    h_update = obs.histogram("update.rtt")
    h_e2e = obs.histogram("pipeline.sample_to_store")
    h_flush = obs.histogram("store.flush")
    c_samples = obs.counter("sampler.samples")
    # transports bind counter incs once at obs-attach (Endpoint.obs setter)
    inc_reads = obs.counter("transport.rdma_reads").inc
    inc_read_bytes = obs.counter("transport.rdma_bytes").inc

    def unit():
        # sampler fire (Ldmsd._begin_sample / _finish_sample)
        t0 = clock()
        mset.set_all(values, t0)
        h_sample.observe(clock() - t0)
        c_samples.inc()
        # producer fetch: one-sided read service + mirror install
        trace = tracer.start("n0", "n0/bench")
        t_issue = trace.t_issue if trace is not None else clock()
        data = mset.data_bytes()
        inc_reads()
        inc_read_bytes(len(data))
        mirror.apply_data(data)
        # One decode of the transaction timestamp serves the trace, the
        # store hand-off and the freshness tracker (_complete_update).
        ts = mirror.timestamp
        now = clock()
        if trace is not None:
            trace.t_fetched = now
            trace.t_validated = now
        h_update.observe(now - t_issue)
        # store delivery (Ldmsd._deliver_to_stores / _flush_rows)
        rec = StoreRecord.from_set(mirror, "n0")
        t_submit = clock()
        if trace is not None:
            trace.t_store_submit = t_submit
            trace.sample_ts = ts
        h_e2e.observe(max(t_submit - ts, 0.0))
        store.store(rec)
        buf.clear()
        t_done = clock()
        h_flush.observe(t_done - t_submit)
        if trace is not None:
            trace.t_store_done = t_done
        tracer.finish(trace, "stored")
        # observability plane (aggregator _complete_update/_flush_rows)
        if fresh is not None:
            fresh.observe(ts, 0)
        flight_record(t_done, "store", "flush", 1, 0)
        if trace is not None:
            sid = spans.alloc()
            spans_record(1, sid, 0, HOP_UPDATE, "update", t_issue, now)
            spans_record(1, spans.alloc(), sid, HOP_STORE, "store_flush",
                         t_submit, t_done)
        return rec

    return unit, store.close
