"""Tests for the self-instrumentation layer (repro.obs).

Registry semantics, histogram bucket/quantile math, pipeline-trace
propagation through a simulated update transaction, and the
``ldmsd_self`` sampler collected end-to-end over the simulated
transport into a CSV store.
"""

import json

import pytest

import repro.plugins  # noqa: F401
from repro import obs
from repro.core import Ldmsd, SimEnv
from repro.obs.registry import (
    DEFAULT_LATENCY_EDGES,
    Counter,
    Gauge,
    Histogram,
    Telemetry,
)
from repro.obs.trace import TRACE_STATUSES, PipelineTrace, Tracer
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport


class TestInstruments:
    def test_counter(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_gauge(self):
        g = Gauge("x")
        g.set(3.5)
        g.add(-1.0)
        assert g.value == 2.5

    def test_default_edges_are_a_125_ladder(self):
        assert DEFAULT_LATENCY_EDGES[0] == pytest.approx(1e-6)
        assert DEFAULT_LATENCY_EDGES[-1] == pytest.approx(100.0)
        assert len(DEFAULT_LATENCY_EDGES) == 25
        # strictly increasing, mantissas cycle 1-2-5
        assert all(b > a for a, b in zip(DEFAULT_LATENCY_EDGES,
                                         DEFAULT_LATENCY_EDGES[1:]))

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", edges=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("h", edges=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", edges=())


class TestHistogram:
    def test_bucket_edges_half_open(self):
        # searchsorted(side="right"): bucket i holds [edge[i-1], edge[i]).
        h = Histogram("h", edges=(1.0, 2.0, 5.0))
        for v in (0.5, 1.0, 1.9, 2.0, 5.0, 100.0):
            h.observe(v)
        assert h.count == 6  # property read folds the staging list
        assert h.buckets == [1, 2, 1, 2]

    def test_exact_count_sum_min_max_mean(self):
        h = Histogram("h")
        for v in (1e-5, 3e-5, 2e-4):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(2.4e-4)
        assert h.min == pytest.approx(1e-5)
        assert h.max == pytest.approx(2e-4)
        assert h.mean == pytest.approx(8e-5)

    def test_deferred_fold_is_transparent(self):
        # Values sit in the staging list until a read or the fold
        # threshold; every surface must see them regardless.
        h = Histogram("h")
        for _ in range(Histogram._FOLD_AT - 1):
            h.observe(1e-3)
        assert h._count == 0          # not folded yet
        assert h.count == Histogram._FOLD_AT - 1   # lazy fold on read
        h.observe(1e-3)               # refill staging...
        for _ in range(Histogram._FOLD_AT - 1):
            h.observe(1e-3)
        assert h._count == 2 * Histogram._FOLD_AT - 1  # auto-fold hit

    def test_single_sample_quantiles_clamp(self):
        h = Histogram("h")
        h.observe(3.3e-4)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(3.3e-4)

    def test_quantile_interpolation(self):
        h = Histogram("h", edges=tuple(float(i) for i in range(1, 11)))
        for i in range(1000):
            h.observe(i / 100.0)  # uniform over [0, 10)
        assert h.quantile(0.5) == pytest.approx(5.0, abs=1.0)
        assert h.quantile(0.95) == pytest.approx(9.5, abs=1.0)

    def test_quantile_out_of_range_rejected(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_empty_summary_is_zeroed(self):
        s = Histogram("h").summary()
        assert s == {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                     "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_dump_includes_buckets(self):
        h = Histogram("h", edges=(1.0, 2.0))
        h.observe(1.5)
        d = h.dump()
        assert d["edges"] == [1.0, 2.0]
        assert d["buckets"] == [0, 1, 0]
        assert d["count"] == 1


class TestTelemetry:
    def test_instruments_cached_by_name(self):
        t = Telemetry()
        assert t.counter("a") is t.counter("a")
        assert t.gauge("g") is t.gauge("g")
        assert t.histogram("h") is t.histogram("h")

    def test_disabled_returns_shared_null(self):
        t = Telemetry(enabled=False)
        c = t.counter("a")
        assert c is t.gauge("g") is t.histogram("h")
        # every call is a no-op and every read is a zero
        c.inc()
        c.set(5.0)
        c.observe(1.0)
        assert c.value == 0 and c.count == 0
        assert c.quantile(0.5) == 0.0
        assert c.summary()["count"] == 0
        assert t.snapshot() == {"enabled": False, "counters": {},
                                "gauges": {}, "histograms": {}}

    def test_snapshot_shape_and_serializable(self):
        t = Telemetry()
        t.counter("c").inc(3)
        t.gauge("g").set(1.5)
        t.histogram("h").observe(2e-4)
        snap = json.loads(json.dumps(t.snapshot()))
        assert snap["enabled"] is True
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_dump_histograms(self):
        t = Telemetry()
        t.histogram("h").observe(2e-4)
        dumps = t.dump_histograms()
        assert set(dumps) == {"h"}
        assert len(dumps["h"]["buckets"]) == len(dumps["h"]["edges"]) + 1


class TestTracer:
    def test_sample_every_validated(self):
        with pytest.raises(ValueError):
            Tracer(lambda: 0.0, sample_every=0)

    def test_disabled_allocates_nothing(self):
        tr = Tracer(lambda: 0.0, enabled=False)
        assert tr.start("p", "s") is None
        tr.finish(None, "stored")  # no-op, no error
        assert tr.last() == []

    def test_exemplar_sampling(self):
        tr = Tracer(lambda: 0.0, sample_every=4)
        got = [tr.start("p", "s") for _ in range(9)]
        # first always sampled, then 1-in-4: ids 1, 5, 9
        sampled = [t for t in got if t is not None]
        assert [t.trace_id for t in sampled] == [1, 5, 9]

    def test_every_transaction_consumes_an_id(self):
        tr = Tracer(lambda: 0.0, sample_every=16)
        for _ in range(20):
            tr.start("p", "s")
        assert tr._next_id == 21

    def test_lazy_stage_slots_read_none(self):
        t = PipelineTrace(1, "p", "s", 0.5)
        assert t.t_fetched is None and t.status is None
        assert t.as_dict()["t_issue"] == 0.5
        with pytest.raises(AttributeError):
            t.not_a_slot

    def test_finish_validates_status(self):
        tr = Tracer(lambda: 1.0, sample_every=1)
        t = tr.start("p", "s")
        with pytest.raises(ValueError):
            tr.finish(t, "exploded")
        tr.finish(t, "stored")
        assert tr.last() == [t]
        assert tr.last("stored") == [t]
        assert tr.last("stale") == []

    def test_ring_bounded(self):
        tr = Tracer(lambda: 0.0, ring=4, sample_every=1)
        for _ in range(10):
            tr.finish(tr.start("p", "s"), "stored")
        assert len(tr.last()) == 4


def _world(obs_enabled=True):
    eng = Engine()
    env = SimEnv(eng)
    fabric = SimFabric(eng)
    samp = Ldmsd("s0", env=env, obs_enabled=obs_enabled,
                 transports={"rdma": SimTransport(fabric, "rdma",
                                                  node_id="s0")})
    agg = Ldmsd("agg", env=env, obs_enabled=obs_enabled,
                transports={"rdma": SimTransport(fabric, "rdma",
                                                 node_id="agg")})
    return eng, samp, agg


class TestTracePropagation:
    def test_trace_walks_every_stage_in_order(self):
        eng, samp, agg = _world()
        agg.tracer.sample_every = 1  # retain every transaction
        samp.load_sampler("synthetic", instance="s0/syn", component_id=1,
                          num_metrics=4)
        samp.start_sampler("s0/syn", interval=0.5)
        samp.listen("rdma", "s0:411")
        agg.add_store("memory")
        agg.add_producer("s0", "rdma", "s0:411", interval=0.5,
                         sets=("s0/syn",))
        eng.run(until=10.0)
        stored = agg.tracer.last("stored")
        assert stored
        for t in stored:
            assert t.producer == "s0" and t.set_name == "s0/syn"
            assert (t.t_issue <= t.t_fetched <= t.t_validated
                    <= t.t_store_submit <= t.t_store_done)
            # end-to-end latency anchored at the sampler's transaction
            assert 0 < t.sample_ts <= t.t_store_submit
            assert t.status in TRACE_STATUSES
        ids = [t.trace_id for t in agg.tracer.last()]
        assert ids == sorted(set(ids))

    def test_stale_pulls_traced_without_store_stages(self):
        eng, samp, agg = _world()
        agg.tracer.sample_every = 1
        samp.load_sampler("synthetic", instance="s0/syn", component_id=1,
                          num_metrics=4)
        samp.start_sampler("s0/syn", interval=2.0)  # slow sampler
        samp.listen("rdma", "s0:411")
        agg.add_producer("s0", "rdma", "s0:411", interval=0.25,
                         sets=("s0/syn",))  # fast puller -> stale pulls
        eng.run(until=10.0)
        stale = agg.tracer.last("stale")
        assert stale
        for t in stale:
            assert t.t_fetched is not None
            assert t.t_store_submit is None and t.t_store_done is None

    def test_update_stats_satellites(self):
        eng, samp, agg = _world()
        samp.load_sampler("synthetic", instance="s0/syn", component_id=1,
                          num_metrics=4)
        samp.start_sampler("s0/syn", interval=0.5)
        samp.listen("rdma", "s0:411")
        agg.add_store("memory")
        agg.add_producer("s0", "rdma", "s0:411", interval=0.5,
                         sets=("s0/syn",))
        eng.run(until=10.0)
        st = agg.producers["s0"].stats
        assert st.updates_completed > 0
        assert st.last_update_ts > 0
        assert 0 < st.update_time_total < 10.0
        # deep-detached stats: mutating the snapshot touches nothing live
        snap = agg.stats()
        snap["producers"]["s0"]["updates_completed"] = -1
        assert agg.producers["s0"].stats.updates_completed > 0
        assert {"plugin", "records", "failed", "dropped", "bytes_written"} \
            <= set(snap["stores"][0])

    def test_disabled_daemon_still_collects(self):
        eng, samp, agg = _world(obs_enabled=False)
        samp.load_sampler("synthetic", instance="s0/syn", component_id=1,
                          num_metrics=4)
        samp.start_sampler("s0/syn", interval=0.5)
        samp.listen("rdma", "s0:411")
        store = agg.add_store("memory")
        agg.add_producer("s0", "rdma", "s0:411", interval=0.5,
                         sets=("s0/syn",))
        eng.run(until=10.0)
        assert len(store.rows) > 0
        assert agg.tracer.last() == []
        assert agg.stats()["obs"] == {"enabled": False, "counters": {},
                                      "gauges": {}, "histograms": {}}


class TestLdmsdSelfEndToEnd:
    """Acceptance: an aggregator collects a sampler daemon's
    ``ldmsd_self`` set over the simulated transport into a CSV store."""

    def _run(self, tmp_path):
        eng, samp, agg = _world()
        samp.load_sampler("synthetic", instance="s0/syn", component_id=1,
                          num_metrics=8)
        samp.start_sampler("s0/syn", interval=1.0)
        samp.load_sampler("ldmsd_self", instance="s0/self", component_id=1)
        samp.start_sampler("s0/self", interval=1.0)
        samp.listen("rdma", "s0:411")
        agg.add_store("store_csv", path=str(tmp_path), buffer_lines=1)
        agg.add_producer("s0", "rdma", "s0:411", interval=1.0,
                         sets=("s0/syn", "s0/self"))
        eng.run(until=30.0)
        agg.shutdown()
        samp.shutdown()
        return eng, samp, agg

    def test_self_set_stored_as_csv(self, tmp_path):
        self._run(tmp_path)
        csv = tmp_path / f"{obs.SELF_SCHEMA}.csv"
        assert csv.exists()
        lines = csv.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["Time", "Producer", "CompId"]
        assert header[3:] == list(obs.SELF_METRIC_NAMES)
        assert len(lines) > 10  # ~one row per second of sim time

    def test_self_metrics_reflect_daemon_activity(self, tmp_path):
        _, samp, _ = self._run(tmp_path)
        mset = samp.get_set("s0/self")
        vals = mset.as_dict()
        # the daemon sampled both sets ~30 times each
        assert vals["samples"] >= 40
        assert vals["sets"] == 2 and vals["plugins"] == 2
        # histogram-derived metrics (µs quantiles + counts) are live
        assert 0 < vals["sample_count"] <= vals["samples"]
        # the health rendering is printable text over the same values
        text = obs.render(vals)
        assert "samples" in text and "p99" in text

    def test_arena_metrics_exported_and_surfaced(self, tmp_path):
        from repro.core.control import ControlChannel

        _, samp, agg = self._run(tmp_path)
        vals = samp.get_set("s0/self").as_dict()
        for name in ("arena_sweeps", "arena_rows_vectorized",
                     "arena_fallback_sets"):
            assert name in vals
        # synthetic rides a (single-member) cohort: ~one sweep and one
        # vectorized row per tick; ldmsd_self is not cohort-eligible
        # and lands on the scalar fallback path.
        assert vals["arena_sweeps"] >= 20
        assert vals["arena_rows_vectorized"] >= vals["arena_sweeps"]
        assert vals["arena_fallback_sets"] >= 1
        # the control verbs surface the same numbers
        ch = ControlChannel(samp)
        stats = json.loads(ch.handle("stats")[2:])
        assert stats["obs"]["counters"]["arena.sweeps"] == vals["arena_sweeps"]
        assert stats["set_pool"]["rows"] >= 2
        prof = json.loads(ch.handle("prof")[2:])
        assert prof["arena"]["sweeps"] == vals["arena_sweeps"]
        assert prof["arena"]["rows_vectorized"] == vals["arena_rows_vectorized"]
        assert prof["arena"]["pool"]["rows"] >= 2

    def test_self_sampler_on_disabled_daemon_reads_zeros(self):
        eng, samp, _ = _world(obs_enabled=False)
        samp.load_sampler("ldmsd_self", instance="s0/self", component_id=1)
        samp.start_sampler("s0/self", interval=1.0)
        eng.run(until=3.0)
        vals = samp.get_set("s0/self").as_dict()
        # structural fields stay live; telemetry-derived ones read zero
        assert vals["sets"] == 1 and vals["samples"] > 0
        for name, v in vals.items():
            if "_us_" in name or name.endswith("_count"):
                assert v == 0, name


class TestRefusedConnectionsSurface:
    """ROADMAP 5a (surfacing half): producers refused at the transport's
    ``max_connections`` wall show up in the aggregator's own health."""

    def test_refused_producers_visible_in_self_row_stats_and_prof(self):
        from dataclasses import replace

        from repro.core.control import ControlChannel
        from repro.transport.base import get_transport_profile

        tight = replace(get_transport_profile("sock"), max_connections=3)
        eng = Engine()
        env = SimEnv(eng)
        fabric = SimFabric(eng)
        n = 5
        for i in range(n):
            d = Ldmsd(f"n{i}", env=env, mem="64kB", transports={
                "sock": SimTransport(fabric, tight, node_id=i)})
            d.load_sampler("synthetic", instance=f"n{i}/syn",
                           component_id=i + 1, num_metrics=4)
            d.start_sampler(f"n{i}/syn", interval=1.0)
            d.listen("sock", f"n{i}:411")
        agg = Ldmsd("agg", env=env, transports={
            "sock": SimTransport(fabric, tight, node_id="agg")})
        agg.add_store("memory")
        agg.load_sampler("ldmsd_self", instance="agg/self", component_id=99)
        agg.start_sampler("agg/self", interval=1.0)
        for i in range(n):
            # One connect attempt each inside the run: the counter is
            # refusals, and a retry would be refused again.
            agg.add_producer(f"n{i}", "sock", f"n{i}:411", interval=1.0,
                             sets=(f"n{i}/syn",), reconnect_interval=60.0)
        eng.run(until=10.0)

        assert sum(1 for p in agg.producers.values() if p.connected) == 3
        assert agg.transports["sock"].refused_connections == 2
        row = dict(zip(obs.SELF_METRIC_NAMES, obs.collect(agg)))
        assert row["xprt_refused_connections"] == 2
        assert agg.get_set("agg/self").as_dict()[
            "xprt_refused_connections"] == 2
        assert agg.stats()["xprt_refused_connections"] == 2
        prof = json.loads(ControlChannel(agg).handle("prof")[2:])
        assert prof["xprt_refused_connections"] == 2
        assert "refused_connections=2" in obs.render(row)


def test_ldmsd_self_schema_is_79_metrics():
    assert len(obs.SELF_METRIC_NAMES) == 79
    assert len(set(obs.SELF_METRIC_NAMES)) == 79


def test_daemon_layers_do_not_import_the_process_pool():
    """A real-TCP daemon must not pull in the DES fan-out module (or
    ``multiprocessing``) by importing core, the sim fabric or obs."""
    import os
    import subprocess
    import sys

    code = ("import sys, repro.core, repro.transport.simfabric, repro.obs\n"
            "bad = [m for m in ('repro.sim.shard', 'multiprocessing') "
            "if m in sys.modules]\n"
            "assert not bad, bad\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   timeout=60)
