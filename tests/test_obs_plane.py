"""Tests for the cluster-wide observability plane (PR 7).

Wire-level trace context, span recording + Chrome export, the
freshness/completeness tracker, the always-on flight recorder with
postmortem dumps, and the exemplar-sampling determinism contract
(same seed => same traced transactions, sanitized or not, columnar or
scalar reference).
"""

import json
import os
import subprocess
import sys

import pytest

import repro.plugins  # noqa: F401
from repro.core import Ldmsd, SimEnv, wire
from repro.core.control import ControlChannel
from repro.obs import flight as flightmod
from repro.obs.flight import FlightRecorder
from repro.obs.freshness import FreshnessTracker
from repro.obs.spans import (
    HOP_NAMES,
    HOP_SAMPLE,
    HOP_SERVE,
    HOP_STORE,
    HOP_UPDATE,
    SpanRecorder,
    causal_chains,
    chrome_trace_events,
    validate_chrome_trace,
)
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------
class TestWireTraceCtx:
    def test_pack_unpack_roundtrip(self):
        ctx = ((0, 12345, 678, 2), (3, 99, 1, 3))
        assert wire.unpack_trace_ctx(wire.pack_trace_ctx(ctx))[0] == ctx

    def test_frame_flag_set_and_stripped(self):
        raw = wire.encode_frame(wire.MsgType.RDMA_READ_REQ, 7, b"xyz",
                                trace=((0, 5, 6, 2),))
        assert raw[4] & wire.TRACE_FLAG  # msg_type byte follows the u32 length
        frame = wire.decode_frame(raw)
        assert frame.msg_type == wire.MsgType.RDMA_READ_REQ
        assert frame.trace == ((0, 5, 6, 2),)
        assert frame.payload == b"xyz"

    def test_untraced_frame_has_no_ctx(self):
        frame = wire.decode_frame(wire.encode_frame(wire.MsgType.DIR_REQ, 1))
        assert frame.trace is None

    def test_hello_roundtrip(self):
        blob = wire.pack_hello(12.5, frozenset({"trace-ctx", "x"}))
        now, feats = wire.unpack_hello(blob)
        assert now == 12.5
        assert feats == frozenset({"trace-ctx", "x"})


class TestSpanRecorder:
    def test_disabled_records_nothing(self):
        r = SpanRecorder("d", enabled=False)
        r.record(1, 1, 0, HOP_UPDATE, "update", 0.0, 1.0)
        assert r.total == 0 and not r.spans

    def test_ring_bounded_total_cumulative(self):
        r = SpanRecorder("d", ring=4)
        for i in range(10):
            r.record(1, r.alloc(), 0, HOP_UPDATE, "update", 0.0, 1.0)
        assert len(r.spans) == 4 and r.total == 10

    def test_aux_trace_ids_disjoint_from_tracer_ids(self):
        r = SpanRecorder("d")
        assert r.alloc_trace() >= 1 << 48

    def test_chrome_export_valid(self):
        r = SpanRecorder("agg")
        sid = r.alloc()
        r.record(7, sid, 0, HOP_UPDATE, "update", 1.0, 2.0)
        r.record(7, r.alloc(), sid, HOP_STORE, "store_flush", 2.0, 2.5)
        doc = chrome_trace_events([r])
        assert validate_chrome_trace(doc) is None
        kinds = [e["ph"] for e in doc["traceEvents"]]
        assert "M" in kinds and kinds.count("X") == 2
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        for e in xs:
            assert e["ts"] >= 0 and e["dur"] >= 0

    def test_validate_rejects_malformed(self):
        assert validate_chrome_trace({"nope": 1}) is not None
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "X"}], "displayTimeUnit": "ms"}
        ) is not None

    def test_causal_chain_ordering(self):
        samp, agg = SpanRecorder("s0"), SpanRecorder("agg")
        usid = agg.alloc()
        agg.record(9, usid, 0, HOP_UPDATE, "update", 1.0, 3.0)
        ssid = samp.alloc()
        samp.record(9, ssid, usid, HOP_SERVE, "serve_read", 1.2, 1.4)
        samp.record(9, samp.alloc(), ssid, HOP_SAMPLE, "sample", 0.8, 0.9)
        agg.record(9, agg.alloc(), usid, HOP_STORE, "store_flush", 3.0, 3.2)
        chains = causal_chains([samp, agg], min_hops=4)
        assert list(chains) == [9]
        hops = [span.hop for _, span in chains[9]]
        assert hops == sorted(hops)
        assert [HOP_NAMES[h] for h in hops] == [
            "sample", "serve", "update", "store"]


class TestFreshness:
    def test_disabled_arm_returns_none(self):
        t = FreshnessTracker(enabled=False)
        assert t.arm("p", 1.0, 1, 0.0) is None
        assert t.fleet(10.0)["completeness"] == 1.0

    def test_expected_ramps_after_first_interval(self):
        t = FreshnessTracker()
        p = t.arm("p", 5.0, 2, 0.0)
        assert p.expected(4.9) == 0
        assert p.expected(30.0) == (int(30.0 / 5.0) - 1) * 2

    def test_completeness_and_missed(self):
        t = FreshnessTracker()
        p = t.arm("p", 1.0, 1, 0.0)
        for i in range(8):
            p.observe(float(i + 1), 0)
        p.observe(10.0, 1)  # one skipped interval
        fleet = t.fleet(11.0)
        assert fleet["delivered"] == 9 and fleet["missed"] == 1
        assert fleet["completeness"] == pytest.approx(9 / 10)

    def test_staleness_flags_silent_producer(self):
        t = FreshnessTracker()
        p = t.arm("p", 1.0, 1, 0.0)
        p.observe(1.0, 0)
        assert t.fleet(1.5)["stale_producers"] == 0
        fleet = t.fleet(1.0 + FreshnessTracker.STALE_AFTER * 1.0 + 0.1)
        assert fleet["stale_producers"] == 1
        assert fleet["max_staleness"] > FreshnessTracker.STALE_AFTER

    def test_rearm_keeps_epoch_and_counters(self):
        t = FreshnessTracker()
        p = t.arm("p", 1.0, 1, 0.0)
        p.observe(1.0, 0)
        p2 = t.arm("p", 1.0, 3, 50.0)  # set count grew mid-run
        assert p2 is p and p2.t0 == 0.0 and p2.delivered == 1
        assert p2.nsets == 3


class TestFlightRecorder:
    def test_ring_and_disabled(self):
        fl = FlightRecorder("d", ring=3)
        for i in range(5):
            fl.record(float(i), "daemon", "tick", i)
        assert fl.total == 5 and len(fl.events) == 3
        off = FlightRecorder("d", enabled=False)
        off.record(0.0, "daemon", "tick")
        assert off.total == 0

    def test_window_covers_retained_events(self):
        fl = FlightRecorder("d", ring=8)
        for i in range(4):
            fl.record(float(i), "conn", "up", i)
        lo, hi = fl.window()
        assert (lo, hi) == (0.0, 3.0)

    def test_postmortem_dump_structure(self):
        flightmod.reset_postmortems()
        eng = Engine()
        env = SimEnv(eng)
        d = Ldmsd("pm0", env=env,
                  transports={"rdma": SimTransport(SimFabric(eng), "rdma",
                                                   node_id="pm0")})
        d.flight.record(1.0, "fault", "crash")
        doc = flightmod.postmortem("test_reason", 1.0, (d,))
        assert doc["reason"] == "test_reason"
        assert flightmod.postmortems[-1] is doc
        rec = next(r for r in doc["daemons"] if r["daemon"] == "pm0")
        assert any(e["category"] == "fault" and e["event"] == "crash"
                   for e in rec["events"])
        lo, hi = rec["window"]
        assert lo <= 1.0 <= hi
        flightmod.reset_postmortems()
        assert not flightmod.postmortems

    def test_postmortem_dir_env_writes_file(self, tmp_path, monkeypatch):
        flightmod.reset_postmortems()
        monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))
        fl = FlightRecorder("solo")
        fl.record(0.5, "watchdog", "promote")

        class _Carrier:
            name = "solo"
            flight = fl
        flightmod.postmortem("watchdog_promotion:solo", 1.0, (_Carrier(),))
        files = list(tmp_path.iterdir())
        assert files, "postmortem dump file not written"
        doc = json.loads(files[0].read_text())
        assert doc["reason"] == "watchdog_promotion:solo"
        flightmod.reset_postmortems()


# ---------------------------------------------------------------------------
# end to end over the simulated fabric
# ---------------------------------------------------------------------------
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
    samp.load_sampler("synthetic", instance="s0/syn", component_id=1,
                      num_metrics=4)
    samp.start_sampler("s0/syn", interval=0.5)
    samp.listen("rdma", "s0:411")
    agg.add_store("memory")
    agg.add_producer("s0", "rdma", "s0:411", interval=0.5, sets=("s0/syn",))
    return eng, samp, agg


class TestEndToEndChain:
    def test_four_hop_causal_chain(self):
        eng, samp, agg = _world()
        agg.tracer.sample_every = 1
        eng.run(until=10.0)
        chains = causal_chains([samp.spans, agg.spans], min_hops=4)
        assert chains, "no 4-hop chain stitched"
        for tid, chain in chains.items():
            by_hop = {span.hop: (daemon, span) for daemon, span in chain}
            assert set(by_hop) >= {HOP_SAMPLE, HOP_SERVE, HOP_UPDATE,
                                   HOP_STORE}
            # parenting: serve's parent is the update span, sample's
            # parent is the serve span, store's parent is the update.
            assert by_hop[HOP_SERVE][0] == "s0"
            assert by_hop[HOP_UPDATE][0] == "agg"
            assert (by_hop[HOP_SERVE][1].parent_span
                    == by_hop[HOP_UPDATE][1].span_id)
            assert (by_hop[HOP_SAMPLE][1].parent_span
                    == by_hop[HOP_SERVE][1].span_id)
            assert (by_hop[HOP_STORE][1].parent_span
                    == by_hop[HOP_UPDATE][1].span_id)
        doc = chrome_trace_events([samp.spans, agg.spans])
        assert validate_chrome_trace(doc) is None

    def test_trace_ctx_needs_peer_feature(self):
        """A peer that never advertised trace-ctx gets plain frames."""
        eng, samp, agg = _world()
        agg.tracer.sample_every = 1

        def strip():
            # Simulate an old peer: clear the negotiated feature on
            # every aggregator endpoint after connect.
            for p in agg.producers.values():
                if p.endpoint is not None:
                    p.endpoint.trace_ok = False

        agg.env.call_later(1.0, strip)
        eng.run(until=10.0)
        # Updates keep flowing without trace headers; the sampler only
        # served spans for the pre-strip window.
        assert sum(p.stats.stored for p in agg.producers.values()) > 0
        served_after = [s for s in samp.spans.spans if s.t0 > 1.5]
        assert not served_after

    def test_freshness_tracks_healthy_run_complete(self):
        eng, samp, agg = _world()
        eng.run(until=20.0)
        fleet = agg.freshness.fleet(20.0)
        assert fleet["producers"] == 1
        assert fleet["missed"] == 0
        assert fleet["completeness"] == 1.0

    def test_disabled_obs_is_inert(self):
        eng, samp, agg = _world(obs_enabled=False)
        eng.run(until=5.0)
        assert agg.spans.total == 0
        assert samp.spans.total == 0
        assert agg.flight.total == 0
        assert agg.freshness.fleet(5.0)["producers"] == 0

    def test_prof_export_chrome_verb(self):
        eng, samp, agg = _world()
        agg.tracer.sample_every = 1
        eng.run(until=5.0)
        ch = ControlChannel(agg)
        reply = ch.handle("prof export=chrome")
        status, _, body = reply.partition(" ")
        assert status == "0"
        doc = json.loads(body)
        assert validate_chrome_trace(doc) is None
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_stats_pool_key_schema_stable(self):
        """The deep snapshot always carries the arena keys, zeroed when
        the pool is off (satellite: schema-stable stats JSON)."""
        eng, samp, agg = _world()
        eng.run(until=2.0)
        agg.set_pool = None  # arena disabled mid-run
        stats = agg.stats()
        assert stats["set_pool"] == {"arenas": 0, "blocks": 0, "rows": 0}
        prof = json.loads(ControlChannel(agg).handle("prof").partition(" ")[2])
        assert prof["arena"]["pool"] == {"arenas": 0, "blocks": 0, "rows": 0}
        assert "freshness" in prof and "flight" in prof and "spans" in prof


# ---------------------------------------------------------------------------
# exemplar-sampling determinism (satellite): same seed => identical
# traced transactions across plain / sanitized / arena-off runs
# (argv[1] is SimEnv's arena= handle: "1" columnar, "0" scalar reference).
# ---------------------------------------------------------------------------
_DETERMINISM_SCRIPT = """
import json, sys
import repro.plugins
from repro.core import Ldmsd, SimEnv
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport

eng = Engine(); env = SimEnv(eng, arena=sys.argv[1] == "1")
fabric = SimFabric(eng)
samp = Ldmsd("s0", env=env,
             transports={"rdma": SimTransport(fabric, "rdma", node_id="s0")})
agg = Ldmsd("agg", env=env,
            transports={"rdma": SimTransport(fabric, "rdma", node_id="agg")})
samp.load_sampler("synthetic", instance="s0/syn", component_id=1,
                  num_metrics=4)
samp.start_sampler("s0/syn", interval=0.5)
samp.listen("rdma", "s0:411")
agg.add_store("memory")
agg.add_producer("s0", "rdma", "s0:411", interval=0.5, sets=("s0/syn",))
eng.run(until=20.0)
traced = sorted({s.trace_id for s in agg.spans.spans})
print(json.dumps({"traced": traced,
                  "completed": [t.trace_id for t in agg.tracer.last()]}))
"""


class TestExemplarDeterminism:
    def test_traced_set_invariant_across_modes(self):
        plain = self._run({})
        assert plain["traced"], "exemplar sampling traced nothing"
        sanitized = self._run({"REPRO_SANITIZE": "1"})
        arena_off = self._run({}, arena="0")
        assert sanitized == plain
        assert arena_off == plain

    @staticmethod
    def _run(env_overrides, arena="1"):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env.pop("REPRO_SANITIZE", None)
        env.update(env_overrides)
        out = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT, arena],
            env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)


# ---------------------------------------------------------------------------
# repro-top rendering (no sockets)
# ---------------------------------------------------------------------------
class TestReproTopRender:
    def _row(self, **kw):
        from repro.obs import SELF_METRIC_NAMES
        base = {m: 0 for m in SELF_METRIC_NAMES}
        base.update(completeness_permille=987, samples=100)
        base.update(kw)
        return base

    def test_totals_then_rates(self):
        from repro.cli.repro_top_cli import render_fleet
        first = {"agg/self": self._row()}
        lines = render_fleet(first, None, 0.0)
        assert len(lines) == 2 and "agg" in lines[1]
        assert "98.7" in lines[1]
        second = {"agg/self": self._row(samples=150)}
        lines2 = render_fleet(second, first, 2.0)
        assert "25.0" in lines2[1]  # (150-100)/2 samples/s

    def test_empty_fleet_hint(self):
        from repro.cli.repro_top_cli import render_fleet
        lines = render_fleet({}, None, 0.0)
        assert any("ldmsd_self" in line for line in lines)
