"""Tests for the cluster-wide observability plane (PR 7).

Wire-level trace context, span recording + Chrome export (span
identity pinned on a healthy run), the freshness/completeness tracker,
the flight-recorder events the span ring keeps for postmortem dumps,
and the exemplar-sampling determinism contract (same seed => same
traced transactions, sanitized or not, columnar or scalar reference).
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import repro.plugins  # noqa: F401
from repro.core import Ldmsd, SimEnv, wire
from repro.core.control import ControlChannel
from repro.obs.freshness import FreshnessTracker
from repro.obs.spans import (
    HOP_NAMES,
    HOP_SAMPLE,
    HOP_SERVE,
    HOP_STORE,
    HOP_UPDATE,
    UPDATE_STATUSES,
    SpanRecorder,
    UpdateSpan,
    causal_chains,
    chrome_trace_events,
    postmortem,
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
        blob = wire.pack_hello(12.5)
        assert len(blob) == 8
        assert wire.unpack_hello(blob) == 12.5


class TestSpanRecorder:
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
    """The flight-recorder events live in the daemon's span ring."""

    def test_ring_bounded(self):
        r = SpanRecorder("d", ring=3)
        for i in range(5):
            r.record_event(float(i), "daemon", "tick", i)
        assert r.events_total == 5 and len(r.events) == 3
        assert [e[3] for e in r.events] == [2, 3, 4]
        assert r.total == 0 and r.spans == []

    def test_window_covers_retained_events(self):
        r = SpanRecorder("d", ring=8)
        for i in range(4):
            r.record_event(float(i), "conn", "up", i)
        r.record(1, r.alloc(), 0, HOP_UPDATE, "update", 9.0, 9.5)
        assert r.window() == (0.0, 3.0)  # spans do not widen it

    def test_events_and_spans_share_one_bound(self):
        r = SpanRecorder("d", ring=6)
        for i in range(5):
            r.record(1, r.alloc(), 0, HOP_UPDATE, "update", float(i), 9.0)
            r.record_event(float(i), "conn", "peer_connect", i)
        assert len(r.ring) == 6
        assert r.total == 5 and r.events_total == 5
        assert [s.t0 for s in r.spans] == [2.0, 3.0, 4.0]
        assert [e[3] for e in r.events] == [2, 3, 4]
        assert r.window() == (2.0, 4.0)

    def test_span_readers_skip_events(self):
        r = SpanRecorder("agg", sample_every=1)
        r.record_event(0.5, "daemon", "start")
        span = r.start("p", "p/s", 1.0)
        r.finish(span, "stored", 2.0)
        r.record_event(2.5, "conn", "peer_close")
        assert r.updates() == [span] and r.spans == [span]
        doc = chrome_trace_events([r])
        assert [e["ph"] for e in doc["traceEvents"]] == ["M", "X"]
        assert list(causal_chains([r])) == [span.trace_id]

    def test_postmortem_dump_structure(self):
        eng = Engine()
        env = SimEnv(eng)
        d = Ldmsd("pm0", env=env,
                  transports={"rdma": SimTransport(SimFabric(eng), "rdma",
                                                   node_id="pm0")})
        d.spans.record_event(1.0, "fault", "crash")
        doc = postmortem("test_reason", 1.0, (d,))
        assert doc["reason"] == "test_reason" and doc["t"] == 1.0
        (rec,) = doc["daemons"]
        assert set(rec) == {"daemon", "total_events", "window", "events"}
        assert rec["daemon"] == "pm0" and rec["total_events"] == 2
        assert rec["events"] == [
            {"t": 0.0, "category": "daemon", "event": "start", "a": 0, "b": 0},
            {"t": 1.0, "category": "fault", "event": "crash", "a": 0, "b": 0},
        ]
        assert rec["window"] == [0.0, 1.0]
        assert json.loads(json.dumps(doc)) == doc


# ---------------------------------------------------------------------------
# end to end over the simulated fabric
# ---------------------------------------------------------------------------
def _world(passive=False):
    """One sampler, one aggregator.  ``passive``: the sampler dials the
    aggregator and advertises itself (§IV-B) instead of being dialled."""
    eng = Engine()
    env = SimEnv(eng)
    fabric = SimFabric(eng)
    samp = Ldmsd("s0", env=env,
                 transports={"rdma": SimTransport(fabric, "rdma",
                                                  node_id="s0")})
    agg = Ldmsd("agg", env=env,
                transports={"rdma": SimTransport(fabric, "rdma",
                                                 node_id="agg")})
    samp.load_sampler("synthetic", instance="s0/syn", component_id=1,
                      num_metrics=4)
    samp.start_sampler("s0/syn", interval=0.5)
    if passive:
        agg.listen("rdma", "agg:411")
        agg.add_store("memory")
        agg.add_producer("s0", "rdma", interval=0.5, sets=("s0/syn",),
                         passive=True)
        samp.advertise("rdma", "agg:411")
    else:
        samp.listen("rdma", "s0:411")
        agg.add_store("memory")
        agg.add_producer("s0", "rdma", "s0:411", interval=0.5,
                         sets=("s0/syn",))
    return eng, samp, agg


class TestEndToEndChain:
    def test_four_hop_causal_chain(self):
        self._assert_four_hop_chains(passive=False)

    def test_four_hop_causal_chain_when_the_sampler_dials(self):
        # The advertised endpoint serves traced reads like an accepted
        # one: the sampler records serve_read and sample spans.
        samp = self._assert_four_hop_chains(passive=True)
        names = {s.name for s in samp.spans.spans}
        assert {"serve_read", "sample"} <= names

    def _assert_four_hop_chains(self, passive):
        eng, samp, agg = _world(passive)
        agg.spans.sample_every = 1
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
        return samp

    def test_traced_read_of_an_unknown_region_records_only_the_serve(self):
        # Region ids are 1, 2, ...; 0 and one past the last come from a
        # peer's frame only.  Neither may resolve to a set (0 - 1 would
        # index the last one) and record that set's sample span.
        eng, samp, agg = _world()
        eng.run(until=2.0)
        served = len(samp._region_names)
        assert served == 1
        for region_id in (0, served + 1):
            before = len(samp.spans.spans)
            samp._on_traced_read(7, 3, 2, region_id)
            assert [s.name for s in samp.spans.spans[before:]] == [
                "serve_read"]

    #: sha256 of the healthy world's spans (10 s, every transaction an
    #: exemplar), as recorded when the update span was written only for
    #: a stored transaction: [daemon, trace id, span id, parent, hop,
    #: name, repr(t0), repr(t1)] per span, sampler ring then aggregator's.
    SPANS_SHA256 = (
        "2a1516f2cd2aa34204468dd19c32ff7e6f45d2d6cb15b9d5ad6a32701f902d01")

    def test_span_identity_pinned(self):
        eng, samp, agg = _world()
        agg.spans.sample_every = 1
        eng.run(until=10.0)
        rows, added = [], []
        for rec in (samp.spans, agg.spans):
            for s in rec.spans:
                if isinstance(s, UpdateSpan) and s.status != "stored":
                    added.append(s)
                    continue
                rows.append([rec.daemon, s.trace_id, s.span_id,
                             s.parent_span, s.hop, s.name,
                             repr(s.t0), repr(s.t1)])
        assert len(rows) == 78
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == self.SPANS_SHA256
        # The only spans allowed beyond the pinned set: update spans of
        # exemplars that ended without storing.
        assert all(s.name == "update" and s.status in UPDATE_STATUSES
                   for s in added)

    def test_freshness_tracks_healthy_run_complete(self):
        eng, samp, agg = _world()
        eng.run(until=20.0)
        fleet = agg.freshness.fleet(20.0)
        assert fleet["producers"] == 1
        assert fleet["missed"] == 0
        assert fleet["completeness"] == 1.0

    def test_prof_export_chrome_verb(self):
        eng, samp, agg = _world()
        agg.spans.sample_every = 1
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
        agg.set_pool = None  # as on a RealEnv daemon, which has no pool
        stats = agg.stats()
        assert stats["set_pool"] == {"arenas": 0, "blocks": 0, "rows": 0}
        prof = json.loads(ControlChannel(agg).handle("prof").partition(" ")[2])
        assert prof["arena"]["pool"] == {"arenas": 0, "blocks": 0, "rows": 0}
        assert "freshness" in prof and "flight" in prof and "spans" in prof


# ---------------------------------------------------------------------------
# exemplar-sampling determinism (satellite): same seed => identical
# traced transactions across plain / sanitized / per-instance runs
# (argv[1]: "1" cohort sweeps, "0" every sampler on the per-instance path).
# ---------------------------------------------------------------------------
_DETERMINISM_SCRIPT = """
import json, sys
import repro.plugins
from repro.core import Ldmsd, SimEnv
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport

if sys.argv[1] == "0":
    from repro.plugins.samplers.synthetic import SyntheticSampler
    SyntheticSampler.cohort_key = lambda self: None
eng = Engine(); env = SimEnv(eng)
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
                  "completed": [u.trace_id for u in agg.spans.updates()]}))
"""


class TestExemplarDeterminism:
    def test_traced_set_invariant_across_modes(self):
        plain = self._run({})
        assert plain["traced"], "exemplar sampling traced nothing"
        sanitized = self._run({"REPRO_SANITIZE": "1"})
        per_instance = self._run({}, cohort="0")
        assert sanitized == plain
        assert per_instance == plain

    @staticmethod
    def _run(env_overrides, cohort="1"):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env.pop("REPRO_SANITIZE", None)
        env.update(env_overrides)
        out = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT, cohort],
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

    def test_a_count_that_falls_shows_its_value_not_a_negative_rate(self):
        from repro.cli.repro_top_cli import _RATED, render_fleet
        from repro.obs.selfmetrics import COUNT_COLUMNS
        assert set(_RATED) <= COUNT_COLUMNS
        before = {"n0/self": self._row(samples=400, updates_completed=90,
                                       updates_stored=80)}
        # Restarted: samples and stores count from 0 again.
        after = {"n0/self": self._row(samples=6, updates_completed=110,
                                      updates_stored=3)}
        line = render_fleet(after, before, 2.0)[1]
        assert "-" not in line
        samp, upd, stor = line.split()[1:4]
        assert (samp, upd, stor) == ("6", "10.0", "3")

    def test_empty_fleet_hint(self):
        from repro.cli.repro_top_cli import render_fleet
        lines = render_fleet({}, None, 0.0)
        assert any("ldmsd_self" in line for line in lines)
