"""The query/serving tier: wire codec, engine cache paths, feature
gate, end-to-end DES round-trips (cohort and per-instance sampling), and
replay."""

import gc
import sys

import pytest

import repro.plugins  # noqa: F401
from repro.core import Ldmsd, SimEnv, sanitize, wire
from repro.core.store import StoreRecord
from repro.obs.registry import Telemetry
from repro.obs.selfmetrics import SELF_METRIC_NAMES, collect
from repro.plugins.samplers.synthetic import SyntheticSampler
from repro.plugins.stores.sos import SosReader, SosStore, rollup_schema
from repro.query.clients import ClientMix, Poller, build_population
from repro.query.engine import MAX_READERS, QueryEngine
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport
from repro.util.errors import ConfigError, ReproError


def rec(t=1.0, comp=1, values=(10.0, 20.0), schema="mem"):
    return StoreRecord(t, "n0", f"n0/{schema}", schema, ("a", "b"),
                       (comp, comp), tuple(values))


class TestQueryWire:
    def test_req_roundtrip(self):
        payload = wire.pack_query_req("meminfo", 12.5, 90.0, level=60,
                                      comp_id=7, max_records=100)
        assert wire.unpack_query_req(payload) == (
            "meminfo", 12.5, 90.0, 60, 7, 100)

    def test_req_defaults(self):
        payload = wire.pack_query_req("s", 0.0, 1.0)
        assert wire.unpack_query_req(payload) == ("s", 0.0, 1.0, 0, 0, 0)

    def test_reply_roundtrip(self):
        rows = [(1.0, 3, (1.5, 2.5)), (2.0, 4, (3.0, 4.0))]
        payload = wire.pack_query_reply(
            wire.E_OK, ("a", "b"), rows,
            flags=wire.QUERY_TRUNCATED | wire.QUERY_CACHE_HIT)
        status, flags, names, out = wire.unpack_query_reply(payload)
        assert status == wire.E_OK
        assert flags == wire.QUERY_TRUNCATED | wire.QUERY_CACHE_HIT
        assert names == ("a", "b")
        assert out == rows

    def test_reply_empty(self):
        status, flags, names, rows = wire.unpack_query_reply(
            wire.pack_query_reply(wire.E_NOENT))
        assert status == wire.E_NOENT
        assert flags == 0
        assert names == ()
        assert rows == []

    def test_block_views_bytes_and_copies_mutable_memory(self):
        rows = [(1.0, 3, (1.5, 2.5)), (2.0, 4, (3.0, 4.0))]
        payload = wire.pack_query_reply(wire.E_OK, ("a", "b"), rows)
        # Immutable memory is read in place, a view of it too ...
        assert wire.unpack_query_reply(payload)[3].raw.obj is payload
        view = memoryview(payload)
        assert wire.unpack_query_reply(view)[3].raw.obj is payload
        # ... memory its owner may still change is copied.
        for buf in (bytearray(payload), memoryview(bytearray(payload))):
            got = wire.unpack_query_reply(buf)[3]
            buf[-24:] = b"\xff" * 24
            assert got == rows

    def test_req_shorter_than_header_is_rejected(self):
        good = wire.pack_query_req("meminfo", 0.0, 1.0)
        for cut in (0, 2, 29):
            with pytest.raises(ReproError):
                wire.unpack_query_req(good[:cut])

    def test_req_schema_len_past_payload_is_rejected(self):
        # was: silently truncated to whatever bytes were there
        good = wire.pack_query_req("meminfo", 0.0, 1.0)
        with pytest.raises(ReproError):
            wire.unpack_query_req(good[:-1])
        with pytest.raises(ReproError):
            wire.unpack_query_req(good[:30])

    def test_msg_types_survive_flag_mask(self):
        # Every MsgType (the QUERY pair included) is a distinct number
        # below TRACE_FLAG and round-trips through encode/decode with
        # and without a trace blob: the high bit carries TRACE_FLAG and
        # the decoders mask it off.
        members = {name: v for name, v in vars(wire.MsgType).items()
                   if not name.startswith("_")}
        assert {"QUERY_REQ", "QUERY_REPLY", "HELLO"} <= set(members)
        assert len(set(members.values())) == len(members)
        trace = ((0, 7, 3, 1),)
        for name, mt in members.items():
            assert 0 < mt < wire.TRACE_FLAG, name
            for tr in (None, trace):
                raw = wire.encode_frame(mt, 42, b"x", tr)
                for frame in (wire.decode_frame(raw),
                              *wire.FrameDecoder().feed(raw)):
                    assert frame.msg_type == mt, (name, tr)
                    assert frame.request_id == 42
                    assert frame.payload == b"x"
                    assert frame.trace == tr


class TestQueryEngine:
    def _engine(self, tmp_path, **kw):
        store = SosStore()
        store.config(path=str(tmp_path), rollups="10")
        kw.setdefault("hot_window", 30.0)
        return store, QueryEngine(store, lambda: 0.0, **kw)

    def test_hot_window_serves_recent_data(self, tmp_path):
        store, eng = self._engine(tmp_path)
        for k in range(5):
            store.submit(rec(t=float(k), values=(k, k)))
        res = eng.query("mem", 0.0, 10.0)
        assert res.source == "hot"
        assert res.cache_hit
        assert [r[0] for r in res.rows] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert res.names == ("a", "b")
        store.close()

    def test_scan_then_lru_then_invalidation(self, tmp_path):
        store, eng = self._engine(tmp_path)
        for k in range(100):  # hot window 30: floor rises past t=0
            store.submit(rec(t=float(k)))
        res = eng.query("mem", 0.0, 20.0)
        assert res.source == "scan"
        assert not res.cache_hit
        assert len(res.rows) == 20
        # identical repeat: the LRU result cache answers
        res2 = eng.query("mem", 0.0, 20.0)
        assert res2.source == "lru"
        assert res2.cache_hit
        assert res2.rows == res.rows
        # any append bumps the container version: entry invalid
        store.submit(rec(t=100.0))
        res3 = eng.query("mem", 0.0, 20.0)
        assert res3.source == "scan"
        assert res3.rows == res.rows
        store.close()

    def test_hot_floor_guards_unseen_rows(self, tmp_path):
        # A window reaching below what the hot window covers must scan,
        # even though some of its rows sit in the window.
        store, eng = self._engine(tmp_path)
        for k in range(100):
            store.submit(rec(t=float(k)))
        res = eng.query("mem", 0.0, 100.0)
        assert res.source == "scan"
        assert len(res.rows) == 100
        store.close()

    def test_hot_window_is_sorted_and_carries_its_wire_bytes(self, tmp_path):
        # Out-of-order arrivals land in timestamp order, ties in append
        # order (what the container scan's stable sort yields), and the
        # answer is a slice of the window's one packed buffer: the bytes
        # served equal a fresh pack of the same rows.
        store, eng = self._engine(tmp_path)
        for k, t in enumerate((5.0, 1.0, 5.0, 3.0, 1.0)):
            store.submit(rec(t=t, values=(k, 0)))
        res = eng.query("mem", 0.0, 10.0)
        assert res.source == "hot"
        want = [(1.0, 1, (1.0, 0.0)), (1.0, 1, (4.0, 0.0)),
                (3.0, 1, (3.0, 0.0)), (5.0, 1, (0.0, 0.0)),
                (5.0, 1, (2.0, 0.0))]
        assert isinstance(res.rows, wire.RowBlock)
        assert res.rows == want
        assert wire.pack_query_reply(
            res.status, res.names, res.rows, res.flags()
        ) == wire.pack_query_reply(res.status, res.names, want, res.flags())
        hot = eng._hot["mem"]
        assert hot.times == [1.0, 1.0, 3.0, 5.0, 5.0]
        assert bytes(hot.buf) == res.rows.raw  # no per-row object kept
        scan = eng._scan("mem", 0.0, 10.0, 0, 0)
        assert isinstance(scan.rows, wire.RowBlock)
        assert scan.rows.raw == res.rows.raw
        store.close()

    def test_hot_answer_leaves_the_window_free_to_grow(self, tmp_path):
        # A view of the window's buffer kept past the query would make
        # the next ingest's resize raise BufferError.
        store, eng = self._engine(tmp_path)
        for k in range(4):
            store.submit(rec(t=float(k), values=(k, 0)))
        res = eng.query("mem", 0.0, 10.0)
        assert res.source == "hot"
        for t in (4.0, 0.5):  # an append, then a straggler
            store.submit(rec(t=t, values=(-1, -1)))
        assert [r[2][0] for r in res.rows] == [0.0, 1.0, 2.0, 3.0]
        store.close()

    def test_straggler_below_the_floor_does_not_lower_it(self, tmp_path):
        store, eng = self._engine(tmp_path)
        for t in (0.0, 18.0, 50.0):   # t=50 trims rows 0 and 18: floor 20
            store.submit(rec(t=t))
        assert eng._hot["mem"].floor == 20.0
        store.submit(rec(t=15.0))     # straggler below the floor
        store.submit(rec(t=46.0))     # trims it again, at cutoff 16 < 20
        assert eng._hot["mem"].floor == 20.0
        res = eng.query("mem", 16.0, 100.0)   # row 18 left the window
        assert res.source == "scan"
        assert [r[0] for r in res.rows] == [18.0, 46.0, 50.0]
        store.close()

    def test_preexisting_container_never_hot_served(self, tmp_path):
        # Rows written before this session opened the container were
        # never ingested into the hot window — it must not answer.
        s1 = SosStore()
        s1.config(path=str(tmp_path))
        s1.submit(rec(t=1.0))
        s1.close()
        store = SosStore()
        store.config(path=str(tmp_path))
        eng = QueryEngine(store, lambda: 0.0, hot_window=30.0)
        store.submit(rec(t=2.0))
        res = eng.query("mem", 0.0, 10.0)
        assert res.source == "scan"
        assert [r[0] for r in res.rows] == [1.0, 2.0]
        store.close()

    def test_reopened_rollup_container_never_hot_served(self, tmp_path):
        # The rollup container's rows on disk were never ingested into
        # its hot window either: only the base schema used to count as
        # pre-existing, so this answered "hot" with [30.0] alone.
        s1 = SosStore()
        s1.config(path=str(tmp_path), rollups="10")
        for k in range(25):
            s1.submit(rec(t=float(k)))
        s1.close()
        store, eng = self._engine(tmp_path)
        for k in range(30, 45):
            store.submit(rec(t=float(k)))
        assert {"mem", "mem.r10"} <= store.preexisting
        res = eng.query("mem", 0.0, 100.0, level=10)
        assert res.source == "scan"
        assert [r[0] for r in res.rows] == [0.0, 10.0, 20.0, 30.0]
        store.close()

    def test_container_cut_back_to_no_record_is_hot_served(self, tmp_path):
        # Pre-existing means rows on disk: a container whose only
        # record a crash tore is empty once reopened, so its window
        # sees every row it will ever hold.
        s1 = SosStore()
        s1.config(path=str(tmp_path))
        s1.submit(rec(t=1.0))
        s1.close()
        data = tmp_path / "mem.sos"
        data.write_bytes(data.read_bytes()[:-5])
        store, eng = self._engine(tmp_path)
        store.submit(rec(t=2.0))
        assert "mem" not in store.preexisting
        res = eng.query("mem", 0.0, 10.0)
        assert res.source == "hot"
        assert [r[0] for r in res.rows] == [2.0]
        store.close()

    def test_engine_attached_late_never_hot_serves_what_it_missed(
            self, tmp_path):
        # Rows the store wrote before the engine attached never reached
        # the window: until it turns over, the window covers nothing.
        store = SosStore()
        store.config(path=str(tmp_path))
        store.submit(rec(t=1.0))
        eng = QueryEngine(store, lambda: 0.0, hot_window=30.0)
        store.submit(rec(t=2.0))
        res = eng.query("mem", 0.0, 10.0)
        assert res.source == "scan"
        assert [r[0] for r in res.rows] == [1.0, 2.0]
        store.close()

    def test_rollup_window_spans_level_times_the_base_window(self, tmp_path):
        store, eng = self._engine(tmp_path)   # hot_window 30, rollups 10
        for k in range(400):
            store.submit(rec(t=float(k), values=(k, 0)))
        assert eng._hot["mem"].floor == 399.0 - 30.0
        assert eng._hot["mem.r10"].floor == 380.0 - 300.0
        # An evaluator's [now - 120, now) over r10 is a slice of the
        # window, byte-equal to the scan of the same rows.
        res = eng.query("mem", 280.0, 400.0, level=10)
        assert res.source == "hot"
        assert [r[0] for r in res.rows] == [280.0 + 10 * i for i in range(11)]
        assert res.rows.raw == eng._scan("mem.r10", 280.0, 400.0, 0,
                                         0).rows.raw
        # Below the rollup's own floor the scan still answers.
        assert eng.query("mem", 70.0, 400.0, level=10).source == "scan"
        store.close()

    def test_rollup_redirection(self, tmp_path):
        store, eng = self._engine(tmp_path)
        for k in range(25):  # seals rollup buckets [0,10) and [10,20)
            store.submit(rec(t=float(k), values=(k, 0)))
        res = eng.query("mem", 0.0, 100.0, level=10)
        assert res.status == wire.E_OK
        assert [r[0] for r in res.rows] == [0.0, 10.0]
        assert res.rows[0][2][0] == 4.5  # mean of 0..9
        store.close()

    def test_truncation_flag(self, tmp_path):
        store, eng = self._engine(tmp_path)
        for k in range(10):
            store.submit(rec(t=float(k)))
        res = eng.query("mem", 0.0, 10.0, max_records=3)
        assert res.truncated
        assert len(res.rows) == 3
        assert res.flags() & wire.QUERY_TRUNCATED
        store.close()

    def test_component_filter(self, tmp_path):
        store, eng = self._engine(tmp_path)
        for k in range(6):
            store.submit(rec(t=float(k), comp=1 + k % 2))
        res = eng.query("mem", 0.0, 10.0, comp_id=2)
        assert [r[1] for r in res.rows] == [2, 2, 2]
        store.close()

    def test_torn_container_answers_its_whole_records(self, tmp_path):
        # A crash left the data file 5 bytes short: the scan used to
        # raise struct.error out of the daemon's query cost callable.
        s = SosStore()
        s.config(path=str(tmp_path))
        for k in range(10):
            s.submit(rec(t=float(k), values=(k, 2 * k)))
        s.close()
        data = tmp_path / "mem.sos"
        data.write_bytes(data.read_bytes()[:-5])
        store = SosStore()
        store.config(path=str(tmp_path))
        res = QueryEngine(store, lambda: 0.0).query("mem", 0.0, 100.0)
        assert res.status == wire.E_OK and res.source == "scan"
        assert res.rows == [(float(k), 1, (float(k), 2.0 * k))
                            for k in range(9)]
        store.close()

    def test_missing_container_is_noent(self, tmp_path):
        store, eng = self._engine(tmp_path)
        res = eng.query("nope", 0.0, 1.0)
        assert res.status == wire.E_NOENT
        assert res.source == "noent"
        store.close()

    def test_counters_and_stats(self, tmp_path):
        obs = Telemetry()
        store = SosStore()
        store.config(path=str(tmp_path))
        eng = QueryEngine(store, lambda: 0.0, obs=obs, hot_window=30.0)
        store.submit(rec(t=1.0))
        eng.query("mem", 0.0, 10.0)   # hot hit
        eng.query("nope", 0.0, 1.0)   # miss (noent)
        st = eng.stats()
        assert st["requests"] == 2
        assert st["cache_hits"] == 1
        assert st["cache_misses"] == 1
        assert st["rows_served"] == 1
        store.close()

    def test_counts_without_a_registry(self, tmp_path):
        # Built without obs=, the engine used to count into shared null
        # instruments: three rows served, every counter still zero.
        store = SosStore()
        store.config(path=str(tmp_path))
        for k in range(3):
            store.submit(rec(t=float(k), schema="syn"))
        q = QueryEngine(store, lambda: 0.0)
        assert len(q.query("syn", 0, 10).rows) == 3
        st = q.stats()
        assert (st["requests"], st["cache_misses"], st["rows_served"]) == (
            1, 1, 3)
        store.close()


def _sos_world(tmp, rollups="10", n=4, duration=30.0,
               enable_query=False, mix=None):
    """Small DES fan-in whose aggregator stores to SOS; optionally the
    full serving tier with a client population on top."""
    eng = Engine()
    env = SimEnv(eng)
    fabric = SimFabric(eng)
    for i in range(n):
        x = SimTransport(fabric, "sock", node_id=i)
        d = Ldmsd(f"n{i}", env=env, transports={"sock": x}, mem="8kB")
        d.load_sampler("synthetic", instance=f"n{i}/syn",
                       component_id=i + 1, num_metrics=4)
        d.start_sampler(f"n{i}/syn", interval=1.0)
        d.listen("sock", f"n{i}:411")
    agg = Ldmsd("agg", env=env,
                transports={"sock": SimTransport(fabric, "sock",
                                                 node_id="agg")})
    store = agg.add_store("sos", path=tmp, rollups=rollups)
    for i in range(n):
        agg.add_producer(f"n{i}", "sock", f"n{i}:411", interval=1.0,
                         sets=(f"n{i}/syn",))
    clients = []
    if enable_query:
        agg.enable_query(hot_window=15.0)
    if mix is not None:
        agg.listen("sock", "agg:412")
        telemetry = Telemetry()
        clients = build_population(
            env, lambda i: SimTransport(fabric, "sock",
                                        node_id=f"client{i}"),
            "agg:412", "synthetic", mix, telemetry)
        for c in clients:
            c.start()
    eng.run(until=duration)
    return agg, store, clients


class TestDesRoundTrip:
    """Satellite: records written through a real DES run read back
    correctly, identically with cohort sweeps and with every sampler on
    the per-instance path (``cohort_key()`` patched to None)."""

    @staticmethod
    def _world(path, cohort, monkeypatch):
        with monkeypatch.context() as mp:
            if not cohort:
                mp.setattr(SyntheticSampler, "cohort_key", lambda self: None)
            return _sos_world(str(path))

    def _records(self, tmp_path, cohort, monkeypatch):
        path = tmp_path / f"cohort_{cohort}"
        path.mkdir()
        agg, store, _ = self._world(path, cohort, monkeypatch)
        agg.shutdown()
        reader = SosReader(str(path), "synthetic")
        return reader, [(r.timestamp, r.component_id, r.values)
                        for r in reader]

    def test_arena_on_off_identical_and_boundaries(self, tmp_path,
                                                   monkeypatch):
        out = {}
        for cohort in (True, False):
            reader, records = self._records(tmp_path, cohort, monkeypatch)
            assert records, "DES run stored nothing"
            out[cohort] = records

            times = sorted({t for t, _, _ in records})
            t0, t1 = times[2], times[-2]
            rng = reader.range(t0, t1)
            # [t0, t1): closed at t0, open at t1
            assert any(r.timestamp == t0 for r in rng)
            assert all(t0 <= r.timestamp < t1 for r in rng)
            assert not any(r.timestamp == t1 for r in rng)
            # range agrees with filtering the full iteration
            expect = [(t, c, v) for t, c, v in records if t0 <= t < t1]
            assert [(r.timestamp, r.component_id, r.values)
                    for r in rng] == expect
        assert out[True] == out[False]

    def test_rollup_containers_match_across_arena(self, tmp_path,
                                                  monkeypatch):
        out = {}
        for cohort in (True, False):
            path = tmp_path / f"roll_{cohort}"
            path.mkdir()
            agg, store, _ = self._world(path, cohort, monkeypatch)
            agg.shutdown()
            rolled = list(SosReader(str(path),
                                    rollup_schema("synthetic", 10)))
            assert rolled
            out[cohort] = rolled
        assert out[True] == out[False]


class TestServeEndToEnd:
    def test_population_served_and_selfmetrics(self, tmp_path):
        mix = ClientMix(pollers=2, evaluators=1, scanners=1,
                        eval_level=10, scan_level=10, scan_span=20.0)
        agg, store, clients = _sos_world(
            str(tmp_path), duration=40.0,
            enable_query=True, mix=mix)
        assert sum(c.sent for c in clients) > 0
        assert sum(c.replies for c in clients) > 0
        # Every request sent was answered or is still in flight.
        assert sum(c.sent for c in clients) == sum(
            c.replies + len(c._pending) for c in clients)
        assert sum(c.cache_hits_seen for c in clients) > 0
        assert sum(c.rows_received for c in clients) > 0

        qs = agg.stats()["query"]
        assert qs["requests"] >= sum(c.replies for c in clients)
        assert qs["rows_served"] >= sum(c.rows_received for c in clients)

        row = dict(zip(SELF_METRIC_NAMES, collect(agg)))
        assert row["query_requests"] == qs["requests"]
        assert row["query_cache_hits"] == qs["cache_hits"]
        assert row["store_multi_component_rejected"] == 0
        agg.shutdown()

    def test_evaluator_replies_are_hot_and_equal_a_scan(self, tmp_path,
                                                        monkeypatch):
        # The evaluator's [now - 120, now) slides, so no key repeats:
        # with a 15 s base window the r10 window spans 150 s and holds
        # it, also once it has turned over.  Each answer is checked
        # against a scan of the same window at the moment it is served.
        answers = []
        query = QueryEngine.query

        def checked(eng, schema, t0, t1, level=0, comp_id=0,
                    max_records=0):
            res = query(eng, schema, t0, t1, level, comp_id, max_records)
            if level == 10 and res.status == wire.E_OK:
                scan = eng._scan(rollup_schema(schema, 10), t0, t1,
                                 comp_id, max_records)
                floor = eng._hot[rollup_schema(schema, 10)].floor
                answers.append((res.source, floor,
                                res.rows.raw == scan.rows.raw,
                                len(res.rows)))
            return res

        monkeypatch.setattr(QueryEngine, "query", checked)
        mix = ClientMix(pollers=1, evaluators=2, scanners=0, eval_level=10)
        agg, store, clients = _sos_world(
            str(tmp_path), rollups="10,60", duration=200.0,
            enable_query=True, mix=mix)
        agg.shutdown()
        assert len(answers) >= 30
        assert {source for source, *_ in answers} == {"hot"}
        assert all(same for _, _, same, _ in answers)
        turned_over = [rows for _, floor, _, rows in answers
                       if floor > float("-inf")]
        assert len(turned_over) >= 4 and min(turned_over) >= 11 * 4
        evaluators = [c for c in clients if c.kind == "evaluator"]
        assert all(c.cache_hits_seen == c.replies - c.errors
                   for c in evaluators)

    def test_daemon_without_engine_replies_noent(self, tmp_path):
        mix = ClientMix(pollers=1, evaluators=0, scanners=0)
        agg, store, clients = _sos_world(
            str(tmp_path), duration=10.0,
            enable_query=False, mix=mix)
        (c,) = clients
        assert c.replies > 0
        assert c.errors == c.replies  # every reply was E_NOENT
        agg.shutdown()

    def test_malformed_query_req_gets_einval_and_serving_continues(
            self, tmp_path):
        # A 2-byte QUERY_REQ payload used to raise struct.error out of
        # the daemon's message handler and abort Engine.run.  A schema
        # that is not one file-name component used to read a sibling
        # store's container (``../B/mem``) or raise ValueError out of
        # the worker (an embedded NUL).
        sibling = SosStore()
        sibling.config(path=str(tmp_path / "B"))
        sibling.submit(rec(t=1.0, values=(-1.0, -2.0)))
        sibling.close()
        eng = Engine()
        env = SimEnv(eng)
        fabric = SimFabric(eng)
        agg = Ldmsd("agg", env=env,
                    transports={"sock": SimTransport(fabric, "sock",
                                                     node_id="agg")})
        store = agg.add_store("sos", path=str(tmp_path / "A"))
        agg.enable_query(hot_window=15.0)
        agg.listen("sock", "agg:412")
        store.submit(rec(t=1.0))
        replies = []
        ends = []
        SimTransport(fabric, "sock", node_id="c").connect("agg:412",
                                                          ends.append)
        eng.run(until=1.0)
        (ep,) = ends
        ep.on_message = lambda raw: replies.append(wire.decode_frame(raw))
        good = wire.pack_query_req("mem", 0.0, 10.0)
        ep.send(wire.encode_frame(wire.MsgType.QUERY_REQ, 1, b"\x00\x01"))
        ep.send(wire.encode_frame(wire.MsgType.QUERY_REQ, 2, good[:-2]))
        ep.send(wire.encode_frame(wire.MsgType.QUERY_REQ, 3, good))
        ep.send(wire.encode_frame(wire.MsgType.QUERY_REQ, 4,
                                  wire.pack_query_req("../B/mem", 0.0, 10.0)))
        ep.send(wire.encode_frame(wire.MsgType.QUERY_REQ, 5,
                                  wire.pack_query_req("mem\x00x", 0.0, 10.0)))
        ep.send(wire.encode_frame(wire.MsgType.QUERY_REQ, 6, good))
        eng.run(until=2.0)
        got = {f.request_id: wire.unpack_query_reply(f.payload)
               for f in replies}
        assert got[1] == (wire.E_INVAL, 0, (), [])
        assert got[2] == (wire.E_INVAL, 0, (), [])
        assert got[4] == (wire.E_INVAL, 0, (), [])
        assert got[5] == (wire.E_INVAL, 0, (), [])
        assert got[6][3] == [(1.0, 1, (10.0, 20.0))]
        status, _flags, names, rows = got[3]
        assert status == wire.E_OK
        assert names == ("a", "b")
        assert rows == [(1.0, 1, (10.0, 20.0))]
        agg.shutdown()

    def test_enable_query_requires_sos_store(self, tmp_path):
        eng = Engine()
        env = SimEnv(eng)
        fabric = SimFabric(eng)
        d = Ldmsd("agg", env=env,
                  transports={"sock": SimTransport(fabric, "sock",
                                                   node_id="agg")})
        with pytest.raises(ConfigError):
            d.enable_query()
        d.shutdown()


class TestClientSurvivesMalformedReplies:
    def test_bad_replies_are_counted_and_the_run_goes_on(self):
        # A truncated reply used to raise WireError out of the client's
        # handler and abort Engine.run, and the request it answered was
        # counted nowhere: popped from _pending, but neither a reply nor
        # an error.
        eng = Engine()
        env = SimEnv(eng)
        fabric = SimFabric(eng)
        served = []

        def accept(ep):
            def answer(raw):
                rid = wire.decode_frame(raw).request_id
                served.append(rid)
                payload = wire.pack_query_reply(
                    wire.E_OK, ("a",), [(1.0, 1, (2.0,))])
                reply = wire.encode_frame(wire.MsgType.QUERY_REPLY, rid,
                                          payload)
                if len(served) == 1:    # the frame cut: no request id
                    reply = reply[:-3]
                elif len(served) == 2:  # a whole frame, its payload cut
                    reply = wire.encode_frame(wire.MsgType.QUERY_REPLY,
                                              rid, payload[:-3])
                ep.send(reply)
            ep.on_message = answer

        SimTransport(fabric, "sock", node_id="srv").listen("srv:412", accept)
        client = Poller("p0", env, SimTransport(fabric, "sock", node_id="c"),
                        "srv:412", "mem", Telemetry(), interval=1.0)
        client.start()
        eng.run(until=10.5)
        assert client.sent == len(served) >= 8
        assert client.errors == 2
        assert list(client._pending) == [1]   # its reply had no id left
        assert client.replies == client.sent - 1
        assert client.rows_received == client.replies - 1


#: Python calls one answered hot query costs, end to end: the poller's
#: tick and request, the fabric, the daemon's serve and pool task, the
#: hot-window slice, the reply's encode, and the client's decode.  It
#: was 113.05 while the reply's names header was encoded per reply and
#: walked per decode, a helper call per bounds check; 79.05 since.  The
#: 10 % headroom covers library versions.
CALLS_PER_HOT_REPLY = 79.05


def _calls_per_hot_reply(tmp) -> float:
    """``sys.setprofile`` ``"call"`` events per reply over 10 s of four
    pollers reading 64 stored 8-metric rows from the hot window, after
    a warm-up; the DES history is fixed, so the count is exact."""
    eng = Engine()
    env = SimEnv(eng)
    fabric = SimFabric(eng)
    agg = Ldmsd("agg", env=env, transports={
        "sock": SimTransport(fabric, "sock", node_id="agg")})
    store = agg.add_store("sos", path=tmp)
    agg.enable_query(hot_window=1000.0)
    agg.listen("sock", "agg:412")
    names = tuple(f"m{i}" for i in range(8))
    for k in range(64):
        store.submit(StoreRecord(float(k), "n0", "n0/mem", "mem", names,
                                 (1,) * 8, tuple(float(k + i)
                                                 for i in range(8))))
    clients = [Poller(f"p{i}", env, SimTransport(fabric, "sock",
                                                 node_id=f"c{i}"),
                      "agg:412", "mem", Telemetry(), interval=1.0,
                      offset=i / 4, window=1000.0) for i in range(4)]
    for c in clients:
        c.start()
    eng.run(until=100.0)
    before = sum(c.replies for c in clients)
    rows_before = sum(c.rows_received for c in clients)
    calls = 0

    def count(_frame, event, _arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        eng.run(until=110.0)
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    replies = sum(c.replies for c in clients) - before
    assert replies == 40
    assert sum(c.rows_received for c in clients) - rows_before == 64 * 40
    qs = agg.stats()["query"]
    assert qs["cache_misses"] == 0 and qs["lru_entries"] == 0  # all hot
    agg.shutdown()
    return calls / replies


class TestReplyCost:
    @pytest.mark.skipif(sanitize.enabled(), reason="the sanitizer adds calls")
    def test_python_calls_per_hot_reply(self, tmp_path):
        calls = _calls_per_hot_reply(str(tmp_path))
        assert calls <= CALLS_PER_HOT_REPLY * 1.10, (
            f"{calls:.2f} Python calls per answered hot query")


class TestQueryLoadReplay:
    def test_same_seed_identical(self):
        from repro.experiments.query_load import run_query_load

        mix = ClientMix(pollers=2, evaluators=1, scanners=1)
        runs = [run_query_load(n_samplers=2, n_metrics=2, duration=25.0,
                               mix=mix) for _ in range(2)]
        assert runs[0].key() == runs[1].key()
        assert runs[0].query_requests > 0
        assert runs[0].poller.replies > 0


class TestQueryCli:
    def _container(self, tmp_path):
        s = SosStore()
        s.config(path=str(tmp_path), rollups="10")
        for k in range(20):
            s.submit(rec(t=float(k), values=(k, 2 * k)))
        s.close()

    def test_offline_range(self, tmp_path, capsys):
        from repro.cli.query_cli import main

        self._container(tmp_path)
        assert main(["--path", str(tmp_path), "--schema", "mem",
                     "--t0", "5", "--t1", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Time,CompId,a,b"
        assert lines[1] == "5.000000,1,5,10"
        assert len(lines) == 4

    def test_offline_rollup_level(self, tmp_path, capsys):
        from repro.cli.query_cli import main

        self._container(tmp_path)
        assert main(["--path", str(tmp_path), "--schema", "mem",
                     "--level", "10", "--t0", "0", "--t1", "100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("0.000000,1,4.5,")

    def test_offline_csv_equals_the_live_reply(self, tmp_path, capsys,
                                               monkeypatch):
        # One scan serves both modes: the offline CSV of a window is the
        # CSV of the reply a daemon sends for it (a straggler, two
        # components, a filter and a cut included).
        from repro.cli import client
        from repro.cli.query_cli import main

        s = SosStore()
        s.config(path=str(tmp_path), rollups="10")
        for k, t in enumerate((0.0, 1.0, 2.5, 1.5, 4.0, 0.5, 7.0, 3.0)):
            s.submit(rec(t=t, comp=1 + k % 2, values=(k, -t / 3)))
        s.close()
        store = SosStore()
        store.config(path=str(tmp_path))
        engine = QueryEngine(store, lambda: 0.0)

        class LiveClient:
            def __init__(self, host, port):
                pass

            def query(self, *args, **kw):
                res = engine.query(*args, **kw)
                return wire.unpack_query_reply(wire.pack_query_reply(
                    res.status, res.names, res.rows, res.flags()))

            def close(self):
                pass

        monkeypatch.setattr(client, "SyncClient", LiveClient)
        window = ["--t0", "0.5", "--t1", "4"]
        for extra, rows in (([], 5), (["--comp-id", "2"], 4),
                            (["--max-records", "3"], 3),
                            (["--t0", "0", "--t1", "9", "--level", "10"], 2),
                            (["--t0", "5", "--t1", "1"], 0)):
            args = ["--schema", "mem"] + window + extra
            assert main(["--path", str(tmp_path)] + args) == 0
            offline = capsys.readouterr().out
            assert len(offline.splitlines()) == 1 + rows
            assert main(["--host", "h", "--port", "1"] + args) == 0
            assert capsys.readouterr().out == offline
        store.close()

    def test_offline_missing_container(self, tmp_path, capsys):
        from repro.cli.query_cli import main

        assert main(["--path", str(tmp_path), "--schema", "nope",
                     "--t0", "0", "--t1", "1"]) == 1


class TestSelfMetricsSchema:
    def test_names_and_row_stay_aligned(self, tmp_path):
        agg, store, _ = _sos_world(str(tmp_path),
                                   duration=5.0, enable_query=True)
        row = collect(agg)
        assert len(row) == len(SELF_METRIC_NAMES)
        assert "query_requests" in SELF_METRIC_NAMES
        agg.shutdown()


class TestScanMemory:
    """What a scanned container costs the engine: its reader holds the
    index at most 16 bytes a row (the ``.sidx`` entry's size), and
    loading or refreshing it peaks at 32 bytes a row."""

    COMPONENTS = 64
    INTERVALS = 3200  # 204,800 rows

    @classmethod
    def _intervals(cls, k0: int, k1: int, seed: int):
        """Intervals ``[k0, k1)`` as an aggregator's flushes write them:
        each interval's 64 rows in arrival order, so their timestamps
        (one per component, a few ms apart) are out of order in the
        index."""
        import numpy as np

        rng = np.random.default_rng(seed)
        comp = np.concatenate([rng.permutation(cls.COMPONENTS)
                               for _ in range(k1 - k0)]) + 1
        ts = np.repeat(np.arange(k0, k1, dtype=float), cls.COMPONENTS)
        return ts + comp * 1e-3, comp

    @staticmethod
    def _append(base: str, ts, comp) -> None:
        """Append rows to a 2-column container's file pair."""
        import numpy as np

        from repro.plugins.stores.sos import _rec_dtype

        recs = np.zeros(len(ts), _rec_dtype(2))
        recs["ts"], recs["comp_id"], recs["card"] = ts, comp, 2
        recs["values"] = 1.0
        with open(base + ".sos", "ab") as f:
            start = f.tell()
            f.write(recs.tobytes())
        idx = np.empty(len(ts), [("t", "<f8"), ("off", "<u8")])
        idx["t"] = ts
        idx["off"] = start + np.arange(len(ts), dtype=np.uint64) * recs.itemsize
        with open(base + ".sidx", "ab") as f:
            f.write(idx.tobytes())

    def _engine(self, tmp_path):
        store = SosStore()
        store.config(path=str(tmp_path))
        store.submit(rec(t=0.5, comp=1))  # the sidecar, and row 0
        store.flush()
        self._append(str(tmp_path / "mem"),
                     *self._intervals(1, 1 + self.INTERVALS, 1))
        return store, QueryEngine(store, lambda: 1e9)

    @staticmethod
    def _traced(fn) -> tuple[int, int]:
        """(bytes still held, peak bytes) that ``fn()`` added."""
        import tracemalloc

        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            gc.collect()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return held - before, peak - before

    def test_a_scanned_container_pins_at_most_16_bytes_a_row(self, tmp_path):
        store, eng = self._engine(tmp_path)
        rows = 1 + self.COMPONENTS * self.INTERVALS
        out = []
        held, peak = self._traced(
            lambda: out.append(eng.query("mem", 100.0, 110.0)))
        res = out[0]
        assert res.source == "scan"
        assert len(res.rows) == 10 * self.COMPONENTS
        assert held / rows <= 16.0, f"{held / rows:.1f} B a row held"
        assert peak / rows <= 32.0, f"{peak / rows:.1f} B a row at the load"
        store.close()

    def test_refreshing_an_out_of_order_tail_peaks_at_32_bytes_a_row(
            self, tmp_path):
        store, eng = self._engine(tmp_path)
        assert eng.query("mem", 100.0, 110.0).source == "scan"
        # A late row, then more intervals: the tail starts before the
        # index's last timestamp, so the reader re-sorts.
        base = str(tmp_path / "mem")
        self._append(base, [50.25], [99])
        self._append(base, *self._intervals(1 + self.INTERVALS,
                                            1 + 2 * self.INTERVALS, 2))
        rows = 2 + 2 * self.COMPONENTS * self.INTERVALS
        out = []
        _held, peak = self._traced(
            lambda: out.append(eng.query("mem", 50.0, 51.0)))
        got = [(t, c) for t, c, _v in out[0].rows]
        assert len(got) == self.COMPONENTS + 1
        assert got[-1] == (50.25, 99)  # after 50.064, in time order
        assert got == sorted(got)
        assert peak / rows <= 32.0, f"{peak / rows:.1f} B a row at refresh"
        store.close()

    def test_the_engine_keeps_a_bounded_set_of_readers(self, tmp_path):
        store = SosStore()
        store.config(path=str(tmp_path))
        schemas = [f"s{i}" for i in range(MAX_READERS + 2)]
        for schema in schemas:
            store.submit(rec(t=1.0, schema=schema))
        eng = QueryEngine(store, lambda: 1e9)
        eng.hot_window = 0.0  # every query scans
        for schema in schemas:
            assert eng.query(schema, 0.0, 2.0).source == "scan"
        assert list(eng._readers) == schemas[2:]
        # A dropped reader costs one reload; its answer is the same.
        assert len(eng.query("s0", 0.5, 2.0).rows) == 1
        assert list(eng._readers) == [*schemas[3:], "s0"]
        store.close()

    def test_record_numbers_widen_past_what_four_bytes_hold(self, tmp_path):
        import numpy as np

        from repro.plugins.stores.sos import _rec_dtype

        store = SosStore()
        store.config(path=str(tmp_path))
        for t in (1.0, 2.0):
            store.submit(rec(t=t))
        store.close()
        size = _rec_dtype(2).itemsize
        idx = np.empty(3, [("t", "<f8"), ("off", "<u8")])
        # Off the grid; a record past 2**32 - 1 (beyond the file); and
        # record 0 again, out of time order.
        idx["t"] = (0.5, 3.0, 1.5)
        idx["off"] = (7, (2**32 + 5) * size, 0)
        with open(tmp_path / "mem.sidx", "ab") as f:
            f.write(idx.tobytes())
        reader = SosReader(str(tmp_path), "mem")
        assert reader._rows.dtype == np.uint64
        assert [r.timestamp for r in reader] == [1.0, 1.0, 2.0]
        assert reader.skipped == 2
        assert [r.timestamp for r in reader.range(0.0, 1.5)] == [1.0]
        assert reader.skipped == 1  # the off-grid entry, at 0.5
