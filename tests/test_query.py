"""The query/serving tier: wire codec, engine cache paths, feature
gate, end-to-end DES round-trips (arena on/off), and replay."""

import pytest

import repro.plugins  # noqa: F401
from repro.core import Ldmsd, SimEnv, wire
from repro.core.store import StoreRecord
from repro.obs.registry import Telemetry
from repro.obs.selfmetrics import SELF_METRIC_NAMES, collect
from repro.plugins.stores.sos import SosReader, SosStore, rollup_schema
from repro.query.clients import ClientMix, Poller, build_population
from repro.query.engine import QueryEngine
from repro.sim.engine import Engine
from repro.transport.base import BASE_FEATURES, Endpoint
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
        # QUERY frames must round-trip through encode/decode like every
        # other MsgType (the high bit carries TRACE_FLAG).
        for mt in (wire.MsgType.QUERY_REQ, wire.MsgType.QUERY_REPLY):
            frame = wire.decode_frame(wire.encode_frame(mt, 42, b"x"))
            assert frame.msg_type == mt
            assert frame.request_id == 42


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


class TestFeatureGate:
    def test_base_features_advertise_query(self):
        assert "query" in BASE_FEATURES

    def test_negotiate_sets_query_ok(self):
        ep = Endpoint()
        assert not ep.query_ok  # nothing assumed before the peer's HELLO
        ep._negotiate(frozenset({"trace-ctx"}))  # old build
        assert not ep.query_ok
        ep._negotiate(frozenset({"trace-ctx", "query"}))
        assert ep.query_ok

    def test_client_skips_peer_without_feature(self):
        class OldEp:
            closed = False
            query_ok = False

        p = Poller("p0", None, None, None, "mem",
                   Telemetry(), interval=1.0)
        p.ep = OldEp()
        p._tick()
        assert p.skipped_nofeature == 1
        assert p.sent == 0


def _sos_world(tmp, arena, rollups="10", n=4, duration=30.0,
               enable_query=False, mix=None):
    """Small DES fan-in whose aggregator stores to SOS; optionally the
    full serving tier with a client population on top."""
    eng = Engine()
    env = SimEnv(eng, arena=arena)
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
    correctly, identically with the set arena on and off."""

    def _records(self, tmp_path, arena):
        path = tmp_path / f"arena_{arena}"
        path.mkdir()
        agg, store, _ = _sos_world(str(path), arena)
        agg.shutdown()
        reader = SosReader(str(path), "synthetic")
        return reader, [(r.timestamp, r.component_id, r.values)
                        for r in reader]

    def test_arena_on_off_identical_and_boundaries(self, tmp_path):
        out = {}
        for arena in (True, False):
            reader, records = self._records(tmp_path, arena)
            assert records, "DES run stored nothing"
            out[arena] = records

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

    def test_rollup_containers_match_across_arena(self, tmp_path):
        out = {}
        for arena in (True, False):
            path = tmp_path / f"roll_{arena}"
            path.mkdir()
            agg, store, _ = _sos_world(str(path), arena)
            agg.shutdown()
            rolled = list(SosReader(str(path),
                                    rollup_schema("synthetic", 10)))
            assert rolled
            out[arena] = rolled
        assert out[True] == out[False]


class TestServeEndToEnd:
    def test_population_served_and_selfmetrics(self, tmp_path):
        mix = ClientMix(pollers=2, evaluators=1, scanners=1,
                        eval_level=10, scan_level=10, scan_span=20.0)
        agg, store, clients = _sos_world(
            str(tmp_path), arena=False, duration=40.0,
            enable_query=True, mix=mix)
        assert sum(c.sent for c in clients) > 0
        assert sum(c.replies for c in clients) > 0
        assert sum(c.skipped_nofeature for c in clients) == 0
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

    def test_daemon_without_engine_replies_noent(self, tmp_path):
        mix = ClientMix(pollers=1, evaluators=0, scanners=0)
        agg, store, clients = _sos_world(
            str(tmp_path), arena=False, duration=10.0,
            enable_query=False, mix=mix)
        (c,) = clients
        assert c.replies > 0
        assert c.errors == c.replies  # every reply was E_NOENT
        agg.shutdown()

    def test_malformed_query_req_gets_einval_and_serving_continues(
            self, tmp_path):
        # A 2-byte QUERY_REQ payload used to raise struct.error out of
        # the daemon's message handler and abort Engine.run.
        eng = Engine()
        env = SimEnv(eng)
        fabric = SimFabric(eng)
        agg = Ldmsd("agg", env=env,
                    transports={"sock": SimTransport(fabric, "sock",
                                                     node_id="agg")})
        store = agg.add_store("sos", path=str(tmp_path))
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
        eng.run(until=2.0)
        got = {f.request_id: wire.unpack_query_reply(f.payload)
               for f in replies}
        assert got[1] == (wire.E_INVAL, 0, (), [])
        assert got[2] == (wire.E_INVAL, 0, (), [])
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
        agg, store, _ = _sos_world(str(tmp_path), arena=False,
                                   duration=5.0, enable_query=True)
        row = collect(agg)
        assert len(row) == len(SELF_METRIC_NAMES)
        assert "query_requests" in SELF_METRIC_NAMES
        agg.shutdown()
