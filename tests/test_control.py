"""Tests for the control channel: command parsing, verbs, UNIX server."""

import json
import os
import socket
import time

import pytest

import repro.plugins  # noqa: F401
from repro.core import Ldmsd, SimEnv
from repro.core.control import ControlChannel, UnixControlServer, parse_command
from repro.nodefs.host import HostModel
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport
from repro.util.errors import ConfigError


class TestParseCommand:
    def test_basic(self):
        verb, attrs = parse_command("load name=meminfo")
        assert verb == "load"
        assert attrs == {"name": "meminfo"}

    def test_multiple_attrs(self):
        verb, attrs = parse_command(
            "config name=x instance=node0/x component_id=3")
        assert attrs["component_id"] == "3"

    def test_quoted_values(self):
        _, attrs = parse_command('config name=x path="/tmp/a b"')
        assert attrs["path"] == "/tmp/a b"

    def test_case_insensitive_verb(self):
        verb, _ = parse_command("LOAD name=x")
        assert verb == "load"

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            parse_command("   ")

    def test_malformed_attr_rejected(self):
        with pytest.raises(ConfigError):
            parse_command("load meminfo")

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_command("load =value")


@pytest.fixture
def channel():
    eng = Engine()
    env = SimEnv(eng)
    host = HostModel("n0", clock=lambda: eng.now)
    fabric = SimFabric(eng)
    d = Ldmsd("n0", env=env, fs=host.fs,
              transports={"rdma": SimTransport(fabric, "rdma", node_id="n0")})
    return eng, d, ControlChannel(d)


class TestControlVerbs:
    def test_load_config_start_stop(self, channel):
        eng, d, ch = channel
        assert ch.handle("load name=meminfo").startswith("0")
        assert ch.handle(
            "config name=meminfo instance=n0/mem component_id=1"
        ).startswith("0")
        assert ch.handle("start name=n0/mem interval=1000000").startswith("0")
        eng.run(until=3.5)
        assert d.get_set("n0/mem").get("MemTotal") > 0
        assert ch.handle("stop name=n0/mem").startswith("0")

    def test_config_without_load_fails(self, channel):
        _, _, ch = channel
        assert ch.handle("config name=meminfo instance=x").startswith("E")

    def test_load_unknown_plugin_fails(self, channel):
        _, _, ch = channel
        assert ch.handle("load name=not_a_plugin").startswith("E")

    def test_unknown_verb_fails(self, channel):
        _, _, ch = channel
        reply = ch.handle("frobnicate name=x")
        assert reply.startswith("E")
        assert "unknown command" in reply

    def test_interval_is_microseconds(self, channel):
        eng, d, ch = channel
        ch.handle("load name=synthetic")
        ch.handle("config name=synthetic instance=n0/s component_id=1 "
                  "num_metrics=2")
        ch.handle("start name=n0/s interval=500000")  # 0.5 s
        eng.run(until=2.2)
        assert d.get_set("n0/s").get("metric_0") == 4

    def test_term_unloads(self, channel):
        eng, d, ch = channel
        ch.handle("load name=synthetic")
        ch.handle("config name=synthetic instance=n0/s component_id=1")
        ch.handle("start name=n0/s interval=1000000")
        assert ch.handle("term name=n0/s").startswith("0")
        assert d.get_set("n0/s") is None
        eng.run(until=3.0)  # no crash from orphan timer

    def test_dir_json(self, channel):
        _, d, ch = channel
        ch.handle("load name=synthetic")
        ch.handle("config name=synthetic instance=n0/s component_id=1 "
                  "num_metrics=3")
        reply = ch.handle("dir")
        assert reply.startswith("0 ")
        payload = json.loads(reply[2:])
        assert payload[0]["name"] == "n0/s"
        assert payload[0]["card"] == 3

    def test_stats_json(self, channel):
        _, _, ch = channel
        reply = ch.handle("stats")
        stats = json.loads(reply[2:])
        assert stats["name"] == "n0"

    def test_stats_schema_includes_obs_snapshot(self, channel):
        eng, d, ch = channel
        ch.handle("load name=synthetic")
        ch.handle("config name=synthetic instance=n0/s component_id=1")
        ch.handle("start name=n0/s interval=1000000")
        eng.run(until=3.5)
        stats = json.loads(ch.handle("stats")[2:])
        # stable top-level schema
        assert {"name", "sets", "arena_used", "arena_peak", "arena_size",
                "plugins", "producers", "records_delivered", "stores",
                "obs"} <= set(stats)
        obs = stats["obs"]
        assert obs["enabled"] is True
        assert set(obs) == {"enabled", "counters", "gauges", "histograms"}
        # command handling and sampling were themselves counted
        assert obs["counters"]["control.commands"] >= 4
        assert obs["counters"]["sampler.samples"] == 3
        h = obs["histograms"]["sample.duration"]
        assert set(h) == {"count", "sum", "min", "max", "mean",
                          "p50", "p95", "p99"}
        assert h["count"] == 3

    def test_prof_json_histogram_dumps(self, channel):
        eng, d, ch = channel
        ch.handle("load name=synthetic")
        ch.handle("config name=synthetic instance=n0/s component_id=1")
        ch.handle("start name=n0/s interval=1000000")
        eng.run(until=2.5)
        prof = json.loads(ch.handle("prof")[2:])
        assert set(prof) == {"name", "histograms", "traces", "arena",
                             "freshness", "flight", "spans",
                             "xprt_refused_connections"}
        assert prof["name"] == "n0"
        assert prof["xprt_refused_connections"] == 0
        assert isinstance(prof["traces"], list)
        assert set(prof["arena"]) == {"sweeps", "rows_vectorized",
                                      "fallback_sets", "pool"}
        h = prof["histograms"]["sample.duration"]
        # full dump: summary plus the bucket vector
        assert {"count", "sum", "min", "max", "mean", "p50", "p95", "p99",
                "edges", "buckets"} == set(h)
        assert len(h["buckets"]) == len(h["edges"]) + 1
        assert sum(h["buckets"]) == h["count"] == 2

    def test_stats_and_prof_on_disabled_daemon(self):
        eng = Engine()
        env = SimEnv(eng)
        fabric = SimFabric(eng)
        d = Ldmsd("n0", env=env, obs_enabled=False,
                  transports={"rdma": SimTransport(fabric, "rdma",
                                                   node_id="n0")})
        ch = ControlChannel(d)
        stats = json.loads(ch.handle("stats")[2:])
        assert stats["obs"] == {"enabled": False, "counters": {},
                                "gauges": {}, "histograms": {}}
        prof = json.loads(ch.handle("prof")[2:])
        assert prof["histograms"] == {} and prof["traces"] == []

    def test_add_remove_producer(self, channel):
        eng, d, ch = channel
        d.listen("rdma", "n0:411")
        assert ch.handle(
            "add host=n0:411 xprt=rdma interval=1000000 name=self"
        ).startswith("0")
        assert "self" in d.producers
        assert ch.handle("remove name=self").startswith("0")
        assert "self" not in d.producers

    def test_add_with_sets_and_standby(self, channel):
        eng, d, ch = channel
        d.listen("rdma", "n0:411")
        ch.handle("add host=n0:411 xprt=rdma interval=1000000 name=sb "
                  "sets=a,b standby=true")
        prod = d.producers["sb"]
        assert not prod.active
        assert set(prod.updaters) == {"a", "b"}
        assert ch.handle("standby_activate name=sb").startswith("0")
        assert prod.active

    def test_store_config(self, channel, tmp_path):
        _, d, ch = channel
        reply = ch.handle(
            f"store name=store_csv schema=meminfo path={tmp_path}")
        assert reply.startswith("0")
        assert d.stores[0].plugin_name == "store_csv"
        assert d.stores[0].policy.schema == "meminfo"

    def test_enable_query(self, channel, tmp_path):
        _, d, ch = channel
        assert ch.handle("enable_query").startswith("E")  # no sos store yet
        ch.handle(f"store name=sos path={tmp_path} rollups=10")
        reply = ch.handle("enable_query hot_window=15 cache_entries=32")
        assert reply.startswith("0")
        assert d.query_engine is not None
        assert d.query_engine.hot_window == 15.0
        assert d.query_engine.cache_entries == 32


class TestUnixControlServer:
    def test_round_trip_over_socket(self, channel, tmp_path):
        _, d, ch = channel
        path = str(tmp_path / "ctl.sock")
        server = UnixControlServer(ch, path)
        try:
            # Owner-only permissions, as in ldmsd.
            assert (os.stat(path).st_mode & 0o777) == 0o600
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.settimeout(5.0)
                s.connect(path)
                s.sendall(b"load name=meminfo\nstats\n")
                buf = b""
                deadline = time.time() + 5.0
                while buf.count(b"\n") < 2 and time.time() < deadline:
                    buf += s.recv(4096)
            lines = buf.decode().splitlines()
            assert lines[0].startswith("0")
            assert json.loads(lines[1][2:])["name"] == "n0"
        finally:
            server.close()
        assert not os.path.exists(path)
