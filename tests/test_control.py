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

    def test_term_leaves_nothing_behind_and_keeps_its_samples(self, channel):
        from repro.obs.selfmetrics import SELF_METRIC_NAMES, collect

        eng, d, ch = channel
        ch.handle("load name=synthetic")
        ch.handle("load name=ldmsd_self")
        ch.handle("config name=synthetic instance=n0/s component_id=1")
        ch.handle("config name=ldmsd_self instance=n0/self component_id=1")
        ch.handle("start name=n0/s interval=500000")
        eng.run(until=3.2)

        def samples():
            return dict(zip(SELF_METRIC_NAMES, collect(d)))["samples"]

        before = samples()
        assert before >= 6
        assert ch.handle("term name=n0/s") == "0 terminated n0/s"
        assert "n0/s" not in d.sampler_plugins()
        assert "n0/s" not in d._schedules
        assert d.set_names() == ["n0/self"]
        assert samples() == before
        eng.run(until=5.0)  # no firing of the terminated instance
        assert samples() == before
        assert d.stats()["obs"]["counters"]["sampler.samples"] == before
        assert ch.handle("term name=n0/s").startswith("E no sampler instance")

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
        assert set(obs) == {"counters", "histograms"}
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

    @pytest.mark.parametrize("setup, line", [
        ((), "listen xprt=rdma port=abc"),
        ((), "add host=n0 xprt=rdma port=abc interval=1000000 name=p"),
        ((), "advertise host=n0 xprt=rdma port=abc"),
        (("load name=meminfo",),
         "config name=meminfo instance=n0/m component_id=abc"),
        ((), "enable_query hot_window=abc"),
        ((), 'load name="meminfo'),
        ((), "add host=n0:411 xprt=rdma interval=0 name=p"),
        ((), "add host=n0:411 xprt=rdma interval=-5 name=p"),
        ((), "add host=n0:411 xprt=rdma interval=nan name=p"),
        ((), "add host=n0:411 xprt=rdma interval=1000000 offset=inf name=p"),
        (("load name=synthetic",
          "config name=synthetic instance=n0/s component_id=1"),
         "start name=n0/s interval=0"),
        (("load name=synthetic",
          "config name=synthetic instance=n0/s component_id=1"),
         "start name=n0/s interval=inf"),
    ])
    def test_malformed_value_is_refused_with_e(self, channel, tmp_path,
                                               setup, line):
        # Used to raise ValueError out of handle() (no reply over the
        # UNIX socket, no control.errors count), or to accept a zero
        # interval and abort Engine.run later.
        eng, d, ch = channel
        d.listen("rdma", "n0:411")
        ch.handle(f"store name=sos path={tmp_path}")
        for cmd in setup:
            assert ch.handle(cmd).startswith("0")
        errors = d.obs.counter("control.errors")
        before = errors.value
        assert ch.handle(line).startswith("E ")
        assert errors.value == before + 1
        eng.run(until=5.0)
        assert not d.producers and not d._schedules


def test_every_verb_is_documented():
    """Each ``_cmd_<verb>`` handler has a docstring, and the module's
    command reference lists exactly the verbs there are handlers for
    (one line per verb, indented four spaces; deeper lines continue
    the verb above)."""
    import repro.core.control as control

    handlers = {name[len("_cmd_"):]: fn for name, fn in
                vars(ControlChannel).items() if name.startswith("_cmd_")}
    assert [v for v, fn in handlers.items() if not fn.__doc__] == []
    doc = control.__doc__
    block = doc[doc.index("Supported commands"):].split("::\n\n", 1)[1]
    reference = []
    for line in block.splitlines():
        if not line.startswith("    "):
            break
        if not line.startswith("     "):
            reference.append(line.split()[0])
    assert sorted(reference) == sorted(handlers)


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

    def test_malformed_lines_get_e_replies_over_socket(self, channel, tmp_path):
        # A ValueError from a value or a non-UTF-8 line used to kill the
        # client thread: the connection closed with no reply.
        _, d, ch = channel
        path = str(tmp_path / "ctl.sock")
        server = UnixControlServer(ch, path)
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.settimeout(5.0)
                s.connect(path)
                s.sendall(b"listen xprt=rdma port=abc\n\xff\xfe\nstats\n")
                buf = b""
                deadline = time.time() + 5.0
                while buf.count(b"\n") < 3 and time.time() < deadline:
                    chunk = s.recv(4096)
                    if not chunk:
                        break
                    buf += chunk
            lines = buf.decode().splitlines()
            assert [line[:2] for line in lines] == ["E ", "E ", "0 "]
            assert d.obs.counter("control.errors").value == 2
        finally:
            server.close()
