"""Tests for the transport layer: real TCP, simulated fabric."""

import threading
import time

import pytest

from repro.core import SimEnv, wire
from repro.obs.registry import Telemetry
from repro.query.clients import Poller
from repro.sim.engine import Engine
from repro.sim.resources import CpuCore
from repro.transport import (
    PROFILES,
    SimFabric,
    SimTransport,
    SockTransport,
    get_transport_profile,
)
from repro.util.errors import ConfigError, TransportError


def frame(payload=b"x"):
    return wire.encode_frame(wire.MsgType.DIR_REQ, 1, payload)


def assert_clock_anchored(eps, now, tolerance):
    # Connection setup anchors each side's clock against the peer's, so
    # a peer timestamp of ``now`` reads as zero seconds old, and one a
    # quarter second earlier as a quarter second old.
    for ep in eps:
        assert ep.peer_age(now) <= tolerance
        assert abs(ep.peer_age(now - 0.25) - 0.25) <= tolerance


class TestProfiles:
    def test_known_transports(self):
        assert set(PROFILES) >= {"sock", "rdma", "ugni"}

    def test_rdma_zero_target_cpu(self):
        assert get_transport_profile("rdma").target_cpu_per_read == 0.0
        assert get_transport_profile("ugni").target_cpu_per_read == 0.0
        assert get_transport_profile("sock").target_cpu_per_read > 0.0

    def test_fanin_ordering(self):
        # §IV-A: ugni fan-in exceeds sock/rdma.
        assert (get_transport_profile("ugni").max_connections
                > get_transport_profile("sock").max_connections)

    def test_unknown_transport(self):
        with pytest.raises(ConfigError):
            get_transport_profile("carrier-pigeon")


class TestSockTransport:
    """Real TCP on localhost."""

    def _pair(self):
        x = SockTransport()
        accepted = []
        server_ready = threading.Event()

        def on_conn(ep):
            accepted.append(ep)
            server_ready.set()

        lst = x.listen(("127.0.0.1", 0), on_conn)
        client = {}
        done = threading.Event()

        def connected(ep):
            client["ep"] = ep
            done.set()

        x.connect(("127.0.0.1", lst.port), connected)
        assert done.wait(5.0)
        assert server_ready.wait(5.0)
        return lst, accepted[0], client["ep"]

    def test_hello_opens_every_gate(self):
        # The HELLO carries the clock anchor (ownerless endpoints stamp
        # host monotonic time on both sides).
        lst, server, client = self._pair()
        deadline = time.monotonic() + 5.0
        while server.peer_age(0.0) is None or client.peer_age(0.0) is None:
            assert time.monotonic() < deadline, "no HELLO within 5 s"
            time.sleep(0.01)
        assert_clock_anchored((server, client), time.monotonic(), 1.0)
        client.close()
        lst.close()

    def test_peer_close_releases_the_socket(self):
        # The peer closes first: the server's reader hits EOF and must
        # release its own socket, since a later close() is a no-op on an
        # endpoint that already reads as closed.
        lst, server, client = self._pair()
        gone = threading.Event()
        server.on_close = gone.set
        client.close()
        assert gone.wait(5.0)
        assert server.sock.fileno() == -1
        lst.close()

    def test_send_receive(self):
        lst, server, client = self._pair()
        got = threading.Event()
        frames = []

        def on_msg(raw):
            frames.append(wire.decode_frame(raw))
            got.set()

        server.on_message = on_msg
        client.send(frame(b"over tcp"))
        assert got.wait(5.0)
        assert frames[0].payload == b"over tcp"
        client.close()
        lst.close()

    def test_large_frame(self):
        lst, server, client = self._pair()
        payload = bytes(range(256)) * 4096  # 1 MB
        got = threading.Event()
        frames = []

        def on_msg(raw):
            frames.append(wire.decode_frame(raw))
            got.set()

        server.on_message = on_msg
        client.send(frame(payload))
        assert got.wait(10.0)
        assert frames[0].payload == payload
        client.close()
        lst.close()

    def test_rdma_read_emulation(self):
        lst, server, client = self._pair()
        server.register_region(5, lambda: b"server-memory")
        done = threading.Event()
        out = []

        def complete(data):
            out.append(data)
            done.set()

        client.rdma_read(5, complete)
        assert done.wait(5.0)
        assert out == [b"server-memory"]
        client.close()
        lst.close()

    def test_rdma_read_unknown_region_returns_none(self):
        lst, server, client = self._pair()
        done = threading.Event()
        out = []
        client.rdma_read(404, lambda d: (out.append(d), done.set()))
        assert done.wait(5.0)
        assert out == [None]
        client.close()
        lst.close()

    def test_failed_send_fails_the_read(self):
        # A read whose request cannot be sent completes at once, as a
        # miss, and leaves no callback waiting for a reply that will
        # never come.
        lst, server, client = self._pair()

        def send(_frame):
            raise TransportError("send failed: broken pipe")

        client.send = send
        out = []
        client.rdma_read(5, out.append)
        assert out == [None]
        client.rdma_read_multi([5, 6, 7], out.append)
        assert out == [None, [None, None, None]]
        assert client._pending_reads == {}
        client.close()
        lst.close()

    def test_peer_close_detected(self):
        lst, server, client = self._pair()
        closed = threading.Event()
        client.on_close = closed.set
        server.close()
        assert closed.wait(5.0)
        lst.close()

    def test_connect_refused(self):
        x = SockTransport()
        done = threading.Event()
        result = {}

        def connected(ep):
            result["ep"] = ep
            done.set()

        x.connect(("127.0.0.1", 1), connected)  # port 1: refused
        assert done.wait(15.0)
        assert result["ep"] is None


class TestSimFabric:
    def _world(self):
        eng = Engine()
        fabric = SimFabric(eng)
        return eng, fabric

    def _pair(self, eng, fabric):
        """An established connection: (server endpoint, client endpoint)."""
        eps = []
        SimTransport(fabric, "rdma", node_id="s").listen("s:1", eps.append)
        cl = {}
        SimTransport(fabric, "rdma", node_id="c").connect(
            "s:1", lambda ep: cl.update(ep=ep))
        eng.run()
        return eps[0], cl["ep"]

    def test_establish_opens_every_gate(self):
        # Both sides share the DES clock: the anchor is exact.
        eng, fabric = self._world()
        eps = self._pair(eng, fabric)
        assert_clock_anchored(eps, eng.now, 1e-9)

    def test_endpoint_no_daemon_adopted_reads_the_engine_clock(self):
        # A DES query client's endpoint has no daemon to install its
        # clock; its peer ages are still engine-clock ages, not host
        # monotonic time read against the (0.0, 0.0) anchor.
        eng, fabric = self._world()
        server = []
        SimTransport(fabric, "sock", node_id="agg").listen("agg:412",
                                                           server.append)
        client = Poller("p0", SimEnv(eng),
                        SimTransport(fabric, "sock", node_id="c0"),
                        "agg:412", "mem", Telemetry(), interval=1.0,
                        offset=100.0)  # connected, not yet querying
        client.start()
        eng.run(until=7.5)
        assert client.ep is not None and server
        assert client.ep.clock is not None
        assert_clock_anchored([client.ep] + server, 7.5, 1e-9)
        client.stop()

    def test_connect_unknown_address(self):
        eng, fabric = self._world()
        result = {}
        SimTransport(fabric, "rdma", node_id="c").connect(
            "missing:1", lambda ep: result.update(ep=ep))
        eng.run()
        assert result["ep"] is None

    def test_duplicate_listen_rejected(self):
        _eng, fabric = self._world()
        SimTransport(fabric, "rdma", node_id="s").listen("s:1", lambda ep: None)
        with pytest.raises(TransportError):
            SimTransport(fabric, "rdma", node_id="t").listen(
                "s:1", lambda ep: None)

    def test_listener_close_frees_address(self):
        _eng, fabric = self._world()
        x = SimTransport(fabric, "rdma", node_id="s")
        x.listen("s:1", lambda ep: None).close()
        x.listen("s:1", lambda ep: None)  # no error

    def test_rdma_read_missing_region(self):
        eng, fabric = self._world()
        _server, client = self._pair(eng, fabric)
        out = []
        client.rdma_read(99, out.append)
        client.rdma_read_multi([98, 99], out.append)
        eng.run()
        assert out == [None, [None, None]]

    def test_close_notifies_peer(self):
        eng, fabric = self._world()
        server, client = self._pair(eng, fabric)
        closed = []
        server.on_close = lambda: closed.append(True)
        client.close()
        eng.run()
        assert closed == [True]
        with pytest.raises(TransportError):
            client.send(frame())

    def test_duplicate_region_rejected(self):
        eng, fabric = self._world()
        server, _client = self._pair(eng, fabric)
        server.register_region(1, lambda: b"")
        with pytest.raises(TransportError):
            server.register_region(1, lambda: b"")

    def test_message_latency(self):
        eng, fabric = self._world()
        server = SimTransport(fabric, "rdma", node_id="s")
        client = SimTransport(fabric, "rdma", node_id="c")
        eps = []
        server.listen("s:1", eps.append)
        got = []
        cl = {}
        client.connect("s:1", lambda ep: cl.update(ep=ep))
        eng.run()
        eps[0].on_message = lambda raw: got.append(eng.now)
        t0 = eng.now
        cl["ep"].send(frame())
        eng.run()
        assert got and got[0] > t0  # nonzero latency

    def test_rdma_read_charges_no_target_cpu(self):
        eng, fabric = self._world()
        core = CpuCore()
        server = SimTransport(fabric, "rdma", node_id="s", core=core)
        client = SimTransport(fabric, "rdma", node_id="c")
        eps = []
        server.listen("s:1", eps.append)
        cl = {}
        client.connect("s:1", lambda ep: cl.update(ep=ep))
        eng.run()
        eps[0].register_region(1, lambda: bytes(1000))
        out = []
        cl["ep"].rdma_read(1, out.append)
        eng.run()
        assert out == [bytes(1000)]
        assert core.busy_total == 0.0

    def test_sock_read_charges_target_cpu(self):
        eng, fabric = self._world()
        core = CpuCore()
        server = SimTransport(fabric, "sock", node_id="s", core=core)
        client = SimTransport(fabric, "sock", node_id="c")
        eps = []
        server.listen("s:1", eps.append)
        cl = {}
        client.connect("s:1", lambda ep: cl.update(ep=ep))
        eng.run()
        eps[0].register_region(1, lambda: bytes(1000))
        out = []
        cl["ep"].rdma_read(1, out.append)
        eng.run()
        assert out == [bytes(1000)]
        assert core.busy_total > 0.0

    def test_connection_capacity_refusal(self):
        eng, fabric = self._world()
        from dataclasses import replace

        profile = replace(get_transport_profile("sock"), max_connections=2)
        server = SimTransport(fabric, profile, node_id="s")
        server.listen("s:1", lambda ep: None)
        results = []
        for i in range(4):
            client = SimTransport(fabric, "sock", node_id=f"c{i}")
            client.connect("s:1", results.append)
        eng.run()
        ok = [r for r in results if r is not None]
        assert len(ok) == 2
        assert server.refused_connections == 2

    def test_traffic_accounting(self):
        eng, fabric = self._world()
        seen = []
        fabric.traffic_cb = lambda s, d, n, t: seen.append((s, d, n))
        server = SimTransport(fabric, "rdma", node_id="s")
        client = SimTransport(fabric, "rdma", node_id="c")
        server.listen("s:1", lambda ep: None)
        cl = {}
        client.connect("s:1", lambda ep: cl.update(ep=ep))
        eng.run()
        cl["ep"].send(frame(b"abc"))
        eng.run()
        assert any(s == "c" and d == "s" for s, d, n in seen)
        assert fabric.total_bytes > 0

    def test_latency_fn_applied(self):
        eng = Engine()
        fabric = SimFabric(eng, latency_fn=lambda s, d, n: 1.0)
        server = SimTransport(fabric, "rdma", node_id="s")
        client = SimTransport(fabric, "rdma", node_id="c")
        eps = []
        server.listen("s:1", eps.append)
        cl = {}
        client.connect("s:1", lambda ep: cl.update(ep=ep))
        eng.run()
        got = []
        eps[0].on_message = lambda raw: got.append(eng.now)
        t0 = eng.now
        cl["ep"].send(frame())
        eng.run()
        assert got[0] >= t0 + 1.0
