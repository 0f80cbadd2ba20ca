"""Ingest-side wire fuzz (ROADMAP 7b, decoder half).

Same rule as ``test_query_props.py`` holds QUERY to: a decoder of
peer-supplied bytes validates once, up front, and answers malformed
input with :class:`ReproError` — never ``struct.error`` /
``UnicodeDecodeError``, never a silently short result — and a message
handler drops and counts such a frame instead of aborting
``Engine.run`` or killing a reader thread.
"""

import socket
import struct
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.plugins  # noqa: F401
from repro.core import Ldmsd, SimEnv, metric_set, wire
from repro.core.metric import MetricDesc
from repro.core.metric_set import SetInfo
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport
from repro.util.errors import ReproError

SETTINGS = dict(derandomize=True, deadline=None)

INFOS = [SetInfo(name="n0/meminfo", schema="meminfo", card=3, meta_size=200,
                 data_size=64),
         SetInfo(name="n0/µ", schema="s", card=1, meta_size=8, data_size=8)]

#: decoder -> a few valid payloads, each of which it decodes whole.
VALID = {
    wire.unpack_dir_reply: [wire.pack_dir_reply([]),
                            wire.pack_dir_reply(INFOS)],
    wire.unpack_lookup_req: [wire.pack_lookup_req(""),
                             wire.pack_lookup_req("n0/µ")],
    wire.unpack_lookup_reply: [wire.pack_lookup_reply(wire.E_NOENT),
                               wire.pack_lookup_reply(0, 9, b"m" * 40)],
    wire.unpack_advertise: [wire.pack_advertise("node-7")],
    wire.unpack_read_multi_req: [wire.pack_read_multi_req([]),
                                 wire.pack_read_multi_req([1, 2**64 - 1, 3])],
    wire.unpack_read_multi_reply: [
        wire.pack_read_multi_reply([]),
        wire.pack_read_multi_reply([b"a" * 24, None, b"", b"b" * 7])],
    wire.unpack_hello: [wire.pack_hello(1.5, frozenset()),
                        wire.pack_hello(2.5, {"trace-ctx", "query"})],
}
DECODERS = sorted(VALID, key=lambda fn: fn.__name__)


class TestDecodersValidateUpFront:
    @pytest.mark.parametrize("decode", DECODERS, ids=lambda fn: fn.__name__)
    def test_every_strict_prefix_raises(self, decode):
        for payload in VALID[decode]:
            decode(payload)
            for cut in range(len(payload)):
                with pytest.raises(ReproError):
                    decode(payload[:cut])

    @pytest.mark.parametrize("decode", DECODERS, ids=lambda fn: fn.__name__)
    @settings(max_examples=200, **SETTINGS)
    @given(payload=st.binary(max_size=80))
    def test_arbitrary_bytes_decode_or_raise_reproerror(self, decode,
                                                        payload):
        try:
            decode(payload)
        except ReproError:
            pass

    def test_the_reproducers(self):
        # Each of these leaked struct.error / UnicodeDecodeError or
        # returned short data as if whole.
        for decode, payload in [
            (wire.unpack_lookup_reply, b"\0\0"),
            (wire.unpack_dir_reply, struct.pack("<I", 5)),
            (wire.unpack_read_multi_req, struct.pack("<I", 2**31)),
            (wire.unpack_lookup_req, b"\x05"),
            (wire.unpack_advertise, struct.pack("<H", 2) + b"\xff\xfe"),
            (wire.unpack_lookup_req, struct.pack("<H", 2) + b"\xff\xfe"),
            (wire.unpack_dir_reply,
             wire.pack_dir_reply(INFOS[:1]).replace(b"meminfo", b"\xff" * 7)),
            (wire.unpack_lookup_reply,          # mlen past the end
             struct.pack("<iQI", 0, 1, 100) + b"short"),
            (wire.unpack_read_multi_reply,      # second part's dlen too
             struct.pack("<I", 2) + struct.pack("<iI", 0, 2) + b"ok"
             + struct.pack("<iI", 0, 9) + b"short"),
            (wire.unpack_hello, struct.pack("<dH", 0.0, 2) + b"\xff\xfe"),
        ]:
            with pytest.raises(ReproError):
                decode(payload)

    @settings(max_examples=40, **SETTINGS)
    @given(n=st.integers(1, 2**32 - 1), tail=st.binary(max_size=32))
    def test_hostile_counts_raise_without_allocating(self, n, tail):
        # A count the payload cannot hold: every entry needs >= 8 bytes.
        hostile = struct.pack("<I", max(n, 8)) + tail
        tracemalloc.start()
        try:
            for decode in (wire.unpack_dir_reply, wire.unpack_read_multi_req,
                           wire.unpack_read_multi_reply):
                with pytest.raises(ReproError):
                    decode(hostile)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    @settings(max_examples=300, **SETTINGS)
    @given(raw=st.one_of(
        st.binary(max_size=64),
        st.builds(lambda skew, mtype, body: struct.pack(
            "<IBQ", max(9 + len(body) + skew, 0), mtype, 1) + body,
            st.integers(-3, 3), st.integers(0, 255), st.binary(max_size=40))))
    def test_decode_frame_on_arbitrary_datagrams(self, raw):
        # Including trace-flagged frames whose blob count overruns the
        # frame: ReproError, not struct.error.
        try:
            frame = wire.decode_frame(raw)
        except ReproError:
            return
        assert 4 + 9 + len(frame.payload) <= len(raw)

    def test_trace_blob_may_not_run_into_the_next_frame(self):
        # count=3 entries claimed, none present: FrameDecoder used to
        # read the entries out of the *following* frame's bytes.
        bad = struct.pack("<IBQ", 9 + 1, wire.MsgType.LOOKUP_REQ
                          | wire.TRACE_FLAG, 1) + b"\x03"
        with pytest.raises(ReproError):
            wire.decode_frame(bad)
        with pytest.raises(ReproError):
            wire.FrameDecoder().feed(bad + wire.encode_frame(1, 2, b"x" * 64))


MALFORMED = "wire.malformed_frames"


def malformed(daemon) -> int:
    return daemon.stats()["obs"]["counters"][MALFORMED]


class TestHandlersDropAndCount:
    def _world(self):
        eng = Engine()
        env = SimEnv(eng)
        fabric = SimFabric(eng)
        node = Ldmsd("n0", env=env, mem="8kB", transports={
            "sock": SimTransport(fabric, "sock", node_id="n0")})
        node.load_sampler("synthetic", instance="n0/syn", component_id=1,
                          num_metrics=4)
        node.start_sampler("n0/syn", interval=1.0)
        node.listen("sock", "n0:411")
        agg = Ldmsd("agg", env=env, transports={
            "sock": SimTransport(fabric, "sock", node_id="agg")})
        store = agg.add_store("memory")
        return eng, fabric, node, agg, store

    def test_counter_is_listed_zeroed_on_an_idle_daemon(self):
        _eng, _fabric, node, agg, _store = self._world()
        assert malformed(node) == 0 and malformed(agg) == 0

    def test_serve_drops_counts_and_keeps_serving(self):
        eng, fabric, node, _agg, _store = self._world()
        ends, replies = [], []
        SimTransport(fabric, "sock", node_id="c").connect("n0:411",
                                                          ends.append)
        eng.run(until=1.0)
        (ep,) = ends
        ep.on_message = lambda raw: replies.append(wire.decode_frame(raw))
        T = wire.MsgType
        bad = [
            wire.encode_frame(T.LOOKUP_REQ, 1, b"\x05"),
            wire.encode_frame(T.LOOKUP_REQ, 2, struct.pack("<H", 2) + b"\xff\xfe"),
            wire.encode_frame(T.ADVERTISE, 3, b""),
            struct.pack("<IBQ", 10, T.LOOKUP_REQ | wire.TRACE_FLAG, 5) + b"\x09",
            b"\x00",
        ]
        for raw in bad:
            ep.send(raw)
        ep.send(wire.encode_frame(T.LOOKUP_REQ, 6,
                                  wire.pack_lookup_req("n0/syn")))
        eng.run(until=2.0)       # used to abort here with struct.error
        assert malformed(node) == len(bad)
        assert [f.request_id for f in replies] == [6]
        status, _region, meta = wire.unpack_lookup_reply(replies[0].payload)
        assert status == wire.E_OK and meta
        node.shutdown()

    def test_producer_drops_counts_and_still_collects(self):
        eng, _fabric, node, agg, store = self._world()
        prod = agg.add_producer("n0", "sock", "n0:411", interval=1.0)
        eng.run(until=0.5)
        T = wire.MsgType
        # What a hostile or broken peer could answer with.
        bad = [
            wire.encode_frame(T.DIR_REPLY, 0, struct.pack("<I", 5)),
            wire.encode_frame(T.LOOKUP_REPLY, 10**6, b"\0\0"),
            wire.encode_frame(T.LOOKUP_REPLY, 10**6,
                              struct.pack("<iQI", 0, 1, 100) + b"short"),
            b"\xff\xff\xff",
        ]
        for raw in bad:
            prod._on_message_locked(raw)
        assert malformed(agg) == len(bad)
        eng.run(until=6.0)
        assert len(store.rows) >= 4
        agg.shutdown()
        node.shutdown()

    @staticmethod
    def _garbled_metas(meta: bytes) -> dict[str, bytes]:
        """One hostile metadata chunk per ``from_meta`` / first-sight
        layout check, each a small patch of a valid chunk."""
        hdr, dsz = metric_set._META_HDR_SIZE, MetricDesc.WIRE_SIZE
        data_size, card = struct.unpack_from("<II", meta, 8)
        tag_at = hdr + 64 + 8

        def patch(at: int, raw: bytes) -> bytes:
            return meta[:at] + raw + meta[at + len(raw):]

        return {
            "truncated chunk": b"x" * 10,
            "bad magic": patch(0, b"XXXX"),
            "size mismatch": meta + b"\0",
            "truncated descriptors": patch(12, struct.pack("<I", card + 1)),
            "name not UTF-8": patch(hdr, b"\xff\xfe"),
            "unknown type tag": patch(tag_at, b"\xee"),
            "empty name": patch(hdr, bytes(64)),
            "duplicate names": patch(hdr + dsz, meta[hdr:hdr + 64]),
            "descriptor past data_size": patch(
                tag_at + 1, struct.pack("<I", data_size - 1)),
        }

    def test_malformed_lookup_reply_leaves_the_lookup_to_time_out(self):
        # The reply — header and metadata chunk — is validated before
        # its pending entry is consumed: a garbled answer must not
        # escape the handler, nor strand the set in LOOKUP_PENDING with
        # nothing left to expire.
        _eng, _fabric, node, agg, _store = self._world()
        meta = node.get_set("n0/syn").meta_bytes()
        agg.shutdown()
        node.shutdown()
        payloads = {"short header": b"\0\0"}
        for why, bad in self._garbled_metas(meta).items():
            payloads[why] = wire.pack_lookup_reply(wire.E_OK, 1, bad)
        for why, payload in payloads.items():
            eng, _fabric, node, agg, store = self._world()
            prod = agg.add_producer("n0", "sock", "n0:411", interval=1.0,
                                    sets=("n0/syn",))
            eng.run(until=0.5)
            prod._send_lookup("n0/syn")
            (rid,) = prod._pending_lookups
            layouts = set(metric_set._LAYOUT_CACHE)
            prod._on_message_locked(wire.encode_frame(
                wire.MsgType.LOOKUP_REPLY, rid, payload))
            assert rid in prod._pending_lookups, why
            assert malformed(agg) == 1, why
            # A hostile block must not enter the shared flyweight cache.
            assert set(metric_set._LAYOUT_CACHE) == layouts, why
            eng.run(until=6.0)
            assert len(store.rows) >= 3, why
            agg.shutdown()
            node.shutdown()


def _recv_frames(sock, n, timeout=5.0):
    dec = wire.FrameDecoder()
    frames = []
    sock.settimeout(timeout)
    while len(frames) < n:
        chunk = sock.recv(65536)
        if not chunk:
            break
        frames.extend(dec.feed(chunk))
    return frames


def _wait_for(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestSockReaderSurvives:
    def test_bad_payloads_are_dropped_and_the_connection_lives(self):
        d = Ldmsd("node0")
        try:
            listener = d.listen("sock", ("127.0.0.1", 0))
            T = wire.MsgType
            with socket.create_connection(("127.0.0.1", listener.port),
                                          timeout=5.0) as s:
                bad = [
                    wire.encode_frame(T.HELLO, 0, b"\x01"),
                    wire.encode_frame(T.RDMA_READ_REQ, 1, b"\x01\x02"),
                    wire.encode_frame(T.RDMA_READ_MULTI_REQ, 2,
                                      struct.pack("<I", 2**31)),
                    wire.encode_frame(T.LOOKUP_REQ, 4, b"\x05"),
                ]
                # (An unsolicited read reply is ignored, never decoded.)
                s.sendall(b"".join(bad)
                          + wire.encode_frame(T.RDMA_READ_REPLY, 3, b"")
                          + wire.encode_frame(T.DIR_REQ, 5))
                frames = [f for f in _recv_frames(s, 2)
                          if f.msg_type != T.HELLO]
                assert [(f.msg_type, f.request_id) for f in frames] == [
                    (T.DIR_REPLY, 5)]
                assert _wait_for(lambda: malformed(d) == len(bad))
                # Framing itself corrupt: nothing to resynchronise on,
                # so the endpoint counts it and closes cleanly.
                s.sendall(b"\x01\x00\x00\x00abcdefgh")
                s.settimeout(5.0)
                assert s.recv(16) == b""
            assert _wait_for(lambda: malformed(d) == len(bad) + 1)
        finally:
            d.shutdown()

    def test_malformed_multi_reply_fails_the_read_it_answers(self):
        # A reader thread that died here left the aggregator's update
        # in flight forever; a dropped reply must complete it as failed.
        srv = socket.socket()
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        d = Ldmsd("agg0")
        try:
            x = d.transports["sock"]
            ends, done = [], []
            x.connect(("127.0.0.1", srv.getsockname()[1]), ends.append)
            peer, _ = srv.accept()
            assert _wait_for(lambda: ends)
            (ep,) = ends
            ep.obs = d.obs
            for k, payload in enumerate([
                    struct.pack("<I", 2) + struct.pack("<iI", 0, 9) + b"short",
                    wire.pack_read_multi_reply([b"only-one"])]):
                ep.rdma_read_multi([7, 8], done.append)
                req = [f for f in _recv_frames(peer, 2 - k)
                       if f.msg_type == wire.MsgType.RDMA_READ_MULTI_REQ][0]
                peer.sendall(wire.encode_frame(
                    wire.MsgType.RDMA_READ_MULTI_REPLY, req.request_id,
                    payload))
                assert _wait_for(lambda: len(done) == k + 1)
            assert done == [[None, None], [None, None]]
            assert malformed(d) == 2
            assert not ep.closed
            peer.close()
        finally:
            srv.close()
            d.shutdown()
