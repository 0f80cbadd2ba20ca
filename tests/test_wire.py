"""Unit tests for the wire protocol: framing and message codecs."""

import pytest
from hypothesis import given, strategies as st

from repro.core import wire
from repro.core.metric_set import SetInfo
from repro.util.errors import ReproError


class TestFraming:
    def test_roundtrip_single(self):
        raw = wire.encode_frame(wire.MsgType.DIR_REQ, 7, b"payload")
        frames = wire.FrameDecoder().feed(raw)
        assert len(frames) == 1
        f = frames[0]
        assert f.msg_type == wire.MsgType.DIR_REQ
        assert f.request_id == 7
        assert f.payload == b"payload"

    def test_multiple_frames_in_one_chunk(self):
        raw = wire.encode_frame(1, 1, b"a") + wire.encode_frame(2, 2, b"bb")
        frames = wire.FrameDecoder().feed(raw)
        assert [f.msg_type for f in frames] == [1, 2]
        assert [f.payload for f in frames] == [b"a", b"bb"]

    def test_byte_by_byte_feed(self):
        raw = wire.encode_frame(3, 99, b"hello world")
        dec = wire.FrameDecoder()
        frames = []
        for i in range(len(raw)):
            frames.extend(dec.feed(raw[i : i + 1]))
        assert len(frames) == 1
        assert frames[0].payload == b"hello world"

    def test_split_across_chunks(self):
        raw = wire.encode_frame(3, 1, b"x" * 1000)
        dec = wire.FrameDecoder()
        assert dec.feed(raw[:500]) == []
        frames = dec.feed(raw[500:])
        assert frames[0].payload == b"x" * 1000

    def test_decode_frame_rejects_trailing_garbage(self):
        raw = wire.encode_frame(1, 1) + wire.encode_frame(1, 2)
        with pytest.raises(ReproError):
            wire.decode_frame(raw)

    def test_corrupt_length_rejected(self):
        with pytest.raises(ReproError):
            wire.FrameDecoder().feed(b"\x01\x00\x00\x00abcdefgh")

    @given(st.binary(max_size=2048), st.integers(0, 127),
           st.integers(0, 2**64 - 1))
    def test_any_payload_roundtrips(self, payload, mtype, rid):
        # msg_type is 7 bits on the wire: the high bit is the
        # trace-context flag (wire.TRACE_FLAG).
        f = wire.decode_frame(wire.encode_frame(mtype, rid, payload))
        assert (f.msg_type, f.request_id, f.payload) == (mtype, rid, payload)

    @given(st.binary(max_size=512), st.integers(0, 127),
           st.integers(0, 2**64 - 1))
    def test_traced_payload_roundtrips(self, payload, mtype, rid):
        ctx = ((0, 42, 7, 2),)
        f = wire.decode_frame(wire.encode_frame(mtype, rid, payload,
                                                trace=ctx))
        assert (f.msg_type, f.request_id, f.payload, f.trace) == (
            mtype, rid, payload, ctx)


class TestDirCodec:
    def test_roundtrip(self):
        infos = [
            SetInfo("n0/meminfo", "meminfo", 7, 1000, 100),
            SetInfo("n0/lustre", "lustre", 42, 4000, 400),
        ]
        out = wire.unpack_dir_reply(wire.pack_dir_reply(infos))
        assert out == infos

    def test_empty_dir(self):
        assert wire.unpack_dir_reply(wire.pack_dir_reply([])) == []


class TestLookupCodec:
    def test_req_roundtrip(self):
        assert wire.unpack_lookup_req(wire.pack_lookup_req("node9/gpcdr")) == "node9/gpcdr"

    def test_reply_ok(self):
        status, rid, meta = wire.unpack_lookup_reply(
            wire.pack_lookup_reply(wire.E_OK, 55, b"metadata-bytes")
        )
        assert status == wire.E_OK
        assert rid == 55
        assert meta == b"metadata-bytes"

    def test_reply_error_carries_no_meta(self):
        status, rid, meta = wire.unpack_lookup_reply(
            wire.pack_lookup_reply(wire.E_NOENT)
        )
        assert status == wire.E_NOENT
        assert meta == b""
