"""Real TCP socket transport.

One reader thread per connection decodes frames and dispatches.  The
RDMA-read verb is emulated with transport-internal request/reply frames
(``RDMA_READ_REQ``/``RDMA_READ_REPLY``), which — exactly like the real
LDMS sock transport — consumes CPU on the target to service each fetch.

This transport is used by the runnable examples and the integration
tests; the simulator uses :mod:`repro.transport.simfabric` instead.
"""

from __future__ import annotations

import itertools
import socket
import struct
import threading
from typing import Callable, Optional

from repro.core import wire
from repro.transport.base import Endpoint, Listener, Transport, register_transport
from repro.util.errors import TransportError, WireError
from repro.util.timeutil import monotonic as _monotonic

__all__ = ["SockTransport"]


class _MultiRead:
    """Pending coalesced read.

    Lives in ``_pending_reads`` alongside plain single-read callbacks;
    calling it (the connection-failure path in ``_fail_pending``) fails
    every region in the batch, while a ``RDMA_READ_MULTI_REPLY`` frame
    dispatches straight to ``on_complete`` with the unpacked parts.
    """

    __slots__ = ("n", "on_complete")

    def __init__(self, n: int, on_complete):
        self.n = n
        self.on_complete = on_complete

    def __call__(self, _data) -> None:
        self.on_complete([None] * self.n)


class _SockEndpoint(Endpoint):
    def __init__(self, sock: socket.socket):
        super().__init__()
        self.sock = sock
        self._wlock = threading.Lock()
        self._decoder = wire.FrameDecoder()
        self._pending_reads: dict[int, Callable[[Optional[bytes]], None]] = {}
        self._read_id = itertools.count(1)
        self._reader = threading.Thread(target=self._read_loop, daemon=True)

    def start_reader(self) -> None:
        """Begin dispatching inbound frames.

        Called by the transport only after the creator's connect callback
        has returned (and so had its chance to wire ``on_message``);
        starting the reader inside ``__init__`` lets a peer's first frame
        race the handler assignment and be silently dropped.

        Also the point where this side's HELLO goes out: the owner has
        had its chance to install ``clock``/``features`` in the connect
        callback, and the greeting must precede any traced frame.
        """
        try:
            now = self.clock() if self.clock is not None else _monotonic()
            self.send(wire.encode_frame(
                wire.MsgType.HELLO, 0, wire.pack_hello(now, self.features)))
        except TransportError:
            pass
        self._reader.start()

    # -- verbs ---------------------------------------------------------------
    def send(self, frame: bytes) -> None:
        if self.closed:
            raise TransportError("send on closed endpoint")
        with self._wlock:
            try:
                self.sock.sendall(frame)
            except OSError as exc:
                raise TransportError(f"send failed: {exc}") from exc
        self.bytes_sent += len(frame)

    def rdma_read(self, region_id: int, on_complete, trace=None) -> None:
        if self.closed:
            on_complete(None)
            return
        rid = next(self._read_id)
        self._pending_reads[rid] = on_complete
        try:
            self.send(
                wire.encode_frame(
                    wire.MsgType.RDMA_READ_REQ, rid,
                    struct.pack("<Q", region_id), trace,
                )
            )
        except TransportError:
            self._pending_reads.pop(rid, None)
            on_complete(None)

    def rdma_read_multi(self, region_ids, on_complete, trace=None) -> None:
        """Native coalesced read: one request frame, one reply frame,
        one reader-thread dispatch for the whole batch."""
        n = len(region_ids)
        if n == 0:
            on_complete([])
            return
        if self.closed:
            on_complete([None] * n)
            return
        rid = next(self._read_id)
        self._pending_reads[rid] = _MultiRead(n, on_complete)
        try:
            self.send(
                wire.encode_frame(
                    wire.MsgType.RDMA_READ_MULTI_REQ,
                    rid,
                    wire.pack_read_multi_req(list(region_ids)),
                    trace,
                )
            )
        except TransportError:
            self._pending_reads.pop(rid, None)
            on_complete([None] * n)

    def close(self) -> None:
        if self.closed:
            return
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._fail_pending()
        self._closed()

    # -- internals -------------------------------------------------------------
    def _fail_pending(self) -> None:
        pending, self._pending_reads = self._pending_reads, {}
        for cb in pending.values():
            cb(None)

    def _read_loop(self) -> None:
        try:
            while True:
                chunk = self.sock.recv(65536)
                if not chunk:
                    break
                for frame in self._decoder.feed(chunk):
                    try:
                        self._dispatch(frame)
                    except WireError:
                        self._count_malformed()  # dropped; the stream is intact
        except WireError:
            self._count_malformed()  # framing lost: nothing to resync on
            self.close()
        except OSError:
            pass
        finally:
            self._fail_pending()
            self._closed()

    def _count_malformed(self) -> None:
        if self._obs is not None:
            self._obs.counter("wire.malformed_frames").inc()

    def _dispatch(self, frame: wire.Frame) -> None:
        if frame.msg_type == wire.MsgType.HELLO:
            # Transport-internal greeting: version negotiation + clock
            # anchor.  Consumed here — the application handler never
            # sees it (CLI clients overwrite on_message wholesale).
            peer_now, feats = wire.unpack_hello(frame.payload)
            self._negotiate(feats)
            self._anchor_peer_clock(peer_now)
            return
        if frame.msg_type == wire.MsgType.RDMA_READ_REQ:
            if len(frame.payload) != 8:
                raise WireError("RDMA_READ_REQ: payload is not one u64 region id")
            (region_id,) = struct.unpack("<Q", frame.payload)
            if frame.trace is not None and self.on_traced_read is not None:
                for _idx, tid, sid, hop in frame.trace:
                    self.on_traced_read(tid, sid, hop, region_id)
            reader = self._regions.get(region_id)
            data = bytes(reader()) if reader is not None else b""
            status = wire.E_OK if reader is not None else wire.E_NOENT
            try:
                self.send(
                    wire.encode_frame(
                        wire.MsgType.RDMA_READ_REPLY,
                        frame.request_id,
                        struct.pack("<i", status) + data,
                    )
                )
            except TransportError:
                pass
            return
        if frame.msg_type == wire.MsgType.RDMA_READ_REPLY:
            cb = self._pending_reads.pop(frame.request_id, None)
            if cb is not None:
                if len(frame.payload) < 4:
                    cb(None)  # the read this answers fails, not hangs
                    raise WireError("RDMA_READ_REPLY: payload has no status")
                (status,) = struct.unpack_from("<i", frame.payload, 0)
                data = frame.payload[4:]
                self._account_read(len(data))
                cb(data if status == wire.E_OK else None)
            return
        if frame.msg_type == wire.MsgType.RDMA_READ_MULTI_REQ:
            region_ids = wire.unpack_read_multi_req(frame.payload)
            if frame.trace is not None and self.on_traced_read is not None:
                for idx, tid, sid, hop in frame.trace:
                    if idx < len(region_ids):
                        self.on_traced_read(tid, sid, hop, region_ids[idx])
            parts = self.read_regions(region_ids)
            try:
                self.send(
                    wire.encode_frame(
                        wire.MsgType.RDMA_READ_MULTI_REPLY,
                        frame.request_id,
                        wire.pack_read_multi_reply(parts),
                    )
                )
            except TransportError:
                pass
            return
        if frame.msg_type == wire.MsgType.RDMA_READ_MULTI_REPLY:
            mr = self._pending_reads.pop(frame.request_id, None)
            if mr is not None:
                try:
                    parts = wire.unpack_read_multi_reply(frame.payload)
                    if len(parts) != mr.n:
                        raise WireError(
                            f"RDMA_READ_MULTI_REPLY: {len(parts)} parts "
                            f"answer a {mr.n}-region read")
                except WireError:
                    mr(None)  # the read this answers fails, not hangs
                    raise
                self._account_read(sum(len(p) for p in parts if p is not None))
                mr.on_complete(parts)
            return
        # Application frame: re-encode not needed; hand up the raw frame
        # (trace context, if any, survives the round trip).
        self._deliver(
            wire.encode_frame(frame.msg_type, frame.request_id, frame.payload,
                              frame.trace)
        )


class _SockListener(Listener):
    def __init__(self, addr: tuple[str, int], on_connect):
        super().__init__(on_connect)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(addr)
        self.sock.listen(128)
        self.addr = self.sock.getsockname()
        self._stop = False
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    @property
    def port(self) -> int:
        return self.addr[1]

    def _accept_loop(self) -> None:
        while not self._stop:
            try:
                conn, _peer = self.sock.accept()
            except OSError:
                return
            if self._stop:
                conn.close()
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            endpoint = _SockEndpoint(conn)
            self.on_connect(endpoint)
            endpoint.start_reader()

    def close(self) -> None:
        self._stop = True
        # A thread blocked in accept() is not reliably woken by close()
        # on every network stack (containers/gVisor); nudge it with a
        # throwaway connection so the loop observes _stop and exits.
        try:
            with socket.create_connection(self.addr, timeout=0.5):
                pass
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        self._thread.join(timeout=2.0)


@register_transport("sock")
class SockTransport(Transport):
    """TCP transport.  Addresses are ``(host, port)`` tuples; listening
    on port 0 picks an ephemeral port (see ``Listener.port``)."""

    def listen(self, addr, on_connect) -> _SockListener:
        return _SockListener(tuple(addr), on_connect)

    def connect(self, addr, on_connected) -> None:
        def _do() -> None:
            try:
                s = socket.create_connection(tuple(addr), timeout=10.0)
                s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                on_connected(None)
                return
            endpoint = _SockEndpoint(s)
            on_connected(endpoint)
            endpoint.start_reader()

        threading.Thread(target=_do, daemon=True).start()
