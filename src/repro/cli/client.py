"""Blocking request/reply client shared by the CLI tools.

The transport API is callback-driven (``on_message``, completion
functions); the CLIs are sequential.  :class:`SyncClient` bridges the
two with a per-call :class:`threading.Event`, giving ``ldms-ls-repro``
and ``repro-top`` a plain ``request``/``read_region`` interface (and
``dir``/``fetch`` on top of it) over a live
:class:`~repro.transport.sock.SockTransport` endpoint.

Because the sock transport consumes the daemon's HELLO inside its
reader loop (the frame never reaches ``on_message``), the endpoint's
``peer_age`` clock anchor is valid here too once the first reply has
arrived — the CLIs use it to turn a remote set's transaction timestamp
into a staleness age without assuming the daemon and the CLI share a
wall clock.
"""

from __future__ import annotations

import threading

from repro.core import wire
from repro.core.memory import Arena
from repro.core.metric_set import MetricSet, SetInfo
from repro.transport.sock import SockTransport

__all__ = ["SyncClient"]


class SyncClient:
    """Blocking request/reply wrapper over the callback endpoint API."""

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self.timeout = timeout
        done = threading.Event()
        holder = {}

        def connected(ep):
            holder["ep"] = ep
            done.set()

        SockTransport().connect((host, port), connected)
        if not done.wait(timeout) or holder.get("ep") is None:
            raise ConnectionError(f"cannot connect to {host}:{port}")
        self.ep = holder["ep"]
        self._reply = None
        self._have = threading.Event()
        self.ep.on_message = self._on_message

    def _on_message(self, raw: bytes) -> None:
        self._reply = wire.decode_frame(raw)
        self._have.set()

    def request(self, frame: bytes) -> wire.Frame:
        self._have.clear()
        self.ep.send(frame)
        if not self._have.wait(self.timeout):
            raise TimeoutError("no reply from daemon")
        return self._reply

    def read_region(self, region_id: int) -> bytes | None:
        holder = {}
        done = threading.Event()

        def complete(data):
            holder["data"] = data
            done.set()

        self.ep.rdma_read(region_id, complete)
        if not done.wait(self.timeout):
            raise TimeoutError("region read timed out")
        return holder.get("data")

    def dir(self) -> list[SetInfo]:
        """The peer's published sets (one DIR round-trip)."""
        reply = self.request(wire.encode_frame(wire.MsgType.DIR_REQ, 1))
        return wire.unpack_dir_reply(reply.payload)

    def fetch(self, info: SetInfo) -> MetricSet | str:
        """A local mirror of ``info``'s set, looked up and read, or
        which of the two failed."""
        reply = self.request(wire.encode_frame(
            wire.MsgType.LOOKUP_REQ, 2, wire.pack_lookup_req(info.name)))
        status, region_id, meta = wire.unpack_lookup_reply(reply.payload)
        if status != wire.E_OK:
            return "lookup failed"
        mirror = MetricSet.from_meta(meta, Arena(info.total_size * 2 + 4096))
        data = self.read_region(region_id)
        if data is None:
            return "read failed"
        mirror.apply_data(data)
        return mirror

    def query(self, schema: str, t0: float, t1: float, level: int = 0,
              comp_id: int = 0, max_records: int = 0):
        """Run one QUERY round-trip; returns
        ``(status, flags, names, rows)``."""
        reply = self.request(wire.encode_frame(
            wire.MsgType.QUERY_REQ, 1,
            wire.pack_query_req(schema, t0, t1, level, comp_id,
                                max_records)))
        return wire.unpack_query_reply(reply.payload)

    def peer_age(self, ts: float) -> float | None:
        """Age of a remote timestamp on the peer's clock (see
        :meth:`repro.transport.base.Endpoint.peer_age`)."""
        return self.ep.peer_age(ts)

    def close(self) -> None:
        self.ep.close()
