"""LDMS wire protocol: framed request/reply messages.

The protocol has three operations an aggregator performs against a peer
(paper Fig. 2):

* **DIR** — list the metric sets the peer publishes.
* **LOOKUP** — fetch a set's metadata chunk once; the reply also carries
  a *region id* under which the peer has registered the set's data
  chunk for direct fetch.
* **UPDATE** — fetch the current data chunk: a one-sided read of the
  registered region (``Endpoint.rdma_read`` / ``rdma_read_multi``).
  RDMA transports serve it with no peer CPU; the socket transport
  emulates it with the transport-internal ``RDMA_READ*`` frames.

Frames are length-prefixed little-endian:

    u32 frame_len | u8 msg_type | u64 request_id | payload

``frame_len`` counts everything after the length field itself.

**Trace context (version-negotiated).**  The high bit of ``msg_type``
(:data:`TRACE_FLAG`) marks a frame that carries a compact trace-context
blob between the header and the payload:

    u8 count | count × (u16 index | u64 trace_id | u32 parent_span | u8 hop)

``index`` names the region position a context applies to inside a
coalesced multi-read (0 for single-region frames); ``trace_id`` /
``parent_span`` / ``hop`` are the exemplar trace id, the sender's span
id, and the sender's hop number (:mod:`repro.obs.spans`).  Because the
flag bit was reserved (``msg_type`` ≤ 14), old decoders would reject
flagged frames — so senders only set it after the peer advertised the
``trace-ctx`` feature in its :data:`MsgType.HELLO` greeting, keeping
mixed-version fleets interoperable.  The query messages (13/14) are
gated the same way behind the ``query`` feature.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.metric_set import SetInfo
from repro.util.errors import WireError

__all__ = [
    "MsgType",
    "Frame",
    "encode_frame",
    "FrameDecoder",
    "MAX_FRAME_LEN",
    "unpack_dir_reply",
    "pack_dir_reply",
    "pack_lookup_req",
    "unpack_lookup_req",
    "pack_lookup_reply",
    "unpack_lookup_reply",
    "pack_read_multi_req",
    "unpack_read_multi_req",
    "pack_read_multi_reply",
    "unpack_read_multi_reply",
    "pack_query_req",
    "unpack_query_req",
    "pack_query_reply",
    "unpack_query_reply",
    "query_row_struct",
    "RowBlock",
    "QUERY_TRUNCATED",
    "QUERY_CACHE_HIT",
    "TRACE_FLAG",
    "pack_trace_ctx",
    "unpack_trace_ctx",
    "pack_hello",
    "unpack_hello",
]

_HDR_FMT = "<IBQ"
_HDR_STRUCT = struct.Struct(_HDR_FMT)
_HDR_SIZE = _HDR_STRUCT.size
_LEN_STRUCT = struct.Struct("<I")

#: Largest ``frame_len`` a peer may declare (64 MiB).  The arena bounds
#: every frame this module's encoders build but one: LOOKUP_REPLY carries
#: one metadata chunk, RDMA_READ(_MULTI)_REPLY at most every data chunk
#: of one arena, DIR_REPLY 208 B per set (less than any set's own
#: chunks).  The largest arena a shipped configuration builds is the
#: full-scale fan-in aggregator's, 10,229 producers x 4 KiB = 40 MiB;
#: 64 MiB covers it plus every header.  The exception, QUERY_REPLY,
#: grows with a container, so :func:`pack_query_reply` cuts its rows to
#: fit.  A larger length is a corrupt or hostile stream and is refused
#: at the header, before any of its body is buffered.
MAX_FRAME_LEN = 64 * 1024 * 1024

E_OK = 0
E_NOENT = 2  # set not found
E_AGAIN = 11  # try later
E_INVAL = 22  # malformed request


def _need(what: str, payload, n: int) -> None:
    """Every decoder's bounds check: ``payload`` holds ``n`` bytes."""
    if len(payload) < n:
        raise WireError(
            f"{what}: needs {n} bytes, the payload has {len(payload)}")


def _text(what: str, raw) -> str:
    try:
        return bytes(raw).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"{what}: not UTF-8: {exc}") from None


class MsgType:
    DIR_REQ = 1
    DIR_REPLY = 2
    LOOKUP_REQ = 3
    LOOKUP_REPLY = 4
    # 5/6 are reserved: no codec, no sender (an update is a one-sided
    # read).  The names stay so no later message reuses the numbers; the
    # ledger's frame microbench stamps its frames with UPDATE_REPLY.
    UPDATE_REQ = 5  # reprolint: ignore[flow-msgtype-coverage] -- reserved number, no codec by design
    UPDATE_REPLY = 6  # reprolint: ignore[flow-msgtype-coverage] -- reserved number, no codec by design
    RDMA_READ_REQ = 7  # transport-internal: sock emulation of a read
    RDMA_READ_REPLY = 8
    ADVERTISE = 9  # passive mode: a sampler announces itself to an
    # aggregator it connected to (asymmetric network access, §IV-B)
    RDMA_READ_MULTI_REQ = 10  # coalesced read: N regions, one frame each way
    RDMA_READ_MULTI_REPLY = 11
    HELLO = 12  # transport-internal greeting: peer clock + feature list
    QUERY_REQ = 13  # serving tier: time-range query over the SOS store
    QUERY_REPLY = 14  # (feature-gated: peer must advertise "query")


#: High bit of ``msg_type``: the frame carries a trace-context blob.
TRACE_FLAG = 0x80
_MSG_TYPE_MASK = 0x7F

#: One trace-context entry: region index, trace id, parent span, hop.
_TRACE_ENTRY = struct.Struct("<HQIB")
_TRACE_ENTRY_SIZE = _TRACE_ENTRY.size
#: The largest trace blob: a u8 count of entries.
_MAX_TRACE_BLOB = 1 + 255 * _TRACE_ENTRY_SIZE


def pack_trace_ctx(entries: tuple) -> bytes:
    out = [struct.pack("<B", len(entries))]
    for idx, trace_id, parent_span, hop in entries:
        out.append(_TRACE_ENTRY.pack(idx, trace_id, parent_span, hop))
    return b"".join(out)


def unpack_trace_ctx(buf, pos: int = 0, end: int | None = None) -> tuple[tuple, int]:
    """Decode a trace blob at ``pos`` of a frame that stops at ``end``
    (default: the buffer's); returns (entries, bytes consumed)."""
    if end is None:
        end = len(buf)
    if pos >= end:
        raise WireError("trace flag set on a frame with no trace context")
    (n,) = struct.unpack_from("<B", buf, pos)
    if pos + 1 + n * _TRACE_ENTRY_SIZE > end:
        raise WireError(
            f"trace context of {n} entries runs past the {end - pos}-byte frame body")
    entries = tuple(
        _TRACE_ENTRY.unpack_from(buf, pos + 1 + i * _TRACE_ENTRY_SIZE)
        for i in range(n)
    )
    return entries, 1 + n * _TRACE_ENTRY_SIZE


@dataclass(frozen=True)
class Frame:
    msg_type: int
    request_id: int
    payload: bytes
    #: Decoded trace-context entries, or None for untraced frames.
    trace: tuple | None = field(default=None)


def encode_frame(msg_type: int, request_id: int, payload: bytes = b"",
                 trace: tuple | None = None) -> bytes:
    if trace is None:
        body = _HDR_STRUCT.pack(
            _HDR_SIZE - 4 + len(payload), msg_type, request_id)
        return body + payload
    blob = pack_trace_ctx(trace)
    body = _HDR_STRUCT.pack(
        _HDR_SIZE - 4 + len(blob) + len(payload),
        msg_type | TRACE_FLAG, request_id)
    return body + blob + payload


class FrameDecoder:
    """Incremental frame decoder for stream transports.

    Feed arbitrary byte chunks; complete frames pop out.  Decoding is
    cursor-based: complete frames advance a read offset into the buffer
    and compaction is amortized (the consumed prefix is only dropped
    once it is both large and the majority of the buffer), instead of
    recompacting the entire remainder once per frame.

    >>> dec = FrameDecoder()
    >>> frames = dec.feed(encode_frame(MsgType.DIR_REQ, 7))
    >>> frames[0].msg_type == MsgType.DIR_REQ
    True
    """

    #: Consumed-prefix size below which compaction is never worth it.
    _COMPACT_MIN = 4096

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pos = 0

    def feed(self, chunk: bytes) -> list[Frame]:
        buf = self._buf
        buf += chunk
        pos = self._pos
        end = len(buf)
        frames: list[Frame] = []
        mv = memoryview(buf)
        try:
            while end - pos >= 4:
                (flen,) = _LEN_STRUCT.unpack_from(buf, pos)
                if not _HDR_SIZE - 4 <= flen <= MAX_FRAME_LEN:
                    raise WireError(f"corrupt frame length {flen}")
                if end - pos < 4 + flen:
                    break
                _, mtype, rid = _HDR_STRUCT.unpack_from(buf, pos)
                if mtype & TRACE_FLAG:
                    trace, used = unpack_trace_ctx(
                        buf, pos + _HDR_SIZE, pos + 4 + flen)
                    payload = bytes(mv[pos + _HDR_SIZE + used : pos + 4 + flen])
                    frames.append(Frame(mtype & _MSG_TYPE_MASK, rid,
                                        payload, trace))
                else:
                    payload = bytes(mv[pos + _HDR_SIZE : pos + 4 + flen])
                    frames.append(Frame(mtype, rid, payload))
                pos += 4 + flen
        finally:
            mv.release()
        if pos == end:
            buf.clear()
            pos = 0
        elif pos >= self._COMPACT_MIN and pos * 2 >= end:
            del buf[:pos]
            pos = 0
        self._pos = pos
        return frames


def decode_frame(raw: bytes) -> Frame:
    """Decode exactly one frame from a complete datagram.

    Decodes directly from the buffer — no intermediate decoder state.
    """
    if len(raw) < _HDR_SIZE:
        raise WireError(f"expected exactly one frame, got a {len(raw)}-byte fragment")
    flen, mtype, rid = _HDR_STRUCT.unpack_from(raw, 0)
    if flen < _HDR_SIZE - 4:
        raise WireError(f"corrupt frame length {flen}")
    if 4 + flen != len(raw):
        raise WireError(
            f"expected exactly one {4 + flen}-byte frame, got {len(raw)} bytes"
        )
    if mtype & TRACE_FLAG:
        trace, used = unpack_trace_ctx(raw, _HDR_SIZE, len(raw))
        return Frame(mtype & _MSG_TYPE_MASK, rid,
                     bytes(raw[_HDR_SIZE + used:]), trace)
    return Frame(mtype, rid, bytes(raw[_HDR_SIZE:]))


# ---------------------------------------------------------------------------
# DIR
# ---------------------------------------------------------------------------

_SETINFO_FMT = "<III128s64s"
_SETINFO_SIZE = struct.calcsize(_SETINFO_FMT)


def pack_dir_reply(infos: list[SetInfo]) -> bytes:
    out = [struct.pack("<I", len(infos))]
    for i in infos:
        out.append(
            struct.pack(
                _SETINFO_FMT,
                i.card,
                i.meta_size,
                i.data_size,
                i.name.encode("utf-8"),
                i.schema.encode("utf-8"),
            )
        )
    return b"".join(out)


def unpack_dir_reply(payload: bytes) -> list[SetInfo]:
    _need("DIR_REPLY", payload, 4)
    (n,) = struct.unpack_from("<I", payload, 0)
    _need("DIR_REPLY", payload, 4 + n * _SETINFO_SIZE)
    infos = []
    pos = 4
    for _ in range(n):
        card, msz, dsz, name_b, schema_b = struct.unpack_from(_SETINFO_FMT, payload, pos)
        pos += _SETINFO_SIZE
        infos.append(
            SetInfo(
                name=_text("DIR_REPLY", name_b.rstrip(b"\x00")),
                schema=_text("DIR_REPLY", schema_b.rstrip(b"\x00")),
                card=card,
                meta_size=msz,
                data_size=dsz,
            )
        )
    return infos


# ---------------------------------------------------------------------------
# LOOKUP
# ---------------------------------------------------------------------------


def pack_lookup_req(set_name: str) -> bytes:
    b = set_name.encode("utf-8")
    return struct.pack("<H", len(b)) + b


def unpack_lookup_req(payload: bytes) -> str:
    _need("LOOKUP_REQ", payload, 2)
    (n,) = struct.unpack_from("<H", payload, 0)
    _need("LOOKUP_REQ", payload, 2 + n)
    return _text("LOOKUP_REQ", payload[2 : 2 + n])


def pack_lookup_reply(status: int, region_id: int = 0, meta: bytes = b"") -> bytes:
    return struct.pack("<iQI", status, region_id, len(meta)) + meta


def unpack_lookup_reply(payload: bytes) -> tuple[int, int, bytes]:
    _need("LOOKUP_REPLY", payload, 16)
    status, region_id, mlen = struct.unpack_from("<iQI", payload, 0)
    _need("LOOKUP_REPLY", payload, 16 + mlen)
    return status, region_id, payload[16 : 16 + mlen]


# ---------------------------------------------------------------------------
# ADVERTISE
# ---------------------------------------------------------------------------


def pack_advertise(name: str) -> bytes:
    b = name.encode("utf-8")
    return struct.pack("<H", len(b)) + b


def unpack_advertise(payload: bytes) -> str:
    _need("ADVERTISE", payload, 2)
    (n,) = struct.unpack_from("<H", payload, 0)
    _need("ADVERTISE", payload, 2 + n)
    return _text("ADVERTISE", payload[2 : 2 + n])


# ---------------------------------------------------------------------------
# Coalesced READ (update batching, §IV-A/§IV-D): one request frame names N
# registered regions; one reply frame carries N per-region results.  The
# framing/dispatch overhead of an update transaction is thereby paid once
# per producer per collection interval instead of once per metric set.
# ---------------------------------------------------------------------------


def pack_read_multi_req(region_ids: list[int]) -> bytes:
    return struct.pack(f"<I{len(region_ids)}Q", len(region_ids), *region_ids)


def unpack_read_multi_req(payload: bytes) -> list[int]:
    _need("READ_MULTI_REQ", payload, 4)
    (n,) = struct.unpack_from("<I", payload, 0)
    _need("READ_MULTI_REQ", payload, 4 + 8 * n)
    return list(struct.unpack_from(f"<{n}Q", payload, 4))


def pack_read_multi_reply(parts: list[bytes | None]) -> bytes:
    out = [struct.pack("<I", len(parts))]
    for data in parts:
        if data is None:
            out.append(struct.pack("<iI", E_NOENT, 0))
        else:
            out.append(struct.pack("<iI", E_OK, len(data)))
            out.append(data)
    return b"".join(out)


def unpack_read_multi_reply(payload: bytes) -> list[bytes | None]:
    _need("READ_MULTI_REPLY", payload, 4)
    (n,) = struct.unpack_from("<I", payload, 0)
    pos = 4
    parts: list[bytes | None] = []
    size = len(payload)
    for _ in range(n):
        # Compared inline, not through _need: sock's per-tick decoder.
        if pos + 8 > size:
            raise WireError(f"READ_MULTI_REPLY: part header at byte {pos} "
                            f"runs past the {size}-byte payload")
        status, dlen = struct.unpack_from("<iI", payload, pos)
        pos += 8 + dlen
        if pos > size:
            raise WireError(f"READ_MULTI_REPLY: {dlen}-byte part runs past "
                            f"the {size}-byte payload")
        parts.append(bytes(payload[pos - dlen : pos]) if status == E_OK else None)
    return parts


# ---------------------------------------------------------------------------
# QUERY (serving tier, PR 9): a client asks an aggregator for a time
# range of stored records — base data (level=0) or a pre-computed
# rollup (level=N seconds).  Feature-gated like TRACE_FLAG: MsgType 13
# and 14 did not exist before this build, so clients only send
# QUERY_REQ after the peer's HELLO advertised the "query" feature.
#
# Request:  f64 t0 | f64 t1 | u32 level | u32 comp_id | u32 max_records
#           | u16 schema_len | schema — comp_id 0 means all components;
#           max_records 0 means unbounded.
# Reply:    i32 status | u8 flags | u32 ncols | ncols x (u16 len | name)
#           | u32 nrows | nrows x (f64 ts | u32 comp_id | ncols x f64)
#
# A reply row is one fixed-width ``<dI{ncols}d`` group, packed by the
# cached Struct :func:`query_row_struct` hands out, and a reply's rows
# have one representation end to end: a :class:`RowBlock` over the packed
# bytes.  The query engine packs each stored row *once, at ingest* (hot
# window) or copies a scan's records into :func:`query_row_dtype` rows
# with one ``tobytes()`` (LRU entries), the server appends ``.raw`` to
# the header, and the decoder validates the whole payload up front and
# returns a block over it — a row becomes a tuple only where a client
# indexes or iterates, and a column is a strided view.
# ---------------------------------------------------------------------------

#: Reply flag bits: the row set was cut at ``max_records``; the reply
#: was served from the hot-window / LRU cache.
QUERY_TRUNCATED = 0x01
QUERY_CACHE_HIT = 0x02


def pack_query_req(schema: str, t0: float, t1: float, level: int = 0,
                   comp_id: int = 0, max_records: int = 0) -> bytes:
    b = schema.encode("utf-8")
    return struct.pack("<ddIIIH", t0, t1, level, comp_id, max_records, len(b)) + b


def unpack_query_req(payload: bytes) -> tuple[str, float, float, int, int, int]:
    _need("QUERY_REQ", payload, 30)
    t0, t1, level, comp_id, max_records, n = struct.unpack_from("<ddIIIH", payload, 0)
    _need("QUERY_REQ", payload, 30 + n)
    schema = _text("QUERY_REQ", payload[30 : 30 + n])
    return schema, t0, t1, level, comp_id, max_records


@functools.lru_cache(maxsize=64)
def query_row_struct(ncols: int) -> struct.Struct:
    """The (cached) Struct of one reply row: ``f64 ts | u32 comp_id |
    ncols x f64``.  Callers that encode many rows bind its ``pack``
    once."""
    return struct.Struct(f"<dI{ncols}d")


@functools.lru_cache(maxsize=64)
def query_row_dtype(ncols: int) -> np.dtype:
    """:func:`query_row_struct`'s row as a packed little-endian numpy
    dtype (same ``itemsize``): what a scan copies stored records into."""
    return np.dtype([("ts", "<f8"), ("comp_id", "<u4"),
                     ("values", "<f8", (ncols,))])


class RowBlock(Sequence):
    """Reply rows as the wire carries them: ``raw`` holds whole
    :func:`query_row_struct` groups, and a row is decoded to ``(ts,
    comp_id, values)`` only where a caller indexes or iterates.  Equal
    to any sequence of the same row tuples."""

    __slots__ = ("raw", "_size", "_iter_unpack")

    def __init__(self, raw: bytes, size: int, iter_unpack):
        self.raw = raw
        self._size = size
        self._iter_unpack = iter_unpack

    @classmethod
    def of(cls, ncols: int, raw: bytes = b"") -> "RowBlock":
        """A block over already-packed rows (the engine's buffers)."""
        st = query_row_struct(ncols)
        if len(raw) % st.size:
            raise WireError(
                f"{len(raw)} bytes are not whole {st.size}-byte rows")
        return cls(raw, st.size, st.iter_unpack)

    def _like(self, raw: bytes) -> "RowBlock":
        return RowBlock(raw, self._size, self._iter_unpack)

    def take(self, indices) -> "RowBlock":
        """The block of the rows at ``indices``, in that order."""
        raw, sz = self.raw, self._size
        if isinstance(indices, range) and indices.step == 1:
            return self._like(raw[indices.start * sz : indices.stop * sz])
        return self._like(b"".join([raw[i * sz : (i + 1) * sz] for i in indices]))

    def __len__(self) -> int:
        return len(self.raw) // self._size

    def __getitem__(self, i):
        at = range(len(self))[i]  # a row number, or the rows a slice selects
        if isinstance(at, range):
            return self.take(at)
        (r,) = self._iter_unpack(self.raw[at * self._size : (at + 1) * self._size])
        return r[0], r[1], r[2:]

    def __iter__(self):
        return ((r[0], r[1], r[2:]) for r in self._iter_unpack(self.raw))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    def _fields(self) -> np.ndarray:
        return np.frombuffer(self.raw, query_row_dtype((self._size - 12) // 8))

    def column(self, i: int) -> list[float]:
        """Metric column ``i`` in row order, via a strided view."""
        return self._fields()["values"][:, i].tolist()

    def comp_ids(self) -> list[int]:
        return self._fields()["comp_id"].tolist()


def pack_query_reply(status: int, names: tuple[str, ...] = (),
                     rows: Sequence = (), flags: int = 0) -> bytes:
    """Rows that would take the frame past :data:`MAX_FRAME_LEN` (with
    room for a full trace blob) are cut and the reply flagged
    :data:`QUERY_TRUNCATED`, as a ``max_records`` cut is."""
    encoded = [name.encode("utf-8") for name in names]
    fixed = 9 + 4  # status, flags, ncols; nrows
    room = (MAX_FRAME_LEN - (_HDR_SIZE - 4) - _MAX_TRACE_BLOB - fixed
            - sum(2 + len(b) for b in encoded)
            ) // query_row_struct(len(names)).size
    if len(rows) > room:
        rows = rows[:room]
        flags |= QUERY_TRUNCATED
    out = [struct.pack("<iBI", status, flags, len(names))]
    for b in encoded:
        out.append(struct.pack("<H", len(b)))
        out.append(b)
    out.append(struct.pack("<I", len(rows)))
    if isinstance(rows, RowBlock):
        out.append(rows.raw)
    else:
        pack = query_row_struct(len(names)).pack
        out.extend([pack(ts, comp_id, *values) for ts, comp_id, values in rows])
    return b"".join(out)


def unpack_query_reply(payload: bytes) -> tuple[int, int, tuple[str, ...], RowBlock]:
    """Every check is made here, up front: reading the returned block
    cannot fail."""
    _need("QUERY_REPLY", payload, 9)
    status, flags, ncols = struct.unpack_from("<iBI", payload, 0)
    pos = 9
    names = []
    for _ in range(ncols):
        _need("QUERY_REPLY", payload, pos + 2)
        (n,) = struct.unpack_from("<H", payload, pos)
        pos += 2 + n
        _need("QUERY_REPLY", payload, pos)
        names.append(_text("QUERY_REPLY", payload[pos - n : pos]))
    _need("QUERY_REPLY", payload, pos + 4)
    (nrows,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    row = query_row_struct(ncols)
    end = pos + nrows * row.size
    _need("QUERY_REPLY rows", payload, end)
    return status, flags, tuple(names), RowBlock(
        payload[pos:end], row.size, row.iter_unpack)


# ---------------------------------------------------------------------------
# HELLO (transport-internal, stream transports): sent once per direction
# right after connect.  Carries the sender's daemon clock (so a peer can
# convert transaction timestamps into ages without sharing an epoch —
# daemon clocks are monotonic-since-start, not wall time) and its
# feature list for version negotiation (currently just "trace-ctx").
# Peers that never send a HELLO are treated as featureless old builds.
# ---------------------------------------------------------------------------


def pack_hello(now: float, features: frozenset[str] | set[str]) -> bytes:
    b = ",".join(sorted(features)).encode("utf-8")
    return struct.pack("<dH", now, len(b)) + b


def unpack_hello(payload: bytes) -> tuple[float, frozenset[str]]:
    _need("HELLO", payload, 10)
    now, n = struct.unpack_from("<dH", payload, 0)
    _need("HELLO", payload, 10 + n)
    raw = _text("HELLO", payload[10 : 10 + n])
    return now, (frozenset(raw.split(",")) if raw else frozenset())
