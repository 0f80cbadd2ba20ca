"""A toy codec with three classic drift bugs.

``unpack_ping_req`` reads ``<II`` where the encoder wrote ``<IQ`` (the
request id was widened to u64 on the pack side only),
``unpack_ping_reply`` still slices the payload at byte 12 although its
own header format grew to 16 bytes, and ``unpack_rows_reply`` decodes
its repeated row group with a u16 component id where the encoder's
cached row ``Struct`` packs a u32.
"""

import struct


class MsgType:
    PING_REQ = 1
    PING_REPLY = 2


TRACE_FLAG = 0x80
_MSG_TYPE_MASK = 0x7F


def pack_ping_req(seq: int, req_id: int) -> bytes:
    return struct.pack("<IQ", seq, req_id)


def unpack_ping_req(payload: bytes) -> tuple[int, int]:
    return struct.unpack_from("<II", payload, 0)


def pack_ping_reply(status: int, req_id: int, blob: bytes) -> bytes:
    return struct.pack("<iQI", status, req_id, len(blob)) + blob


def unpack_ping_reply(payload: bytes) -> bytes:
    _status, _req_id, n = struct.unpack_from("<iQI", payload, 0)
    return payload[12:12 + n]


def _row_struct(ncols: int) -> struct.Struct:
    return struct.Struct(f"<dI{ncols}d")


def pack_rows_reply(ncols: int, rows: list) -> bytes:
    out = [struct.pack("<I", len(rows))]
    pack = _row_struct(ncols).pack
    out.extend(pack(*r) for r in rows)
    return b"".join(out)


def unpack_rows_reply(payload: bytes, ncols: int) -> list:
    (n,) = struct.unpack_from("<I", payload, 0)
    row = struct.Struct(f"<dH{ncols}d")
    return list(row.iter_unpack(payload[4:4 + n * row.size]))
