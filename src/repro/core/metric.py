"""Metric value types and per-metric descriptors.

LDMS metric sets are typed, fixed-layout records.  Each metric has a
value type drawn from the C-like menu below, a name, a user-assigned
component id (identifying which node/component the value describes),
and a fixed offset into the set's data chunk.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

__all__ = ["MetricType", "MetricDesc", "METRIC_NAME_LEN", "TYPE_BY_TAG"]

#: Fixed on-wire width of a metric name, bytes (NUL padded).  Names like
#: ``dirty_pages_hits#stats.snx11024`` (paper §IV-B) must fit.
METRIC_NAME_LEN = 64


class MetricType(enum.IntEnum):
    """Value types supported in a metric set.

    The integer values are the on-wire type tags.
    """

    U8 = 1
    S8 = 2
    U16 = 3
    S16 = 4
    U32 = 5
    S32 = 6
    U64 = 7
    S64 = 8
    F32 = 9
    F64 = 10

    @property
    def struct_code(self) -> str:
        return _STRUCT_CODE[self]

    @property
    def size(self) -> int:
        return struct.calcsize("<" + self.struct_code)

    @property
    def is_float(self) -> bool:
        return self in (MetricType.F32, MetricType.F64)

    @property
    def is_signed(self) -> bool:
        return self in (MetricType.S8, MetricType.S16, MetricType.S32, MetricType.S64)

    def clamp(self, value: float | int) -> float | int:
        """Coerce a Python number into this type's representable range.

        Integer counters wrap like their C counterparts would; floats
        pass through.  Sampler plugins use this so a synthetic counter
        that exceeds 2^64 behaves like the kernel's would.
        """
        if self.is_float:
            return float(value)
        bits = 8 * self.size
        v = int(value)
        if self.is_signed:
            lo, span = -(1 << (bits - 1)), 1 << bits
            return (v - lo) % span + lo
        return v % (1 << bits)

    @classmethod
    def parse(cls, text: str) -> "MetricType":
        """Parse a type name as written in plugin config (``"u64"``)."""
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown metric type {text!r}") from None


_STRUCT_CODE = {
    MetricType.U8: "B",
    MetricType.S8: "b",
    MetricType.U16: "H",
    MetricType.S16: "h",
    MetricType.U32: "I",
    MetricType.S32: "i",
    MetricType.U64: "Q",
    MetricType.S64: "q",
    MetricType.F32: "f",
    MetricType.F64: "d",
}


@dataclass(frozen=True, slots=True)
class MetricDesc:
    """Descriptor of one metric inside a set (lives in the metadata chunk).

    Attributes
    ----------
    name:
        Metric name, e.g. ``"Active"`` or ``"open#stats.snx11024"``.
        At most :data:`METRIC_NAME_LEN` - 1 bytes when UTF-8 encoded.
    mtype:
        Value type.
    component_id:
        User-defined id associating the value with a component (node).
    data_offset:
        Byte offset of the value within the set's data chunk.
    """

    name: str
    mtype: MetricType
    component_id: int
    data_offset: int

    def __post_init__(self) -> None:
        encoded = self.name.encode("utf-8")
        if not self.name:
            raise ValueError("metric name must be non-empty")
        if len(encoded) >= METRIC_NAME_LEN:
            raise ValueError(
                f"metric name too long ({len(encoded)} bytes, max {METRIC_NAME_LEN - 1}): "
                f"{self.name!r}"
            )
        if self.component_id < 0:
            raise ValueError("component_id must be >= 0")
        if self.data_offset < 0:
            raise ValueError("data_offset must be >= 0")

    # On-wire descriptor: name[64] + comp_id u64 + type u8 + offset u32
    WIRE_FMT = f"<{METRIC_NAME_LEN}sQBI"
    WIRE_SIZE = struct.calcsize(WIRE_FMT)

    def pack(self) -> bytes:
        return struct.pack(
            self.WIRE_FMT,
            self.name.encode("utf-8"),
            self.component_id,
            int(self.mtype),
            self.data_offset,
        )

    @classmethod
    def unpack(cls, raw: bytes | memoryview) -> "MetricDesc":
        name_b, comp_id, tag, offset = struct.unpack(cls.WIRE_FMT, raw)
        return cls(
            name=name_b.rstrip(b"\x00").decode("utf-8"),
            mtype=MetricType(tag),
            component_id=comp_id,
            data_offset=offset,
        )

    @classmethod
    def unpack_columns(
        cls, raw: bytes | memoryview
    ) -> tuple[tuple[bytes, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Split a contiguous run of descriptors into ``(wire names,
        component ids, type tags, data offsets)`` columns in one C-level
        pass, building no descriptor objects and validating nothing.
        Names, tags and offsets identify the layout (seen before for all
        but the first sampler of a node class); only the component ids
        are per-set state.  Wire names keep their NUL padding.
        """
        cols = tuple(zip(*struct.iter_unpack(cls.WIRE_FMT, raw)))
        return cols if cols else ((), (), (), ())  # type: ignore[return-value]


#: tag -> MetricType without the IntEnum __call__ overhead (the enum
#: constructor is a surprisingly hot call when unpacking thousands of
#: descriptor blocks).
TYPE_BY_TAG = {int(t): t for t in MetricType}
