"""Metric sets: the unit of collection, transport, and storage.

A metric set is two contiguous chunks of memory (paper §IV-B):

* **metadata chunk** — describes the elements of the data chunk (name,
  user-defined component id, value type, offset of the element from the
  beginning of the data chunk) plus a *metadata generation number* (MGN)
  which changes whenever the metadata changes.

* **data chunk** — the sampled values, plus the MGN, a *data generation
  number* (DGN) incremented as each element is updated, a *consistent*
  flag telling a consumer whether all values came from the same sampling
  event, and the sample timestamp.

Only the data chunk moves on an update; consumers keep a cached copy of
the metadata from the initial lookup and use the MGN to detect staleness
and the DGN to discriminate new data from old.  The data chunk is
roughly 10% of the total set size in the paper's deployments — a ratio
this implementation reproduces (64-byte names + descriptor overhead in
metadata vs 8-byte values in data).

Schema compilation
------------------

A set's layout is frozen at :meth:`MetricSet.create` / :meth:`from_meta`
time — that is the whole point of the MGN.  The layout is therefore
compiled once into a :class:`_CompiledSchema` (cached by layout, shared
across sets): a single whole-row :class:`struct.Struct` with explicit
pad bytes matching the natural-alignment layout, cached per-metric
``Struct`` objects, and the per-metric clamp callables.  Around it the
per-layout flyweight :class:`_Layout` adds what depends on the metric
*names* too (decoded name tuple, name -> index map, the metadata chunk
with header and component ids zeroed) — "metadata once, then data-only"
applied to our own bookkeeping and memory: a set or mirror keeps only
its name, component ids and data chunk, and :meth:`MetricSet.meta_bytes`
stamps its metadata chunk from the layout on LOOKUP.  A producer set is
instantiated from its (names, types) :class:`SetTemplate`, compiled once
per layout, so the per-metric checks ran when the template compiled; a
mirror of a layout seen before is stamped from that layout's template
and compared, not decoded.  The hot producer path
(:meth:`set_all` / :meth:`set_values`) is then one ``pack_into`` plus
one DGN write, and the hot consumer path
(:meth:`values` / :meth:`values_tuple` / :meth:`snapshot_values`) is
one ``unpack_from`` — the paper's ~1.3 µs/metric collect cost (§IV-E)
depends on exactly this "pay layout cost once" property.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from repro.core import sanitize
from repro.core.memory import Arena, OutOfMemory
from repro.core.metric import METRIC_NAME_LEN, TYPE_BY_TAG, MetricDesc, MetricType
from repro.util.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.set_arena import SetArenaPool

__all__ = ["MetricSet", "SetInfo", "SetTemplate", "SET_NAME_LEN",
           "SCHEMA_NAME_LEN", "schema_name_ok", "set_template"]

SET_NAME_LEN = 128
SCHEMA_NAME_LEN = 64


def schema_name_ok(schema: str) -> bool:
    """A schema names store files (``<schema>.csv``, a SOS container),
    so it must be one file-name component: no ``/``, no NUL, not ``.``
    or ``..``, not empty."""
    return (schema not in ("", ".", "..") and "/" not in schema
            and "\x00" not in schema)

_META_HDR_FMT = f"<4sIIII{SET_NAME_LEN}s{SCHEMA_NAME_LEN}s"
_META_HDR = struct.Struct(_META_HDR_FMT)
_META_HDR_SIZE = _META_HDR.size
_META_MAGIC = b"LDMS"

# data header: MGN u32, DGN u64, consistent u8, 3 pad, timestamp f64
_DATA_HDR_FMT = "<IQB3xd"
_DATA_HDR_SIZE = struct.calcsize(_DATA_HDR_FMT)

_DGN_OFF = 4
_CONSISTENT_OFF = 12
_TS_OFF = 16

_U64_MASK = 0xFFFFFFFFFFFFFFFF
_U32_MASK = 0xFFFFFFFF

_STRUCT_Q = struct.Struct("<Q")
_STRUCT_D = struct.Struct("<d")
_STRUCT_DATA_HDR = struct.Struct(_DATA_HDR_FMT)
# Leading (mgn, dgn, consistent) of a data chunk, for peeking at raw
# fetches without installing them.
_STRUCT_DATA_PEEK = struct.Struct("<IQB")

#: One shared Struct per scalar type code.
_SCALAR_STRUCTS = {t.struct_code: struct.Struct("<" + t.struct_code) for t in MetricType}

_NUMPY_CODE = {
    MetricType.U8: "u1",
    MetricType.S8: "i1",
    MetricType.U16: "u2",
    MetricType.S16: "i2",
    MetricType.U32: "u4",
    MetricType.S32: "i4",
    MetricType.U64: "u8",
    MetricType.S64: "i8",
    MetricType.F32: "f4",
    MetricType.F64: "f8",
}


class SchemaMismatch(ReproError):
    """The data chunk's MGN does not match the cached metadata's MGN."""


class _CompiledSchema:
    """Per-layout artifacts compiled once and reused on every sample."""

    __slots__ = (
        "row_struct",
        "metric_structs",
        "offsets",
        "clamps",
        "mtypes",
        "array_dtype",
        "first_offset",
    )


#: layout key -> _CompiledSchema.  Schemas are few in any deployment;
#: the cap only guards against pathological churn (e.g. fuzz tests).
_SCHEMA_CACHE: dict[tuple, _CompiledSchema] = {}
_SCHEMA_CACHE_MAX = 1024


def _compile_schema(
    tags: tuple[int, ...], offsets: tuple[int, ...], data_size: int
) -> _CompiledSchema:
    key = (data_size, tuple(zip(tags, offsets)))
    cs = _SCHEMA_CACHE.get(key)
    if cs is not None:
        return cs
    cs = _CompiledSchema()
    cs.offsets = offsets
    cs.mtypes = mtypes = tuple(TYPE_BY_TAG[t] for t in tags)
    cs.clamps = tuple(t.clamp for t in mtypes)
    cs.metric_structs = tuple(_SCALAR_STRUCTS[t.struct_code] for t in mtypes)
    cs.first_offset = offsets[0] if offsets else _DATA_HDR_SIZE

    # Whole-row Struct with explicit pad bytes ("4x") for the alignment
    # holes.  Only well-formed layouts compile: offsets strictly
    # increasing in descriptor order, starting at/after the data header,
    # no overlap.  create() always produces such a layout; a mirror of
    # foreign metadata might not, and falls back to per-metric access.
    fmt = ["<"]
    cur = _DATA_HDR_SIZE
    ok = True
    for mtype, off in zip(mtypes, offsets):
        gap = off - cur
        if gap < 0:
            ok = False
            break
        if gap:
            fmt.append(f"{gap}x")
        fmt.append(mtype.struct_code)
        cur = off + mtype.size
    cs.row_struct = struct.Struct("".join(fmt)) if ok and cur <= data_size else None

    # Homogeneous contiguous layouts additionally get a numpy dtype (the
    # common all-U64 case: meminfo, lustre, bw, ...), so a sampler cohort
    # writes their values as one column sweep (repro.core.set_arena).
    cs.array_dtype = None
    if cs.row_struct is not None and mtypes:
        t0 = mtypes[0]
        if all(t is t0 for t in cs.mtypes) and all(
            off == cs.first_offset + i * t0.size for i, off in enumerate(cs.offsets)
        ):
            cs.array_dtype = "<" + _NUMPY_CODE[t0]

    if len(_SCHEMA_CACHE) >= _SCHEMA_CACHE_MAX:
        _SCHEMA_CACHE.clear()
    _SCHEMA_CACHE[key] = cs
    return cs


class _Layout(NamedTuple):
    """Per-layout flyweight: everything that depends only on (names,
    types, offsets, data size), built by the first set or mirror of the
    layout and shared by every later one."""

    wire_names: tuple[bytes, ...]
    tags: tuple[int, ...]
    names: tuple[str, ...]
    index: dict[str, int]
    compiled: _CompiledSchema
    #: the descriptor block split at its component-id slots: every byte
    #: of a metadata chunk but its header and ids is fixed by the layout
    #: key (one more piece than metrics)
    id_gaps: tuple[bytes, ...]


#: (data_size, NUL-padded wire names, tags, offsets) -> _Layout, capped
#: like _SCHEMA_CACHE: a mirror finds its layout without decoding a name.
_LAYOUT_CACHE: dict[tuple, _Layout] = {}


def _layout_for(
    wire_names: tuple[bytes, ...], tags: tuple[int, ...],
    offsets: tuple[int, ...], data_size: int,
) -> _Layout:
    key = (data_size, wire_names, tags, offsets)
    layout = _LAYOUT_CACHE.get(key)
    if layout is not None:
        return layout
    # First sight of this layout: the checks that guard against garbage
    # descriptor blocks run here, once (other wire fields are range safe).
    names = tuple(sys.intern(nb.rstrip(b"\x00").decode("utf-8"))
                  for nb in wire_names)
    if "" in names:
        raise ValueError("metric name must be non-empty")
    # A name field needs its NUL: a set's descs could not hold the name.
    if any(nb[-1] for nb in wire_names):
        raise ValueError(f"a metric name fills its {METRIC_NAME_LEN}-byte "
                         f"field with no NUL terminator")
    for tag, off in zip(tags, offsets):
        mtype = TYPE_BY_TAG.get(tag)
        if mtype is None:
            raise ValueError(f"{tag} is not a valid MetricType")
        if off + mtype.size > data_size:
            raise ValueError(
                f"descriptor at offset {off} runs past the {data_size}-byte data chunk")
    index = {n: i for i, n in enumerate(names)}
    if len(index) != len(names):
        dup = next(n for i, n in enumerate(names) if index[n] != i)
        raise ValueError(f"duplicate metric name {dup!r}")
    descs = b"".join(
        struct.pack(MetricDesc.WIRE_FMT, nb, 0, tag, off)
        for nb, tag, off in zip(wire_names, tags, offsets))
    slots = range(METRIC_NAME_LEN, len(descs), MetricDesc.WIRE_SIZE)
    id_gaps = tuple(descs[a:b] for a, b in zip(
        (0, *(at + _STRUCT_Q.size for at in slots)), (*slots, len(descs))))
    if len(_LAYOUT_CACHE) >= _SCHEMA_CACHE_MAX:
        _LAYOUT_CACHE.clear()
    layout = _LAYOUT_CACHE[key] = _Layout(
        wire_names, tags, names, index,
        _compile_schema(tags, offsets, data_size), id_gaps)
    return layout


class SetTemplate(NamedTuple):
    """One compiled (metric names, metric types) layout — LDMS's
    ``ldms_schema_t`` without its name: what every producer set of the
    layout shares.  :func:`set_template` compiles or finds it;
    :meth:`MetricSet.instantiate` makes sets of it."""

    layout: _Layout
    data_size: int
    #: packs the component ids, range-checked, in one call
    ids: struct.Struct


#: (metric names, metric types) -> SetTemplate, capped like _LAYOUT_CACHE.
_TEMPLATES: dict[tuple, SetTemplate] = {}
_METRIC_TYPE = frozenset((MetricType,))


def set_template(names: Sequence[str],
                 mtypes: MetricType | Sequence[MetricType]) -> SetTemplate:
    """The template of the layout whose metrics are ``names`` with types
    ``mtypes`` (one type per name, or one for all), in descriptor order:
    compiled by the first call for a layout, found by every later one.
    A plugin calls this in ``config()`` and passes the result to
    ``create_set``: its first instance compiles the layout, the rest
    find it, and one that keeps its name tuple pays one dict lookup
    here, not a per-metric pass."""
    names = tuple(names)
    if not names:
        raise ValueError("metric set must contain at least one metric")
    if isinstance(mtypes, MetricType):
        mtypes = (mtypes,) * len(names)
    else:
        mtypes = tuple(mtypes)
        if len(mtypes) != len(names):
            raise ValueError(f"{len(names)} metric names but {len(mtypes)} types")
        # Per call: a wire tag (7) would otherwise find U64's template.
        if not _METRIC_TYPE.issuperset(map(type, mtypes)):
            bad = next(t for t in mtypes if type(t) is not MetricType)
            raise ValueError(f"{bad!r} is not a valid MetricType")
    return _TEMPLATES.get((names, mtypes)) or _compile_template(names, mtypes)


def _compile_template(names: tuple, mtypes: tuple) -> SetTemplate:
    # The per-metric name checks: run once per layout, here (_layout_for
    # rejects empty and duplicate names; set_template checks the types).
    wire_names, offsets, off = [], [], _DATA_HDR_SIZE
    for mname, mtype in zip(names, mtypes):
        encoded = mname.encode("utf-8")
        if len(encoded) >= METRIC_NAME_LEN:
            raise ValueError(
                f"metric name too long ({len(encoded)} bytes, max "
                f"{METRIC_NAME_LEN - 1}): {mname!r}")
        wire_names.append(encoded.ljust(METRIC_NAME_LEN, b"\x00"))
        size = mtype.size
        off = (off + size - 1) & ~(size - 1)  # natural alignment
        offsets.append(off)
        off += size
    tags = tuple(map(int, mtypes))
    layout = _layout_for(tuple(wire_names), tags, tuple(offsets), off)
    if len(_TEMPLATES) >= _SCHEMA_CACHE_MAX:
        _TEMPLATES.clear()
    tmpl = _TEMPLATES[names, mtypes] = SetTemplate(
        layout, off, struct.Struct(f"<{len(names)}Q"))
    return tmpl


#: (schema field, data size, card) of a LOOKUP reply -> the layout last
#: decoded under it, capped like _LAYOUT_CACHE: the candidate a mirror
#: of a known layout is stamped from instead of decoded.
_MIRROR_LAYOUTS: dict[tuple, _Layout] = {}

#: Offset of the first component id in a metadata chunk.
_IDS_OFF = _META_HDR_SIZE + METRIC_NAME_LEN


def _stamp(layout: _Layout, header: tuple, ids) -> bytearray:
    """The metadata chunk of a set of ``layout``: ``header`` (the
    ``_META_HDR`` fields) packed in front of the layout's descriptor
    block, its id slots filled; ``ids`` is one id for every metric or a
    tuple of one per metric."""
    gaps = layout.id_gaps
    if isinstance(ids, tuple):
        parts = [gaps[0]]
        for cid, gap in zip(ids, gaps[1:]):
            parts += (_STRUCT_Q.pack(cid), gap)
        descs = b"".join(parts)
    else:
        descs = _STRUCT_Q.pack(ids).join(gaps)
    meta = bytearray(_META_HDR.pack(*header))
    meta += descs
    return meta


@dataclass(frozen=True)
class SetInfo:
    """Summary of a set as reported by the directory protocol."""

    name: str
    schema: str
    card: int
    meta_size: int
    data_size: int

    @property
    def total_size(self) -> int:
        return self.meta_size + self.data_size


class MetricSet:
    """A typed, fixed-layout record of metric values.

    Producer side (sampler plugins)::

        s = MetricSet.create("node1/meminfo", "meminfo",
                             [("Active", MetricType.U64, 1),
                              ("MemFree", MetricType.U64, 1)], arena=arena)
        s.begin_transaction()
        s.set_value("Active", 12345)
        s.end_transaction(timestamp=now)

    Consumer side (aggregators)::

        mirror = MetricSet.from_meta(s.meta_bytes(), arena=agg_arena)
        mirror.apply_data(s.data_bytes())
        mirror.get("Active")
    """

    __slots__ = (
        "name", "schema", "arena", "mgn", "meta_size", "data_size",
        "_compiled", "_names", "_layout", "_comp_ids", "_dgn",
        "_meta_off", "_data_off", "_ab", "_arow", "_data",
        "_in_transaction", "_deleted", "_shadow", "_store_match",
    )

    def _build(
        self, name: str, schema: str, layout: _Layout,
        comp_ids: tuple[int, ...], arena: Arena, mgn: int, data_size: int,
        pool: Optional["SetArenaPool"],
    ) -> None:
        self.name = name
        self.schema = schema
        self.arena = arena
        self.mgn = mgn
        card = len(comp_ids)
        self.meta_size = _META_HDR_SIZE + card * MetricDesc.WIRE_SIZE
        self.data_size = data_size

        # Shared per layout (structs, names, index, metadata template).
        self._layout = layout
        self._compiled = layout.compiled
        self._names = layout.names
        self._comp_ids = comp_ids
        # Python-int DGN shadow: producers bump this instead of
        # unpack/repacking 8 bytes from the data chunk per update.
        self._dgn = 0
        #: (stores version, matching stores) cached by the owning daemon.
        self._store_match: Optional[tuple] = None

        # The metadata chunk is reserved (the paper's used/peak/OOM
        # accounting) but never viewed, so never committed.
        self._meta_off = arena.alloc(self.meta_size)
        try:
            self._data_off = arena.alloc(self.data_size)
        except (OutOfMemory, ValueError):
            # Data chunk failed after the metadata chunk succeeded:
            # release the metadata chunk so a half-built set never
            # leaks arena space, then let the caller count the failure.
            arena.free(self._meta_off)
            raise
        if pool is not None:
            # Columnar backing (set arena): the data chunk is a row of
            # a shared per-layout numpy block, so population-wide sweeps
            # can touch every same-schema set in one vectorized op.  The
            # daemon Arena reservation above still stands — footprint
            # accounting (used/peak/OOM) is identical either way — but
            # is never viewed, so never committed, while the row backs _data.
            self._ab, row = pool.acquire_row(self._compiled, data_size)
            self._arow = row
            flat = self._ab.flat
            if flat is None:
                flat = self._ab.flat = memoryview(self._ab.block).cast("B")
            self._data = flat[row * data_size:(row + 1) * data_size]
        else:
            self._ab = None
            self._arow = -1
            self._data = arena.view(self._data_off, self.data_size)
        self._in_transaction = False
        self._deleted = False
        # Data header: MGN mirrored, DGN 0, consistent 0, ts 0
        _STRUCT_DATA_HDR.pack_into(self._data, 0, mgn, 0, 0, 0.0)

        # Shadow state for REPRO_SANITIZE runs; None when disabled, so
        # the hot paths pay a single is-None branch.
        self._shadow = sanitize.attach(self)

    @property
    def descs(self) -> list[MetricDesc]:
        """Per-metric descriptors, materialised for callers that ask."""
        cs = self._compiled
        return list(map(MetricDesc, self._names, cs.mtypes, self._comp_ids,
                        cs.offsets))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        name: str,
        schema: str,
        metrics: list[tuple[str, MetricType, int]],
        arena: Arena,
        mgn: int = 1,
        pool: Optional["SetArenaPool"] = None,
    ) -> "MetricSet":
        """Create a producer-side set from a ``(name, type, component
        id)`` list: the list finds (or compiles) its layout's template,
        and the set is instantiated from it like every other."""
        if not metrics:
            raise ValueError("metric set must contain at least one metric")
        names, mtypes, comp_ids = zip(*metrics)
        return cls.instantiate(name, schema, set_template(names, mtypes),
                               comp_ids, arena, mgn, pool)

    @classmethod
    def instantiate(
        cls, name: str, schema: str, template: SetTemplate,
        comp_ids: int | Sequence[int], arena: Arena, mgn: int,
        pool: Optional["SetArenaPool"],
    ) -> "MetricSet":
        """A producer-side set of a compiled layout (LDMS's
        ``ldms_set_new``).  ``comp_ids`` is one component id for every
        metric (the usual case) or a sequence of one per metric.  Every
        check runs before the first allocation, so a rejected call
        leaves the arena and the set pool as they were."""
        if not name or len(name.encode("utf-8")) >= SET_NAME_LEN:
            raise ValueError(f"bad set name {name!r}")
        if not schema_name_ok(schema) or len(schema.encode("utf-8")) >= SCHEMA_NAME_LEN:
            raise ValueError(f"bad schema name {schema!r}")
        if not 0 <= mgn <= _U32_MASK:
            raise ValueError(f"mgn {mgn} of set {name!r} is not a u32")
        card = len(template.layout.tags)
        try:
            if isinstance(comp_ids, int):
                _STRUCT_Q.pack(comp_ids)
                ids = (comp_ids,) * card
            else:
                ids = tuple(comp_ids)
                template.ids.pack(*ids)
        except (struct.error, TypeError):
            raise ValueError(f"component ids of set {name!r} must be "
                             f"{card} integers in [0, 2**64)") from None
        mset = cls.__new__(cls)
        mset._build(name, schema, template.layout, ids, arena, mgn,
                    template.data_size, pool)
        return mset

    @classmethod
    def from_meta(
        cls, meta: bytes | memoryview, arena: Arena,
        pool: Optional["SetArenaPool"] = None,
    ) -> "MetricSet":
        """Construct a consumer-side mirror from a metadata chunk; every
        check runs before the first allocation.

        A chunk of a layout seen before under the same (schema, data
        size, card) is not decoded: its one component id is stamped into
        that layout's template, and the chunk is that layout's if the
        two are byte-equal.  Any other chunk takes the full decode."""
        if len(meta) < _META_HDR_SIZE:
            raise ValueError("truncated metadata chunk")
        header = _META_HDR.unpack_from(meta, 0)
        magic, meta_size, data_size, card, mgn, name_b, schema_b = header
        if magic != _META_MAGIC:
            raise ValueError("bad metadata magic")
        if len(meta) != meta_size:
            raise ValueError(f"metadata size mismatch: header says {meta_size}, got {len(meta)}")
        end = _META_HDR_SIZE + card * MetricDesc.WIRE_SIZE
        if meta_size != end:
            raise ValueError(f"a {meta_size}-byte metadata chunk does not end "
                             f"at its {card}-metric descriptor block ({end} bytes)")
        if data_size < _DATA_HDR_SIZE:
            raise ValueError(f"a {data_size}-byte data chunk has no room for "
                             f"its {_DATA_HDR_SIZE}-byte header")
        name = name_b.rstrip(b"\x00").decode("utf-8")
        schema = schema_b.rstrip(b"\x00").decode("utf-8")
        if not schema_name_ok(schema):
            raise ValueError(f"bad schema name {schema!r}")
        key = (schema_b, data_size, card)
        layout = _MIRROR_LAYOUTS.get(key)
        comp_id = _STRUCT_Q.unpack_from(meta, _IDS_OFF)[0] if card else 0
        # bytearray == buffer is one memcmp; a memoryview on the left
        # would compare item by item, slower than the decode it skips.
        if layout is not None and _stamp(layout, header, comp_id) == meta:
            comp_ids = (comp_id,) * card
        else:
            wire_names, comp_ids, tags, offsets = MetricDesc.unpack_columns(
                meta[_META_HDR_SIZE:end])
            if card and comp_ids.count(comp_ids[0]) == card:
                # One component per set (the usual case): share one int.
                comp_ids = comp_ids[:1] * card
            layout = _layout_for(wire_names, tags, offsets, data_size)
            if len(_MIRROR_LAYOUTS) >= _SCHEMA_CACHE_MAX:
                _MIRROR_LAYOUTS.clear()
            _MIRROR_LAYOUTS[key] = layout
        mset = cls.__new__(cls)
        mset._build(name, sys.intern(schema), layout, comp_ids, arena, mgn,
                    data_size, pool)
        if mset._shadow is not None:
            # Mirrors get the consumer-side checks: decoding values
            # while the consistent flag is clear is a violation here.
            mset._shadow.is_mirror = True
        return mset

    def delete(self) -> None:
        """Release the set's arena memory (and its columnar row)."""
        if not self._deleted:
            self._deleted = True
            self._data.release()
            if self._ab is not None:
                self._ab.free_row(self._arow)
                self._ab = None
            self.arena.free(self._meta_off)
            self.arena.free(self._data_off)

    # ------------------------------------------------------------------
    # identity / geometry
    # ------------------------------------------------------------------
    @property
    def card(self) -> int:
        """Number of metrics in the set."""
        return len(self._names)

    @property
    def total_size(self) -> int:
        return self.meta_size + self.data_size

    @property
    def data_fraction(self) -> float:
        """Data chunk as a fraction of total set size (paper: ~10%)."""
        return self.data_size / self.total_size

    def info(self) -> SetInfo:
        return SetInfo(self.name, self.schema, self.card, self.meta_size, self.data_size)

    def metric_names(self) -> list[str]:
        return list(self._names)

    def component_ids(self) -> tuple[int, ...]:
        return self._comp_ids

    # ------------------------------------------------------------------
    # generation numbers / consistency
    # ------------------------------------------------------------------
    @property
    def dgn(self) -> int:
        return _STRUCT_Q.unpack_from(self._data, _DGN_OFF)[0]

    @property
    def is_consistent(self) -> bool:
        return self._data[_CONSISTENT_OFF] == 1

    @property
    def timestamp(self) -> float:
        return _STRUCT_D.unpack_from(self._data, _TS_OFF)[0]

    # ------------------------------------------------------------------
    # producer API
    # ------------------------------------------------------------------
    def begin_transaction(self) -> None:
        """Start a sampling transaction: clears the consistent flag."""
        if self._in_transaction:
            raise ReproError(f"nested transaction on set {self.name!r}")
        if self._shadow is not None:
            sanitize.check(self, "begin_transaction")
        self._in_transaction = True
        self._data[_CONSISTENT_OFF] = 0

    def end_transaction(self, timestamp: float) -> None:
        """Finish a transaction: stamp time, set consistent."""
        if not self._in_transaction:
            raise ReproError(f"end_transaction without begin on {self.name!r}")
        if self._shadow is not None:
            sanitize.check(self, "end_transaction")
        _STRUCT_D.pack_into(self._data, _TS_OFF, timestamp)
        self._data[_CONSISTENT_OFF] = 1
        self._in_transaction = False

    def set_value(self, metric: str | int, value: float | int) -> None:
        """Write one metric value; increments the DGN (paper §IV-B).

        The common case (an in-range value) is one cached-``Struct``
        pack; out-of-range/mistyped values fall back to the type's clamp
        (C-like wraparound), exactly as the unconditional-clamp path did.
        """
        i = metric if isinstance(metric, int) else self._layout.index[metric]
        cs = self._compiled
        st = cs.metric_structs[i]
        off = cs.offsets[i]
        try:
            st.pack_into(self._data, off, value)
        except (struct.error, TypeError, OverflowError):
            st.pack_into(self._data, off, cs.clamps[i](value))
        self._dgn = dgn = (self._dgn + 1) & _U64_MASK
        _STRUCT_Q.pack_into(self._data, _DGN_OFF, dgn)
        if self._shadow is not None:
            sanitize.commit(self)

    def set_values(self, values) -> None:
        """Write every metric in descriptor order with one compiled pack.

        This is the mid-transaction bulk setter used by sampler plugins
        from ``do_sample``: one whole-row ``pack_into`` (pad bytes
        written as zero, matching the arena's zero-fill) plus a single
        transaction-scoped DGN bump of ``card`` — the same final DGN the
        per-metric path produces.
        """
        card = len(self._names)
        if len(values) != card:
            raise ValueError(f"expected {card} values, got {len(values)}")
        cs = self._compiled
        rs = cs.row_struct
        if rs is not None:
            try:
                rs.pack_into(self._data, _DATA_HDR_SIZE, *values)
            except (struct.error, TypeError, OverflowError):
                rs.pack_into(
                    self._data,
                    _DATA_HDR_SIZE,
                    *[c(v) for c, v in zip(cs.clamps, values)],
                )
        else:
            data = self._data
            structs, offs, clamps = cs.metric_structs, cs.offsets, cs.clamps
            for i, v in enumerate(values):
                try:
                    structs[i].pack_into(data, offs[i], v)
                except (struct.error, TypeError, OverflowError):
                    structs[i].pack_into(data, offs[i], clamps[i](v))
        self._dgn = dgn = (self._dgn + card) & _U64_MASK
        _STRUCT_Q.pack_into(self._data, _DGN_OFF, dgn)
        if self._shadow is not None:
            sanitize.commit(self)

    def set_all(self, values, timestamp: float) -> None:
        """Whole-set update in one transaction (the common sampler path)."""
        if len(values) != self.card:
            raise ValueError(f"expected {self.card} values, got {len(values)}")
        self.begin_transaction()
        self.set_values(values)
        self.end_transaction(timestamp)

    # ------------------------------------------------------------------
    # consumer API
    # ------------------------------------------------------------------
    def get(self, metric: str | int) -> float | int:
        if self._shadow is not None:
            sanitize.check_read(self)
        i = metric if isinstance(metric, int) else self._layout.index[metric]
        cs = self._compiled
        return cs.metric_structs[i].unpack_from(self._data, cs.offsets[i])[0]

    def values_tuple(self) -> tuple[float | int, ...]:
        """All values in descriptor order, decoded with one unpack."""
        if self._shadow is not None:
            sanitize.check_read(self)
        rs = self._compiled.row_struct
        if rs is not None:
            return rs.unpack_from(self._data, _DATA_HDR_SIZE)
        return tuple(self.get(i) for i in range(self.card))

    def values(self) -> list[float | int]:
        return list(self.values_tuple())

    def snapshot_values(self, data: bytes) -> tuple[float | int, ...]:
        """Decode a raw data-chunk snapshot taken from this set's layout.

        The store flush stages the delivered data chunk at delivery time
        and builds records later; this is its one decode, a row per call
        (``Ldmsd._materialize_rows``).  No sanitize check: the snapshot
        is already detached from the live chunk.
        """
        cs = self._compiled
        rs = cs.row_struct
        if rs is not None:
            return rs.unpack_from(data, _DATA_HDR_SIZE)
        return tuple(
            st.unpack_from(data, off)[0]
            for st, off in zip(cs.metric_structs, cs.offsets)
        )

    def as_dict(self) -> dict[str, float | int]:
        return dict(zip(self._names, self.values_tuple()))

    # ------------------------------------------------------------------
    # wire representation
    # ------------------------------------------------------------------
    def meta_bytes(self) -> bytes:
        """The metadata chunk (sent once, on lookup), stamped from the
        layout's template: the header, then the component-id column."""
        ids = self._comp_ids
        card = len(ids)
        return bytes(_stamp(
            self._layout,
            (_META_MAGIC, self.meta_size, self.data_size, card, self.mgn,
             self.name.encode("utf-8"), self.schema.encode("utf-8")),
            # One component per set (the usual case) is a scalar fill.
            ids[0] if card and ids.count(ids[0]) == card else ids))

    def data_bytes(self) -> bytes:
        """A copy of the data chunk (what an update transfers).

        Note: this is a *raw memory read*, exactly like an RDMA fetch —
        if a transaction is in flight the consistent flag in the copy is
        clear and the consumer must discard the sample.
        """
        if self._shadow is not None:
            sanitize.check(self, "data_bytes")
        return bytes(self._data)

    def data_view(self) -> memoryview:
        """Zero-copy read-only view of the data chunk (local transport)."""
        if self._shadow is not None:
            sanitize.check(self, "data_view")
        return self._data.toreadonly()

    def peek_data_header(self, raw: bytes | memoryview) -> tuple[int, bool]:
        """Validate a fetched data chunk and return ``(dgn, consistent)``
        without installing it.

        This is the aggregator's skip-on-stale fast path: three header
        fields are read straight from the raw buffer, so a fetch whose
        DGN has not advanced (or that is torn) costs no data copy.

        Raises :class:`ValueError` on a size mismatch and
        :class:`SchemaMismatch` if the data's MGN does not match this
        mirror's metadata MGN — the consumer must re-lookup.
        """
        if len(raw) != self.data_size:
            raise ValueError(f"data size mismatch: expected {self.data_size}, got {len(raw)}")
        mgn, dgn, consistent = _STRUCT_DATA_PEEK.unpack_from(raw, 0)
        if mgn != self.mgn:
            raise SchemaMismatch(
                f"set {self.name!r}: data MGN {mgn} != metadata MGN {self.mgn}"
            )
        return dgn, consistent == 1

    def apply_data(self, raw: bytes | memoryview) -> None:
        """Install a fetched data chunk into this (mirror) set.

        Raises :class:`SchemaMismatch` if the data's MGN does not match
        this mirror's metadata MGN — the consumer must re-lookup.
        """
        dgn, consistent = self.peek_data_header(raw)
        self._install(raw, dgn, consistent)

    def _install(self, raw: bytes | memoryview, dgn: int, consistent: bool) -> None:
        """Install an already-peeked data chunk (skips re-validation —
        the aggregator's completion path peeks first to drop stale and
        torn fetches, so validating again per update would be pure
        overhead)."""
        if self._shadow is not None:
            sanitize.check_apply(self, dgn, consistent)
        self._data[:] = raw
        self._dgn = dgn
        if self._shadow is not None:
            sanitize.commit(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricSet {self.name!r} schema={self.schema!r} card={self.card} "
            f"meta={self.meta_size}B data={self.data_size}B dgn={self.dgn}>"
        )
