"""SOS store: binary records with a time index, plus rollup levels.

A stand-in for LDMS's Scalable Object Store: per schema, a pair of
files —

* ``<schema>.sos``  — fixed-width little-endian records:
  ``f64 timestamp | u32 comp_id | u32 card | card x f64 values``;
* ``<schema>.sidx`` — ``(f64 timestamp, u64 offset)`` pairs enabling
  binary-searched time-range scans without reading the data file.

The first record freezes the schema's metric names into a JSON sidecar
``<schema>.schema.json`` so readers can label columns.  Reopening an
existing container validates incoming records against that sidecar: a
layout change across daemon restarts is rejected with a
:class:`~repro.util.errors.StoreError` instead of silently corrupting
the fixed-width record stream.

**Rollups.**  ``rollups="10,60"`` maintains pre-computed downsampling
levels on ingest: every base record is folded into a per-component
mean bucket of ``level`` seconds, and a completed bucket is appended
to a sibling container named ``<schema>.r<level>`` (same column
layout, one record per component per bucket, timestamped at the bucket
start).  Range scans over a rollup container touch ``1/level`` of the
base data — the alert-evaluator and range-scanner workloads read these
instead of the raw stream.

**Component ids.**  The record format has one ``u32`` component-id
slot, so only records whose ``component_ids`` are uniform can be
stored faithfully; heterogeneous rows are rejected loudly (counted in
``multi_component_rejected``, exported via ``ldmsd_self``) rather than
silently dropping ``component_ids[1:]``.

:class:`SosReader` provides the query side (used by the analysis
modules and the query tier): iterate records in time order, or select
a ``[t0, t1)`` time range.  The index is sorted ``(timestamp, offset)``
at load — store-arrival timestamps are *not* monotone across multiple
producers or phase-staggered samplers, so the raw append order is not
binary-searchable.

**Crash recovery.**  Opening a container (base or rollup) makes its
pair whole from the tail, the data file being authoritative: cut
``.sos`` to whole records, drop a partial ``.sidx`` entry and any entry
whose record is not wholly in the data, index the records left without.
Sidecars are written to a temporary name and renamed into place; one
that is still unreadable is refused with a :class:`StoreError` naming
it (store and reader alike), never rebuilt from the record width.  A
missing sidecar beside a non-empty data file is refused the same way at
reopen, never rewritten from the incoming record.
"""

from __future__ import annotations

import bisect
import functools
import json
import mmap
import os
import struct
from array import array
from typing import BinaryIO, Callable, Iterator, NamedTuple, Optional

import numpy as np

from repro.core.store import StorePlugin, StoreRecord, register_store
from repro.util.errors import ConfigError, StoreError

__all__ = ["SosStore", "SosReader", "rollup_schema"]

_IDX_ENT = struct.Struct("<dQ")


@functools.lru_cache(maxsize=64)
def _rec_struct(card: int) -> struct.Struct:
    """The whole record of a ``card``-column container — header and
    values — as one Struct: one pack per append, one ``iter_unpack``
    per decode of a range read."""
    return struct.Struct(f"<dII{card}d")


@functools.lru_cache(maxsize=64)
def _rec_dtype(card: int) -> np.dtype:
    """:func:`_rec_struct`'s record as a packed little-endian numpy
    dtype: what a range read gathers records into."""
    return np.dtype([("ts", "<f8"), ("comp_id", "<u4"), ("card", "<u4"),
                     ("values", "<f8", (card,))])


def _recover(base: str, card: int) -> None:
    """Make a container's file pair whole (module docstring), reading
    only the tail; a clean pair is not written."""
    dtype = _rec_dtype(card)
    size = dtype.itemsize
    with open(base + ".sos", "ab+") as df, open(base + ".sidx", "ab+") as xf:
        dsize, xsize = df.seek(0, 2), xf.seek(0, 2)
        end = dsize - dsize % size
        n = xsize // _IDX_ENT.size
        start = 0  # the first record with no index entry
        while n:
            xf.seek((n - 1) * _IDX_ENT.size)
            _ts, off = _IDX_ENT.unpack(xf.read(_IDX_ENT.size))
            if off % size == 0 and off + size <= end:
                start = off + size
                break
            n -= 1
        if end < dsize:
            df.truncate(end)
        if n * _IDX_ENT.size < xsize:
            xf.truncate(n * _IDX_ENT.size)
        if start < end:
            df.seek(start)
            times = np.frombuffer(df.read(end - start), dtype)["ts"].tolist()
            xf.write(b"".join(_IDX_ENT.pack(ts, start + k * size)
                              for k, ts in enumerate(times)))


def _write_sidecar(path: str, meta: dict) -> None:
    """Write a ``.schema.json`` sidecar whole: to a temporary name,
    then renamed over ``path``, so a crash leaves no sidecar or the old
    one, never a torn one."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(meta, f)
    os.replace(tmp, path)


def _read_sidecar(path: str) -> tuple[str, ...]:
    """A sidecar's metric names.  An unreadable sidecar is refused with
    a :class:`StoreError` naming the file: the names are never rebuilt
    from the record width.  A missing one raises ``OSError``."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        names = json.loads(raw)["metrics"]
    except (ValueError, TypeError, KeyError) as exc:
        raise StoreError(f"sos: unreadable sidecar {path}: {exc!r}") from None
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise StoreError(f"sos: unreadable sidecar {path}: metrics={names!r}")
    return tuple(names)


def rollup_schema(schema: str, level: int) -> str:
    """Container name of ``schema``'s ``level``-second rollup."""
    return f"{schema}.r{int(level)}"


class _Bucket:
    """One open rollup bucket: running sums for a component."""

    __slots__ = ("start", "count", "sums")

    def __init__(self, start: float, values: list[float]):
        self.start = start
        self.count = 1
        self.sums = values

    def fold(self, values: list[float]) -> None:
        self.count += 1
        sums = self.sums
        for i, v in enumerate(values):
            sums[i] += v


@register_store("sos")
class SosStore(StorePlugin):
    """Binary time-indexed store.

    Config options
    --------------
    path:
        Container directory.
    rollups:
        Comma-separated bucket widths in whole seconds (e.g.
        ``"10,60"``); each maintains a mean-per-component rollup
        container ``<schema>.r<level>``.  Empty: no rollups.
    """

    def config(self, path: str = "", rollups: str = "", **kwargs) -> None:
        super().config(**kwargs)
        if not path:
            raise ConfigError("sos: path= is required")
        self.path = path
        os.makedirs(path, exist_ok=True)
        self._data: dict[str, BinaryIO] = {}
        self._index: dict[str, BinaryIO] = {}
        #: Container -> size of its data file: the next record's offset,
        #: carried from the size at open (a buffered file's ``tell()``
        #: is an ``lseek`` per row).
        self._ends: dict[str, int] = {}
        self._names: dict[str, tuple[str, ...]] = {}
        self._bytes = 0
        self.rollups: tuple[int, ...] = self._parse_rollups(rollups)
        #: (base schema, level) -> comp_id -> open bucket.
        self._acc: dict[tuple[str, int], dict[int, _Bucket]] = {}
        #: Schemas whose data file already held records when this
        #: session first opened them (the query tier's hot-window cache
        #: must not claim to cover rows it never saw ingested).
        self.preexisting: set[str] = set()
        #: Per-container append counter — the query tier's cache
        #: validity version.
        self.rows_written: dict[str, int] = {}
        #: Heterogeneous-component records rejected (ldmsd_self).
        self.multi_component_rejected = 0
        self._observer: Optional[Callable[[str, float, int, tuple], None]] = None

    @staticmethod
    def _parse_rollups(spec) -> tuple[int, ...]:
        if not spec:
            return ()
        if isinstance(spec, str):
            parts = [p.strip() for p in spec.split(",") if p.strip()]
        else:
            parts = list(spec)
        levels = sorted({int(p) for p in parts})
        if any(lv <= 0 for lv in levels):
            raise ConfigError(f"sos: rollup levels must be positive: {spec!r}")
        return tuple(levels)

    def set_observer(self, fn: Optional[Callable[[str, float, int, tuple], None]]) -> None:
        """Install the per-append hook (the query engine's hot-window
        feed): ``fn(container, timestamp, comp_id, values)`` fires for
        every base and rollup record written."""
        self._observer = fn

    # -- container handling -------------------------------------------------
    def _ensure(self, schema: str, names: tuple[str, ...]) -> None:
        """Open (and on reopen, validate) ``schema``'s container."""
        if schema in self._data:
            if self._names[schema] != names:
                raise StoreError(f"sos: schema {schema!r} layout changed")
            return
        base = os.path.join(self.path, schema)
        meta_path = base + ".schema.json"
        for path in [base] + [os.path.join(self.path, rollup_schema(
                schema, level)) for level in self.rollups]:
            # Records without their names: a sidecar rebuilt from the
            # incoming record would relabel (or hide) the old data.
            if (not os.path.exists(path + ".schema.json")
                    and os.path.exists(path + ".sos")
                    and os.path.getsize(path + ".sos")):
                raise StoreError(f"sos: missing sidecar {path}.schema.json "
                                 f"beside non-empty {path}.sos")
        if os.path.exists(meta_path):
            # Reopening an existing container: the on-disk sidecars (its
            # rollups' too, all checked before anything is written) are
            # the layout contract.  Appending fixed-width records of a
            # different shape would corrupt the container silently.
            rollups = (os.path.join(self.path, rollup_schema(schema, level))
                       + ".schema.json" for level in self.rollups)
            for path in [meta_path, *filter(os.path.exists, rollups)]:
                disk_names = _read_sidecar(path)
                if disk_names != names:
                    raise StoreError(
                        f"sos: schema {schema!r} layout mismatch with on-disk "
                        f"container {path}: disk={list(disk_names)} "
                        f"record={list(names)}")
            self.preexisting.add(schema)
        else:
            _write_sidecar(meta_path, {"schema": schema, "metrics": list(names)})
        self._open(schema, names)

    def _open(self, schema: str, names: tuple[str, ...]) -> None:
        base = os.path.join(self.path, schema)
        _recover(base, len(names))
        df = self._data[schema] = open(base + ".sos", "ab")
        self._index[schema] = open(base + ".sidx", "ab")
        self._ends[schema] = df.tell()
        self._names[schema] = names

    def _handle(self, record: StoreRecord) -> str:
        self._ensure(record.schema, record.names)
        return record.schema

    # -- write path ---------------------------------------------------------
    def _append(self, schema: str, ts: float, comp_id: int,
                values: list[float]) -> None:
        card = len(values)
        rec = _rec_struct(card)
        offset = self._ends[schema]
        self._data[schema].write(rec.pack(ts, comp_id, card, *values))
        self._index[schema].write(_IDX_ENT.pack(ts, offset))
        self._ends[schema] = offset + rec.size
        self._bytes += rec.size + _IDX_ENT.size
        self.rows_written[schema] = self.rows_written.get(schema, 0) + 1
        if self._observer is not None:
            self._observer(schema, ts, comp_id, tuple(values))

    def store(self, record: StoreRecord) -> None:
        schema = self._handle(record)
        comps = record.component_ids
        comp_id = comps[0] if comps else 0
        if comps and any(c != comp_id for c in comps):
            # One u32 component slot per record: a row spanning several
            # components cannot be stored faithfully — reject loudly
            # instead of silently dropping component_ids[1:].
            self.multi_component_rejected += 1
            raise StoreError(
                f"sos: record for {record.set_name!r} spans component ids "
                f"{sorted(set(comps))}; the SOS record format holds one"
            )
        values = [float(v) for v in record.values]
        self._append(schema, record.timestamp, comp_id, values)
        for level in self.rollups:
            self._roll(schema, level, record.timestamp, comp_id, values)

    def _roll(self, schema: str, level: int, ts: float, comp_id: int,
              values: list[float]) -> None:
        start = ts // level * level
        comps = self._acc.setdefault((schema, level), {})
        bucket = comps.get(comp_id)
        if bucket is None:
            comps[comp_id] = _Bucket(start, list(values))
            return
        if bucket.start == start:
            bucket.fold(values)
            return
        # Bucket boundary crossed (or an out-of-order straggler landed
        # outside the open bucket): seal the open bucket and start a
        # fresh one.  Readers sort by timestamp, so sealing order does
        # not need to be time order.
        self._seal(schema, level, comp_id, bucket)
        comps[comp_id] = _Bucket(start, list(values))

    def _seal(self, schema: str, level: int, comp_id: int,
              bucket: _Bucket) -> None:
        target = rollup_schema(schema, level)
        if target not in self._data:
            base = os.path.join(self.path, target)
            meta_path = base + ".schema.json"
            names = self._names[schema]
            if not os.path.exists(meta_path):
                _write_sidecar(meta_path, {
                    "schema": target, "metrics": list(names), "base": schema,
                    "level": level, "agg": "mean"})
            self._open(target, names)
        mean = [s / bucket.count for s in bucket.sums]
        self._append(target, bucket.start, comp_id, mean)

    def flush(self) -> None:
        for f in list(self._data.values()) + list(self._index.values()):
            f.flush()

    def close(self) -> None:
        # Seal every open rollup bucket (deterministic order) so the
        # tail of the stream is queryable after shutdown.
        for (schema, level) in sorted(self._acc):
            comps = self._acc[(schema, level)]
            for comp_id in sorted(comps):
                self._seal(schema, level, comp_id, comps[comp_id])
        self._acc.clear()
        self.flush()
        for f in list(self._data.values()) + list(self._index.values()):
            f.close()
        self._data.clear()
        self._index.clear()

    def bytes_written(self) -> int:
        return self._bytes


class SosRecord(NamedTuple):
    timestamp: float
    component_id: int
    values: tuple[float, ...]


#: ``SosRecord(...)`` without the NamedTuple's Python-level ``__new__``
#: (a fifth of the per-row cost of a bulk range read).
_new_record = tuple.__new__


class SosReader:
    """Reads one schema's SOS container, in timestamp order.

    The on-disk index is append-ordered, and arrival timestamps are not
    monotone across producers — the index is sorted ``(timestamp,
    offset)`` at load (stable: equal timestamps keep append order), so
    both iteration and :meth:`range` see time order.  :meth:`refresh`
    folds in entries appended since the last load, letting a serving
    tier keep one reader per container instead of re-reading the whole
    index per query.

    Records are fixed-width, so every read is one gather (:meth:`block`):
    the selected records, in any file order, are fancy-indexed out of a
    read-only map of the data file into one :func:`_rec_dtype` array.
    An entry is skipped, and counted in :attr:`skipped`, unless its
    offset is on the record grid, its record lies wholly in the file
    and its ``card`` is the sidecar's.  :meth:`range` and iteration
    decode the block into :class:`SosRecord` at the edge.
    """

    def __init__(self, path: str, schema: str):
        base = os.path.join(path, schema)
        self.schema = schema
        self.metric_names = list(_read_sidecar(base + ".schema.json"))
        self._rec = _rec_struct(len(self.metric_names))
        self._dtype = _rec_dtype(len(self.metric_names))
        self._data_path = base + ".sos"
        self._idx_path = base + ".sidx"
        self._times: list[float] = []
        self._offsets = array("Q")  # a slice is a gather's index array
        self._idx_consumed = 0
        #: Index entries the last read skipped (see above).
        self.skipped = 0
        self.refresh()

    def refresh(self) -> int:
        """Load index entries appended since construction (or the last
        refresh); returns how many were added."""
        try:
            with open(self._idx_path, "rb") as f:
                f.seek(self._idx_consumed)
                raw = f.read()
        except OSError:
            return 0
        n = len(raw) // _IDX_ENT.size
        if n == 0:
            return 0
        tail = list(_IDX_ENT.iter_unpack(raw[: n * _IDX_ENT.size]))
        self._idx_consumed += n * _IDX_ENT.size
        if not (self._times and tail[0][0] >= self._times[-1] and tail == sorted(tail)):
            tail = sorted([*zip(self._times, self._offsets), *tail])
            self._times, self._offsets = [], array("Q")
        self._times.extend(t for t, _ in tail)
        self._offsets.extend(off for _, off in tail)
        return n

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[SosRecord]:
        return iter(self._decode(self._gather(self._offsets)))

    def range(self, t0: float, t1: float) -> list[SosRecord]:
        """Records with t0 <= timestamp < t1, via the sorted index."""
        return self._decode(self.block(t0, t1))

    def block(self, t0: float, t1: float) -> np.ndarray:
        """:meth:`range` as one structured array of the record dtype,
        which owns its bytes."""
        lo = bisect.bisect_left(self._times, t0)
        hi = bisect.bisect_left(self._times, t1)
        return self._gather(self._offsets[lo:hi])

    def _gather(self, offsets: array) -> np.ndarray:
        dtype = self._dtype
        size = dtype.itemsize
        at = np.frombuffer(offsets, np.uint64)
        recs = np.empty(0, dtype)
        with open(self._data_path, "rb") as f:
            nrec = os.fstat(f.fileno()).st_size // size
            at = at[at % size == 0] // size
            at = at[at < nrec]
            if len(at):  # records gathered as opaque items: a memcpy each
                with mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as mm:
                    recs = np.frombuffer(mm, f"V{size}", nrec)[at].view(dtype)
        recs = recs[recs["card"] == len(self.metric_names)]
        self.skipped = len(offsets) - len(recs)
        return recs

    def _decode(self, recs: np.ndarray) -> list[SosRecord]:
        return [_new_record(SosRecord, (r[0], r[1], r[3:]))
                for r in self._rec.iter_unpack(recs.tobytes())]
