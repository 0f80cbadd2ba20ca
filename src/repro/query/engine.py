"""The aggregator-side query engine: SOS range scans, cached.

Serving structure (the CMS monitoring workload, PAPERS.md):

* **Hot window** — dashboard pollers overwhelmingly ask for the last
  few seconds of data.  Every record the attached
  :class:`~repro.plugins.stores.sos.SosStore` appends (base and
  rollup) also lands in a bounded per-container window kept *sorted by
  timestamp* and *already wire-encoded*: a list of timestamps beside
  one ``bytearray`` of ``QUERY_REPLY`` rows, each packed once, at
  ingest.  A query whose window lies entirely inside the covered span
  is two bisects and one buffer slice — no container file, no filter
  pass, no sort, no per-row object, no per-reply packing.
* **LRU result cache** — repeated identical queries (alert evaluators
  re-checking a rollup window, several dashboards showing one panel)
  return the cached row set: one :class:`~repro.core.wire.RowBlock`
  that :func:`scan` fills from the container with no per-row Python, so
  a hit packs nothing and an entry holds one ``bytes``.  Validity is by
  append-version: the store counts appends per container, and a cached
  entry is good only while its container's count is unchanged, so a
  cache hit can never serve a stale row set.
* **Rollup redirection** — ``level=N`` queries read the
  ``<schema>.rN`` rollup container maintained on ingest, touching
  ``1/N`` of the base data.

The engine is DES-pure: time comes from the injected ``clock``
callable (``env.now``), there is no ambient randomness, and every
data structure iterates in a deterministic order — required for the
same-seed byte-identical replay the experiments assert.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core import wire
from repro.plugins.stores.sos import SosReader, SosStore, rollup_schema
from repro.util.errors import StoreError

__all__ = ["QueryEngine", "QueryResult", "scan"]

_INF = float("inf")


def scan(reader: SosReader, t0: float, t1: float, comp_id: int = 0,
         max_records: int = 0) -> tuple[wire.RowBlock, bool]:
    """``reader``'s ``[t0, t1)`` records of ``comp_id`` (0: all), cut at
    ``max_records`` (0: no cut), as one row block that owns its bytes,
    and whether it was cut."""
    recs = reader.block(t0, t1)
    if comp_id:
        recs = recs[recs["comp_id"] == comp_id]
    truncated = bool(max_records) and len(recs) > max_records
    if truncated:
        recs = recs[:max_records]
    ncols = len(reader.metric_names)
    rows = np.empty(len(recs), wire.query_row_dtype(ncols))
    for field in ("ts", "comp_id", "values"):
        rows[field] = recs[field]
    return wire.RowBlock.of(ncols, rows.tobytes()), truncated


@dataclass(frozen=True)
class QueryResult:
    """One answered query: wire status, column names, and the packed
    rows of ``(timestamp, comp_id, values)`` in ``(timestamp, append)``
    order."""

    status: int
    names: tuple[str, ...]
    rows: wire.RowBlock
    cache_hit: bool = False
    truncated: bool = False
    #: Which path answered: "hot", "lru", "scan", or "noent".
    source: str = "scan"

    def flags(self) -> int:
        f = 0
        if self.truncated:
            f |= wire.QUERY_TRUNCATED
        if self.cache_hit:
            f |= wire.QUERY_CACHE_HIT
        return f


class _HotWindow:
    """One container's recent appends sorted by timestamp (equal
    timestamps in append order): ``times[i]`` stamps the ``row``-sized
    ``QUERY_REPLY`` group at ``buf[i * row.size]``."""

    __slots__ = ("times", "buf", "row", "floor")

    def __init__(self, ncols: int, floor: float):
        self.times: list[float] = []
        self.buf = bytearray()
        self.row = wire.query_row_struct(ncols)
        #: Oldest timestamp the window still fully covers.  -inf while
        #: it has seen every row the container ever held (it was empty
        #: when the store opened it); +inf while a pre-existing
        #: container may hold rows that were never ingested here.
        self.floor = floor


class QueryEngine:
    """Range-query service over one live :class:`SosStore`."""

    def __init__(self, store: SosStore, clock: Callable[[], float],
                 obs=None, hot_window: float = 60.0,
                 cache_entries: int = 128):
        if obs is None:
            from repro.obs.registry import Telemetry

            obs = Telemetry()
        self.store = store
        self.clock = clock
        self.hot_window = float(hot_window)
        self.cache_entries = int(cache_entries)
        self._hot: dict[str, _HotWindow] = {}
        #: query key -> (container append-version, QueryResult).
        self._lru: "OrderedDict[tuple, tuple[int, QueryResult]]" = OrderedDict()
        self._readers: dict[str, SosReader] = {}
        self._c_requests = obs.counter("query.requests")
        self._c_hits = obs.counter("query.cache_hits")
        self._c_misses = obs.counter("query.cache_misses")
        self._c_rows = obs.counter("query.rows_served")
        store.set_observer(self._ingest)

    # -- ingest side --------------------------------------------------------
    def _ingest(self, container: str, ts: float, comp_id: int,
                values: tuple) -> None:
        hot = self._hot.get(container)
        if hot is None:
            hot = self._hot[container] = _HotWindow(
                len(values),
                _INF if container in self.store.preexisting else -_INF)
        times = hot.times
        blob = hot.row.pack(ts, comp_id, *values)
        if not times or ts >= times[-1]:
            times.append(ts)
            hot.buf += blob
        else:
            # Out-of-order straggler: after every row of the same
            # timestamp, which is where a stable sort would leave it.
            i = bisect_right(times, ts)
            times.insert(i, ts)
            at = i * len(blob)
            hot.buf[at:at] = blob
        cutoff = ts - self.hot_window
        if times[0] < cutoff:
            n = bisect_left(times, cutoff)
            del times[:n], hot.buf[: n * len(blob)]
            # Everything at or above the cutoff arrived after attach
            # (nothing older ever sat in the window), so from here the
            # window is authoritative for [cutoff, now].  The floor only
            # rises: a straggler that sorts below it must not pull it
            # back over a span whose rows are already gone.
            if hot.floor == _INF or cutoff > hot.floor:
                hot.floor = cutoff

    # -- query side ---------------------------------------------------------
    def query(self, schema: str, t0: float, t1: float, level: int = 0,
              comp_id: int = 0, max_records: int = 0) -> QueryResult:
        self._c_requests.inc()
        container = rollup_schema(schema, level) if level else schema
        version = self.store.rows_written.get(container, 0)
        key = (container, t0, t1, comp_id, max_records)
        cached = self._lru.get(key)
        if cached is not None and cached[0] == version:
            self._lru.move_to_end(key)
            self._c_hits.inc()
            res = cached[1]
            self._c_rows.inc(len(res.rows))
            if res.source != "lru":
                res = QueryResult(res.status, res.names, res.rows,
                                  cache_hit=True, truncated=res.truncated,
                                  source="lru")
                self._lru[key] = (version, res)
            return res

        hot = self._hot.get(container)
        if hot is not None and t0 >= hot.floor:
            sz = hot.row.size
            lo = bisect_left(hot.times, t0) * sz
            hi = bisect_left(hot.times, t1) * sz
            names = tuple(self.store._names.get(container, ()))
            rows = wire.RowBlock.of(len(names), bytes(hot.buf[lo:hi]))
            if comp_id:
                rows = rows.take([i for i, c in enumerate(rows.comp_ids())
                                  if c == comp_id])
            truncated = bool(max_records) and len(rows) > max_records
            if truncated:
                rows = rows[:max_records]
            self._c_hits.inc()
            self._c_rows.inc(len(rows))
            return QueryResult(wire.E_OK, names, rows, cache_hit=True,
                               truncated=truncated, source="hot")

        self._c_misses.inc()
        res = self._scan(container, t0, t1, comp_id, max_records)
        self._c_rows.inc(len(res.rows))
        if res.status == wire.E_OK:
            self._lru[key] = (version, res)
            while len(self._lru) > self.cache_entries:
                self._lru.popitem(last=False)
        return res

    def _scan(self, container: str, t0: float, t1: float, comp_id: int,
              max_records: int) -> QueryResult:
        self.store.flush()
        reader = self._readers.get(container)
        if reader is None:
            try:
                reader = SosReader(self.store.path, container)
            except (OSError, StoreError):  # missing, or an unreadable sidecar
                return QueryResult(wire.E_NOENT, (), wire.RowBlock.of(0),
                                   source="noent")
            self._readers[container] = reader
        else:
            reader.refresh()
        rows, truncated = scan(reader, t0, t1, comp_id, max_records)
        return QueryResult(wire.E_OK, tuple(reader.metric_names), rows,
                           truncated=truncated, source="scan")

    # -- introspection ------------------------------------------------------
    def stats(self) -> dict:
        return {
            "requests": self._c_requests.value,
            "cache_hits": self._c_hits.value,
            "cache_misses": self._c_misses.value,
            "rows_served": self._c_rows.value,
            "lru_entries": len(self._lru),
            "hot_containers": len(self._hot),
        }
