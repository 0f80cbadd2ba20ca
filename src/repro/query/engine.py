"""The aggregator-side query engine: SOS range scans, cached.

Serving structure (the CMS monitoring workload, PAPERS.md):

* **Hot window** — dashboard pollers overwhelmingly ask for the last
  few seconds of data.  Every record the attached
  :class:`~repro.plugins.stores.sos.SosStore` appends (base and
  rollup) also lands in a bounded per-container window kept *sorted by
  timestamp* and *already wire-encoded*: the row's ``QUERY_REPLY`` bytes
  are packed once, at ingest, and every poller that asks is handed the
  same bytes.  A query whose window lies entirely inside the covered
  span is two bisects and two list slices — no container file, no
  filter pass, no sort, no per-reply packing.
* **LRU result cache** — repeated identical queries (alert evaluators
  re-checking a rollup window, several dashboards showing one panel)
  return the cached row set.  Validity is by append-version: the store
  counts appends per container, and a cached entry is good only while
  its container's count is unchanged, so a cache hit can never serve a
  stale row set.
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
from typing import Callable, Optional, Sequence

from repro.core import wire
from repro.plugins.stores.sos import SosReader, SosStore, rollup_schema

__all__ = ["QueryEngine", "QueryResult"]

_INF = float("inf")


@dataclass(frozen=True)
class QueryResult:
    """One answered query: wire status, column names, and rows of
    ``(timestamp, comp_id, values)`` in ``(timestamp, append)`` order."""

    status: int
    names: tuple[str, ...]
    rows: Sequence[tuple] = ()
    cache_hit: bool = False
    truncated: bool = False
    #: Which path answered: "hot", "lru", "scan", or "noent".
    source: str = "scan"
    #: ``rows`` as wire bytes, one blob per row — hot-window answers
    #: only (the window owns the blobs; results the LRU retains never
    #: carry a second copy of their rows).
    encoded: Optional[list] = None

    def flags(self) -> int:
        f = 0
        if self.truncated:
            f |= wire.QUERY_TRUNCATED
        if self.cache_hit:
            f |= wire.QUERY_CACHE_HIT
        return f


class _HotWindow:
    """One container's recent appends: three parallel lists sorted by
    timestamp (equal timestamps in append order)."""

    __slots__ = ("times", "rows", "encoded", "pack", "floor")

    def __init__(self, ncols: int, floor: float):
        self.times: list[float] = []
        self.rows: list[tuple] = []  # (ts, comp_id, values)
        self.encoded: list[bytes] = []  # the same rows as QUERY_REPLY bytes
        self.pack = wire.query_row_struct(ncols).pack
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

            obs = Telemetry(enabled=False)
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
        row = (ts, comp_id, values)
        blob = hot.pack(ts, comp_id, *values)
        if not times or ts >= times[-1]:
            times.append(ts)
            hot.rows.append(row)
            hot.encoded.append(blob)
        else:
            # Out-of-order straggler: after every row of the same
            # timestamp, which is where a stable sort would leave it.
            i = bisect_right(times, ts)
            times.insert(i, ts)
            hot.rows.insert(i, row)
            hot.encoded.insert(i, blob)
        cutoff = ts - self.hot_window
        if times[0] < cutoff:
            n = bisect_left(times, cutoff)
            del times[:n], hot.rows[:n], hot.encoded[:n]
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
            times = hot.times
            lo = bisect_left(times, t0)
            hi = bisect_left(times, t1)
            rows = hot.rows[lo:hi]
            encoded = hot.encoded[lo:hi]
            if comp_id:
                keep = [i for i, r in enumerate(rows) if r[1] == comp_id]
                rows = [rows[i] for i in keep]
                encoded = [encoded[i] for i in keep]
            truncated = bool(max_records) and len(rows) > max_records
            if truncated:
                del rows[max_records:], encoded[max_records:]
            names = self.store._names.get(container, ())
            self._c_hits.inc()
            self._c_rows.inc(len(rows))
            return QueryResult(wire.E_OK, tuple(names), rows,
                               cache_hit=True, truncated=truncated,
                               source="hot", encoded=encoded)

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
            except OSError:
                return QueryResult(wire.E_NOENT, (), source="noent")
            self._readers[container] = reader
        else:
            reader.refresh()
        # A SosRecord *is* a (timestamp, comp_id, values) row.
        rows = reader.range(t0, t1)
        if comp_id:
            rows = [r for r in rows if r.component_id == comp_id]
        truncated = bool(max_records) and len(rows) > max_records
        if truncated:
            del rows[max_records:]
        return QueryResult(wire.E_OK, tuple(reader.metric_names),
                           tuple(rows), truncated=truncated, source="scan")

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
