"""In-memory store with a small query API.

Plays the role LDMS's MySQL store plays in the paper's deployments: a
queryable backend the analysis layer reads (the NCSA ISC database role,
§IV-F).  Also the store of choice in tests and the simulator's
experiments, where rows feed straight into NumPy (imported by those
queries, not with the module: storing never loads it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.core.store import StorePlugin, StoreRecord, register_store

if TYPE_CHECKING:
    import numpy as np

__all__ = ["MemoryStore"]


@register_store("memory")
class MemoryStore(StorePlugin):
    """Keeps every record; provides per-metric time-series extraction.

    Config options
    --------------
    max_rows:
        Retention cap; when set, the oldest rows are evicted (counted
        into ``records_dropped``) as new ones arrive.  Default: keep
        everything, which is what tests and the analysis layer want.
    """

    def config(self, max_rows=None, **kwargs) -> None:
        super().config(**kwargs)
        self.rows: list[StoreRecord] = []
        self.max_rows = int(max_rows) if max_rows is not None else None
        if self.max_rows is not None and self.max_rows < 1:
            raise ValueError("memory store: max_rows must be >= 1")

    def store(self, record: StoreRecord) -> None:
        self.rows.append(record)
        if self.max_rows is not None and len(self.rows) > self.max_rows:
            evict = len(self.rows) - self.max_rows
            del self.rows[:evict]
            self.records_dropped += evict

    def store_many(self, records: list[StoreRecord]) -> None:
        """Vectorized append: one extend + one eviction pass per batch."""
        self.rows.extend(records)
        if self.max_rows is not None and len(self.rows) > self.max_rows:
            evict = len(self.rows) - self.max_rows
            del self.rows[:evict]
            self.records_dropped += evict

    def flush(self) -> None:
        """No-op: rows are already durable to the store's consumers.

        Memory *is* this store's backend (the query API below reads
        ``self.rows`` directly), so there is nothing to push further;
        retention is bounded by ``max_rows``, not by flushing.
        """

    # -- queries ---------------------------------------------------------
    def producers(self) -> list[str]:
        return sorted({r.producer for r in self.rows})

    def set_names(self) -> list[str]:
        return sorted({r.set_name for r in self.rows})

    def component_ids(self) -> list[int]:
        return sorted({c for r in self.rows for c in set(r.component_ids)})

    def select(
        self,
        schema: str | None = None,
        producer: str | None = None,
        set_name: str | None = None,
        t0: float | None = None,
        t1: float | None = None,
    ) -> list[StoreRecord]:
        def keep(r: StoreRecord) -> bool:
            if schema is not None and r.schema != schema:
                return False
            if producer is not None and r.producer != producer:
                return False
            if set_name is not None and r.set_name != set_name:
                return False
            if t0 is not None and r.timestamp < t0:
                return False
            if t1 is not None and r.timestamp >= t1:
                return False
            return True

        return [r for r in self.rows if keep(r)]

    def series(
        self,
        metric: str,
        schema: str | None = None,
        producer: str | None = None,
        set_name: str | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(timestamps, values) arrays for one metric.

        Filter by ``producer`` (who the aggregator pulled from) or by
        ``set_name`` (which survives multi-level aggregation — set
        names are origin-unique, e.g. ``"n0/meminfo"``).
        """
        import numpy as np

        ts, vs = [], []
        for r in self.select(schema=schema, producer=producer, set_name=set_name):
            try:
                i = r.names.index(metric)
            except ValueError:
                continue
            ts.append(r.timestamp)
            vs.append(r.values[i])
        return np.asarray(ts, dtype=np.float64), np.asarray(vs, dtype=np.float64)

    def matrix(
        self,
        metric: str,
        set_names: Iterable[str] | None = None,
        producers: Iterable[str] | None = None,
        schema: str | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(times, rows x times value grid) for one metric.

        Rows are keyed by set name (default) or by producer.  Times are
        the union of observed timestamps rounded to 1 ms; missing
        samples are NaN.  This is the node x time layout the paper's
        Figs. 9-12 plot.
        """
        import numpy as np

        if (set_names is None) == (producers is None):
            raise ValueError("pass exactly one of set_names / producers")
        if set_names is not None:
            keys = list(set_names)
            series = {k: self.series(metric, schema=schema, set_name=k) for k in keys}
        else:
            keys = list(producers)
            series = {k: self.series(metric, schema=schema, producer=k) for k in keys}
        all_t = sorted({round(float(t), 3) for ts, _ in series.values() for t in ts})
        t_index = {t: j for j, t in enumerate(all_t)}
        grid = np.full((len(keys), len(all_t)), np.nan)
        for i, k in enumerate(keys):
            ts, vs = series[k]
            for t, v in zip(ts, vs):
                grid[i, t_index[round(float(t), 3)]] = v
        return np.asarray(all_t), grid
