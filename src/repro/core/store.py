"""Store plugin framework.

Storage plugins run on aggregators and write collected metric sets to
stable storage (paper §IV-A/B).  The aggregator hands each successfully
updated, *consistent*, *fresh* (DGN advanced) set to every store whose
policy matches; stale or torn collections are never stored.

Storage may be specified at a {producer, metric name} granularity,
though the typical case is per metric set/schema (§IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.core.metric import MetricType
from repro.core.metric_set import MetricSet
from repro.util.errors import ConfigError, StoreError

__all__ = ["StoreRecord", "StorePolicy", "StorePlugin", "store_registry", "register_store"]


@dataclass(frozen=True)
class StoreRecord:
    """One stored collection event: a timestamped row of a metric set."""

    timestamp: float
    producer: str
    set_name: str
    schema: str
    names: tuple[str, ...]
    component_ids: tuple[int, ...]
    values: tuple[float | int, ...]
    #: Per-column value types (None for hand-built records).  A store
    #: compiles one row codec per distinct tuple — keyed by the tuple,
    #: never by schema name: a set re-created with new types keeps its
    #: metric names — instead of type-dispatching on every value.
    #: Every record of one compiled layout carries the same object.
    mtypes: Optional[tuple[MetricType, ...]] = None

    @classmethod
    def from_set(cls, mset: MetricSet, producer: str) -> "StoreRecord":
        # names/component_ids/mtypes are frozen with the schema, so the
        # per-collection cost is just the timestamp and the bulk decode.
        return cls(
            timestamp=mset.timestamp,
            producer=producer,
            set_name=mset.name,
            schema=mset.schema,
            names=mset._names,
            component_ids=mset._comp_ids,
            values=mset.values_tuple(),
            mtypes=mset.metric_types(),
        )

    def filtered(self, metric_names: Iterable[str]) -> "StoreRecord":
        """Project onto a subset of metrics (per-metric-name policies)."""
        wanted = set(metric_names)
        idx = [i for i, n in enumerate(self.names) if n in wanted]
        missing = wanted - {self.names[i] for i in idx}
        if missing:
            raise ConfigError(f"metrics not in set {self.set_name!r}: {sorted(missing)}")
        return StoreRecord(
            timestamp=self.timestamp,
            producer=self.producer,
            set_name=self.set_name,
            schema=self.schema,
            names=tuple(self.names[i] for i in idx),
            component_ids=tuple(self.component_ids[i] for i in idx),
            values=tuple(self.values[i] for i in idx),
            mtypes=(tuple(self.mtypes[i] for i in idx)
                    if self.mtypes is not None else None),
        )


@dataclass
class StorePolicy:
    """Which collections a store instance receives.

    ``schema`` limits to one schema (the typical case); ``producers``
    and ``metrics`` optionally narrow to specific producers / metric
    names (the {producer, metric name} granularity in §IV-C).
    """

    schema: Optional[str] = None
    producers: Optional[frozenset[str]] = None
    metrics: Optional[tuple[str, ...]] = None

    def matches(self, record: StoreRecord) -> bool:
        return self.matches_keys(record.schema, record.producer)

    def matches_keys(self, schema: str, producer: str) -> bool:
        """Match on the raw policy inputs without a materialized record.

        The columnar flush path stages raw arena rows and only builds
        :class:`StoreRecord` objects inside the batch drain; since the
        policy depends solely on (schema, producer) — both frozen per
        mirror — staging can route rows (and cache the answer) without
        decoding them.
        """
        if self.schema is not None and schema != self.schema:
            return False
        if self.producers is not None and producer not in self.producers:
            return False
        return True

    def project(self, record: StoreRecord) -> StoreRecord:
        return record.filtered(self.metrics) if self.metrics is not None else record


class StorePlugin:
    """Base class for store plugins.

    Subclasses implement :meth:`store` (buffered write of one record),
    :meth:`flush`, and :meth:`close`.  ``config`` receives plugin
    specific parameters (path, container name, ...).
    """

    plugin_name: str = "abstract"

    def __init__(self) -> None:
        self.policy = StorePolicy()
        self.records_stored = 0
        self.records_failed = 0
        self.records_dropped = 0
        self.last_error: Optional[str] = None
        self.configured = False
        #: Fault-injection switch (``store_fail`` events): while set,
        #: every write raises as if the backend were down.
        self.fail_writes = False

    def config(self, **kwargs) -> None:
        self.configured = True

    def wants(self, record: StoreRecord) -> bool:
        return self.policy.matches(record)

    def submit(self, record: StoreRecord) -> None:
        """Policy-filter then store.

        A record the policy rejects counts as *dropped*; a ``store()``
        that raises counts as *failed* and re-raises as
        :class:`~repro.util.errors.StoreError` so the caller has one
        narrow type to catch.  Both counters surface in
        ``Ldmsd.stats()`` next to ``records_stored``.
        """
        if not self.wants(record):
            self.records_dropped += 1
            return
        if self.fail_writes:
            self.records_failed += 1
            self.last_error = "injected write failure"
            raise StoreError(f"{self.plugin_name}: injected write failure")
        try:
            self.store(self.policy.project(record))
        except Exception as exc:
            self.records_failed += 1
            self.last_error = str(exc)
            raise StoreError(f"{self.plugin_name}: {exc}") from exc
        self.records_stored += 1

    def submit_many(self, records: list[StoreRecord]) -> int:
        """Policy-filter then store a whole batch; returns failed count.

        The vectorized flush path: one flush-thread wakeup hands every
        buffered record to the plugin at once, so per-call overhead
        (policy checks aside) is paid per *batch* via
        :meth:`store_many`.  Counter semantics match per-record
        ``submit``: rejects count as dropped, failures as failed.  A
        ``store_many`` that raises fails the whole remaining batch —
        plugins wanting per-row granularity override ``store_many``.
        """
        if self.fail_writes:
            n = len(records)
            self.records_failed += n
            self.last_error = "injected write failure"
            return n
        policy = self.policy
        todo = []
        for record in records:
            if not policy.matches(record):
                self.records_dropped += 1
                continue
            todo.append(policy.project(record))
        if not todo:
            return 0
        try:
            self.store_many(todo)
        except Exception as exc:
            self.records_failed += len(todo)
            self.last_error = str(exc)
            return len(todo)
        self.records_stored += len(todo)
        return 0

    def store(self, record: StoreRecord) -> None:
        raise NotImplementedError

    def store_many(self, records: list[StoreRecord]) -> None:
        """Write a batch of already-filtered records (override to
        vectorize; the default just loops :meth:`store`)."""
        for record in records:
            self.store(record)

    def flush(self) -> None:
        """Push buffered data to stable storage."""

    def close(self) -> None:
        self.flush()

    # -- introspection for footprint accounting -----------------------------
    def bytes_written(self) -> int:
        """Total bytes this store has written (0 if not applicable)."""
        return 0


#: plugin name -> plugin class
store_registry: dict[str, type[StorePlugin]] = {}


def register_store(name: str) -> Callable[[type], type]:
    def deco(cls: type) -> type:
        if name in store_registry:
            raise ConfigError(f"store plugin {name!r} already registered")
        cls.plugin_name = name
        store_registry[name] = cls
        return cls

    return deco
