"""The ldmsd daemon.

One multi-threaded daemon codebase covers both roles (paper §IV-B: "the
host daemon is the same base code in all cases; differentiation is
based on configuration"):

* **sampler mode** — load sampler plugins, publish their metric sets,
  serve DIR/LOOKUP and one-sided data reads to aggregators;
* **aggregator mode** — add producers to pull from, mirror their sets,
  validate updates, and feed store plugins.  Aggregated mirrors are
  themselves published, so aggregators daisy-chain to any depth.

Thread pools (§IV-B): a common *worker* pool runs sampling and update
completion, a separate *connection* pool performs connection setup (so
hosts hung in connect timeout cannot starve collection), and a *flush*
pool writes to stores.

The daemon runs identically on real threads (``RealEnv`` — used by the
examples over real TCP) and inside the discrete-event simulator
(``SimEnv`` — used for cluster-scale studies).
"""

from __future__ import annotations

import dataclasses
import threading
from functools import partial
from types import MappingProxyType
from typing import Any, NamedTuple, Optional

from repro.core import sanitize, wire
from repro.core.aggregator import Dialer, Producer, ProducerConfig
from repro.core.env import Env, RealEnv, SimEnv, WorkerPool
from repro.core.memory import Arena
from repro.core.metric_set import MetricSet, SetInfo, SetTemplate
from repro.core.sampler import SamplerPlugin, sampler_registry
from repro.core.store import (StorePlugin, StorePolicy, StoreRecord, record_of,
                              store_registry)
from repro.obs import FreshnessTracker, Histogram, SpanRecorder, Telemetry
from repro.obs.spans import HOP_SAMPLE, HOP_STORE, UpdateSpan
from repro.sim.resources import CpuCore
from repro.transport.base import Endpoint, Listener, Transport
from repro.util.errors import ConfigError, OutOfMemory, WireError
from repro.util.units import parse_size

__all__ = ["Ldmsd"]

#: Simulated CPU cost of processing one completed update (validation +
#: record construction), excluding transport costs.
UPDATE_CPU_COST = 5e-6
#: Simulated CPU cost of one connection-setup attempt.
CONNECT_CPU_COST = 50e-6
#: Simulated store cost: per record base + per metric formatting cost.
STORE_BASE_COST = 10e-6
STORE_PER_METRIC_COST = 4e-6
#: Upper bound on rows drained per flush-task wakeup (bounds the
#: in-memory batch buffer).
FLUSH_BATCH_MAX = 256
#: Simulated query-serving cost: per request base (parse + index
#: bisect) + per returned row (record decode + serialization).  The
#: query runs on the worker pool, so p95/p99 under load reflect pool
#: contention with the update pipeline.
QUERY_BASE_COST = 20e-6
QUERY_PER_ROW_COST = 0.2e-6

#: Every count a daemon derives or binds by role (``add_store`` /
#: ``enable_query``) or looks up by name on a cold path, and every
#: histogram it binds.  Declared to the registry at birth, so ``stats()``
#: / ``prof`` list all of them, zeroed, whatever roles the daemon has
#: taken — schema-stable for pollers without an object per name on
#: every sampler.
_OBS_COUNTERS = (
    "arena.fallback_sets", "arena.rows_vectorized", "arena.sweeps",
    "sampler.overruns", "sampler.samples", "serve.dir_req",
    "serve.lookup_req", "serve.query_req", "set.create_failed", "store.errors",
    "store.flush_rows_batched", "store.no_match", "wire.malformed_frames")
_OBS_HISTOGRAMS = (
    "pipeline.sample_to_store", "sample.duration", "serve.query",
    "store.flush", "store.flush_batch_rows")


#: Shared read-only empties for aggregator, store and advertise state,
#: which most daemons (samplers) never take: a role's first write makes
#: its own (the ``_NO_WAITERS`` idiom of :mod:`repro.core.env`).
_NO_ENTRIES: Any = MappingProxyType({})
_NO_STORES: Any = ()
_NO_FRESHNESS = FreshnessTracker()
#: Endpoint fields behind the daemon's ``transport.*`` counts.
_ENDPOINT_COUNTS = (("transport.frames_rx", "frames_received"),
                    ("transport.bytes_rx", "bytes_received"),
                    ("transport.rdma_reads", "rdma_reads"),
                    ("transport.rdma_bytes", "rdma_bytes_read"))
#: Producer ``UpdateStats`` fields behind the daemon's ``update.*`` counts.
_UPDATE_COUNTS = (("update.failed", "updates_failed"),
                  ("update.skipped_busy", "skipped_busy"),
                  ("update.skipped_inconsistent", "skipped_inconsistent"),
                  ("update.skipped_stale", "skipped_stale"))


def _check_interval(interval: float) -> None:
    """Refuse a sampling or update period that no timer can keep."""
    if not 0.0 < interval < float("inf"):
        raise ConfigError(f"interval must be positive and finite, got {interval!r}")


class _PendingRow:
    """One store delivery awaiting its flush, shared by every store the
    delivery was routed to.

    The delivery stages the data chunk and defers record construction
    to the flush drain, which decodes each row with one compiled
    ``struct`` unpack.  ``data`` is the immutable ``bytes`` the read
    returned, so a mirror re-installed before the flush drains cannot
    change what gets stored.  A row ``shared`` by several stores
    has one record slot: the first drain to reach it fills ``record``
    and every other store's drain reuses it, so the row is decoded once
    (two real flush threads racing to fill it decode the same bytes to
    equal records).  An unshared row's slot stays empty: filling it
    anyway measured ~5 % more CPU per set on ``wide_store`` (2-core
    host).  ``card`` prices the row in :meth:`_FlushBatch.seal`.
    """

    __slots__ = ("record", "shared", "data", "ts", "producer", "mirror",
                 "card", "t_submit", "span")

    def __init__(self, data: bytes, ts: float, producer: str,
                 mirror: MetricSet, t_submit: float,
                 span: Optional[UpdateSpan], shared: bool):
        self.record: Optional[StoreRecord] = None
        self.shared = shared
        self.data = data
        self.ts = ts
        self.producer = producer
        self.mirror = mirror
        self.card = len(mirror._names)
        self.t_submit = t_submit
        self.span = span


class _ServedEndpoint(NamedTuple):
    """Serve-side callbacks of one connection this daemon serves the
    pull protocol on: accepted by a listener (``dialer`` None), or
    dialled by :meth:`Ldmsd.advertise` (redialled when it closes)."""

    daemon: "Ldmsd"
    endpoint: Endpoint
    dialer: Optional[Dialer]

    def on_message(self, raw: bytes) -> None:
        self.daemon._serve(self.endpoint, raw)

    def on_close(self) -> None:
        self.daemon._drop_served(self.endpoint, self.dialer)


class _RegionReader(NamedTuple):
    """One-sided-read source of a published set, resolved by *name* at
    fetch time: the registration outlives the set (then reads empty)."""

    sets: dict[str, MetricSet]
    name: str

    def __call__(self) -> bytes:
        mset = self.sets.get(self.name)
        return mset.data_bytes() if mset is not None else b""


class _SampleFiring:
    """One sampling firing on the scalar path: the worker grant opens the
    plugin's transactions (``begin``), the end of the busy window closes
    them (``finish``).  A grant that finds a set still inside the
    previous sample's transaction — the sampler overran its interval —
    skips the whole firing; the daemon counts it in ``sampler.overruns``.
    """

    __slots__ = ("daemon", "plugin", "skipped")

    def __init__(self, daemon: "Ldmsd", plugin: SamplerPlugin):
        self.daemon = daemon
        self.plugin = plugin
        self.skipped = False

    def begin(self) -> None:
        self.skipped = not self.daemon._begin_sample(self.plugin)

    def finish(self) -> None:
        if not self.skipped:
            self.daemon._finish_sample(self.plugin)


class _FlushBatch:
    """Pending rows for one store, drained in bulk by a flush task.

    ``seal()`` runs when a flush worker is acquired: it claims up to
    ``FLUSH_BATCH_MAX`` pending rows and returns their summed simulated
    cost (base + per-metric for every row, so pool busy-time accounting
    — the §IV-D utilization numbers — is per record while the
    heap-event count is per batch).  The split is two steps, so under
    real threads the caller holds the daemon lock against appends.
    """

    __slots__ = ("store", "rows", "sealed", "scheduled", "writing", "idle")

    def __init__(self, store: StorePlugin, lock):
        self.store = store
        #: pending rows, append order
        self.rows: list[_PendingRow] = []
        self.sealed: Optional[list[_PendingRow]] = None
        self.scheduled = False
        #: a flush task is writing rows it took, outside the daemon lock
        self.writing = False
        #: notified (under the daemon lock) when that write ends while
        #: the daemon shuts down
        self.idle = threading.Condition(lock)

    def seal(self) -> float:
        rows = self.rows
        if len(rows) <= FLUSH_BATCH_MAX:
            self.sealed = rows
            self.rows = []
        else:
            self.sealed = rows[:FLUSH_BATCH_MAX]
            self.rows = rows[FLUSH_BATCH_MAX:]
        cost = STORE_BASE_COST * len(self.sealed)
        for row in self.sealed:
            cost += STORE_PER_METRIC_COST * row.card
        return cost


class Ldmsd:
    """An LDMS daemon instance.

    Parameters
    ----------
    name:
        Daemon name (used as the producer name when peers pull from it
        and in store records).
    env:
        Execution environment.  Defaults to a private :class:`RealEnv`.
    transports:
        Mapping of transport name -> :class:`Transport` instance the
        daemon may listen/connect with.  Defaults to a private real
        ``sock`` transport under RealEnv; must be provided for SimEnv.
    mem:
        Size of the metric-set arena (the ldmsd ``-m`` option), e.g.
        ``"2MB"``.  Set creation fails when exhausted.
    workers / conn_threads / flush_threads:
        Pool sizes (§IV-B: worker pool typically no larger than the
        host's core count).
    core:
        Simulated CPU core that this daemon's work is charged to (noise
        accounting); None outside the simulator.
    """

    __slots__ = (
        "name", "_own_env", "env", "transports", "core", "fs", "arena", "lock",
        "obs", "spans", "freshness", "set_pool",
        "_cohort_scheduler", "worker_pool", "_conn_pool", "_flush_pool",
        "_conn_threads", "_flush_threads", "update_cpu_cost",
        "connect_cpu_cost", "_flush_batches", "_sets", "_region_ids",
        "_region_names", "_plugins", "_schedules",
        "producers", "stores", "_stores_version", "_listeners",
        "_served_endpoints", "_advertisements", "records_delivered",
        "query_engine", "_shutdown",
        # Hot-path instruments, bound by the first scalar sample /
        # add_store / enable_query when the daemon takes that role.
        "_h_sample", "_h_store_flush", "_h_flush_batch_rows",
        "_h_sample_to_store", "_c_store_no_match", "_h_query",
        # Derived-count state (``derived_counts``): cohort rows not yet
        # observed in ``sample.duration``, rows observed, and the cost
        # they are priced at; staged sample-to-store latencies; served
        # requests; counts of closed endpoints and removed producers.
        "_vec_backlog", "_vec_observed", "_vec_cost", "_e2e_staged",
        "_served_dirs", "_served_lookups", "_served_queries", "_retired",
    )

    #: What :meth:`derived_counts` reads; every other counter is owned.
    DERIVED_COUNTS = frozenset((
        "sampler.samples", "arena.rows_vectorized", "serve.dir_req",
        "serve.lookup_req", "serve.query_req", "store.flush_rows_batched",
        *(name for name, _ in _ENDPOINT_COUNTS + _UPDATE_COUNTS)))

    def __init__(
        self,
        name: str,
        env: Optional[Env] = None,
        transports: Optional[dict[str, Transport]] = None,
        mem: str | int = "2MB",
        workers: int = 4,
        conn_threads: int = 2,
        flush_threads: int = 2,
        core: Optional[CpuCore] = None,
        fs=None,
    ):
        self.name = name
        self._own_env = env is None
        if env is None:
            env = RealEnv()
        self.env = env
        if transports is None:
            if isinstance(env, SimEnv):
                raise ConfigError("SimEnv daemons must be given sim transports")
            from repro.transport.sock import SockTransport

            transports = {"sock": SockTransport()}
        self.transports = transports
        self.core = core
        if fs is None:
            from repro.nodefs.fs import REAL_FS as fs
        #: Filesystem sampler plugins read node counters through
        #: (RealFS on a live host, SynthFS in the simulator).
        self.fs = fs
        self.arena = Arena(parse_size(mem))
        self.lock = env.make_lock()

        #: Self-instrumentation, always on: the telemetry registry.
        #: Hot-path instruments are bound once, when the daemon takes
        #: the role that uses them, so sampling/update/store code pays
        #: one attribute access per event, not a registry lookup.
        self.obs = Telemetry()
        self.obs.declare(_OBS_COUNTERS, _OBS_HISTOGRAMS, self)
        self._h_sample: Optional[Histogram] = None
        self._vec_backlog = self._vec_observed = 0
        self._vec_cost: Optional[float] = None
        self._e2e_staged: list[float] = _NO_STORES  # a list from add_store
        self._served_dirs = self._served_lookups = self._served_queries = 0
        self._retired: dict[str, int] = _NO_ENTRIES
        #: Observability plane: the span ring (exemplar update
        #: transactions and the hops they cross, feeding ``prof`` traces
        #: and Chrome trace export, and the rare events postmortem dumps
        #: freeze) and the per-producer freshness tracker (made by the
        #: first ``add_producer``).
        self.spans = SpanRecorder(name)
        self.freshness = _NO_FRESHNESS
        self.spans.record_event(env.now(), "daemon", "start")
        if sanitize.enabled():
            # REPRO_SANITIZE=count routes discipline violations into
            # this registry (ldmsd_self exports the aggregate).
            sanitize.register_registry(self.obs)

        #: Columnar data plane: the environment-wide set-arena pool
        #: and sampler-cohort scheduler of a SimEnv, or None under
        #: RealEnv.  All sets this daemon creates or mirrors are
        #: arena-row-backed when the pool is present.
        self.set_pool = getattr(env, "set_arena_pool", None)
        self._cohort_scheduler = getattr(env, "cohort_scheduler", None)

        self.worker_pool = env.make_pool(f"{name}/worker", workers)
        # Aggregator / store roles: made by the first connect / flush.
        self._conn_pool: Optional[WorkerPool] = None
        self._flush_pool: Optional[WorkerPool] = None
        self._conn_threads = conn_threads
        self._flush_threads = flush_threads

        self.update_cpu_cost = UPDATE_CPU_COST
        self.connect_cpu_cost = CONNECT_CPU_COST
        self._flush_batches: dict[StorePlugin, _FlushBatch] = _NO_ENTRIES

        self._sets: dict[str, MetricSet] = {}
        #: Set name -> its region id, kept for the daemon's life.
        self._region_ids: dict[str, int] = {}
        #: Set name of region id ``i + 1``, append-only.
        self._region_names: list[str] = []
        self._plugins: dict[str, SamplerPlugin] = {}
        #: sampler instance -> cancellable handle of its periodic firing
        self._schedules: dict[str, Any] = {}
        self.producers: dict[str, Producer] = _NO_ENTRIES
        self.stores: list[StorePlugin] = _NO_STORES
        #: Bumped by add_store; invalidates per-mirror store-match caches.
        self._stores_version = 0
        self._listeners: list[Listener] = []
        self._served_endpoints: list[Endpoint] = []
        #: advertised name -> the dialer that keeps it advertised
        self._advertisements: dict[str, Dialer] = _NO_ENTRIES
        self.records_delivered = 0
        #: Serving tier (PR 9): the query engine over this daemon's SOS
        #: store, or None until :meth:`enable_query`.
        self.query_engine = None
        self._shutdown = False

    @property
    def conn_pool(self) -> WorkerPool:
        """Connection-setup pool (§IV-B), created by the first connect."""
        with self.lock:  # reconnect timers dial outside the daemon lock
            if self._conn_pool is None:
                self._conn_pool = self.env.make_pool(
                    f"{self.name}/conn", self._conn_threads)
            return self._conn_pool

    @property
    def flush_pool(self) -> WorkerPool:
        """Store-flush pool, created by the first delivery to a store."""
        with self.lock:
            if self._flush_pool is None:
                self._flush_pool = self.env.make_pool(
                    f"{self.name}/flush", self._flush_threads)
            return self._flush_pool

    # ------------------------------------------------------------------
    # set registry
    # ------------------------------------------------------------------
    def create_set(
        self, name: str, schema: str, template: SetTemplate,
        component_id: int,
    ) -> MetricSet:
        """Create and publish a metric set of ``template`` whose every
        metric carries ``component_id`` (sampler plugins call this)."""
        with self.lock:
            if name in self._sets:
                raise ConfigError(f"metric set {name!r} already exists")
            try:
                mset = MetricSet.instantiate(name, schema, template,
                                             component_id, self.arena, 1,
                                             self.set_pool)
            except OutOfMemory:
                # Arena exhaustion is an operator-visible event (the
                # paper sizes set memory up front, §IV-B): count it so
                # ldmsd_self exposes it, then re-raise for the caller.
                self.obs.counter("set.create_failed").inc()
                raise
            self._sets[name] = mset
            return mset

    def delete_set(self, name: str) -> None:
        with self.lock:
            mset = self._sets.pop(name, None)
            if mset is not None:
                mset.delete()

    def get_set(self, name: str) -> Optional[MetricSet]:
        return self._sets.get(name)

    def set_names(self) -> list[str]:
        return sorted(self._sets)

    def dir_info(self) -> list[SetInfo]:
        return [s.info() for s in self._sets.values()]

    def _register_mirror(self, mset: MetricSet) -> None:
        """Publish an aggregated mirror so higher levels can pull it."""
        if mset.name not in self._sets:
            self._sets[mset.name] = mset

    def _unregister_mirror(self, mset: MetricSet) -> None:
        if self._sets.get(mset.name) is mset:
            del self._sets[mset.name]

    def _on_lookup_complete(self, producer: Producer, upd) -> None:
        self._register_mirror(upd.mirror)

    # ------------------------------------------------------------------
    # sampler side
    # ------------------------------------------------------------------
    def load_sampler(self, plugin_name: str, **cfg) -> SamplerPlugin:
        """Load and configure a sampler plugin.

        ``cfg`` must include ``instance=`` (unique per daemon) and
        normally ``component_id=``; remaining keys go to the plugin's
        ``config()``.
        """
        if plugin_name not in sampler_registry:
            import repro.plugins  # noqa: F401  (registers built-ins)
        try:
            cls = sampler_registry[plugin_name]
        except KeyError:
            raise ConfigError(
                f"unknown sampler plugin {plugin_name!r}; loaded registry has "
                f"{sorted(sampler_registry)}"
            ) from None
        with self.lock:
            plugin = cls(self)
            plugin.config(**cfg)
            if plugin.instance in self._plugins:
                raise ConfigError(f"sampler instance {plugin.instance!r} already loaded")
            self._plugins[plugin.instance] = plugin
            return plugin

    def start_sampler(
        self, instance: str, interval: float, offset: Optional[float] = None
    ) -> None:
        """Begin periodic sampling.

        ``offset`` non-None selects synchronous (wall-aligned) sampling;
        the paper notes this bounds the number of application iterations
        perturbed across nodes (§V-A1).  The sampling frequency can be
        changed on the fly by calling ``stop_sampler`` + ``start_sampler``.
        """
        _check_interval(interval)
        with self.lock:
            plugin = self._require_plugin(instance)
            if instance in self._schedules:
                raise ConfigError(f"sampler {instance!r} already started")

            # The plugin's set layout is frozen at config(), so
            # sample_cost is loop-invariant: bind it once.
            sample_cost = plugin.sample_cost

            # Columnar fast path: same-phase, same-pattern samplers ride
            # one cohort sweep (one timer + one finish event for the
            # whole node class) instead of per-instance events.  The
            # per-instance path below serves RealEnv and anything the
            # sweep cannot vectorize.
            sched = self._cohort_scheduler
            if sched is not None:
                veckey = plugin.cohort_key()
                mset = plugin._sets[0] if len(plugin._sets) == 1 else None
                if (veckey is not None and mset is not None
                        and mset._ab.values_mat is not None
                        and sample_cost < interval):
                    self._schedules[instance] = sched.register(
                        self, plugin, interval,
                        synchronous=offset is not None,
                        offset=offset or 0.0,
                        cost=sample_cost, veckey=veckey,
                    )
                    return
                # Arena on but this sampler can't ride a cohort sweep
                # (no vectorization key, multi-set, mixed layout, or
                # cost >= interval): it stays on the scalar path.
                self.obs.counter("arena.fallback_sets").inc()

            self._schedules[instance] = self.env.call_every(
                interval, partial(self._submit_sample, plugin, sample_cost),
                synchronous=offset is not None, offset=offset or 0.0
            )

    def stop_sampler(self, instance: str) -> None:
        with self.lock:
            handle = self._schedules.pop(instance, None)
            if handle is None:
                raise ConfigError(f"sampler {instance!r} is not started")
            handle.cancel()

    def sampler_plugins(self) -> dict[str, SamplerPlugin]:
        return dict(self._plugins)

    def _require_plugin(self, instance: str) -> SamplerPlugin:
        try:
            return self._plugins[instance]
        except KeyError:
            raise ConfigError(f"no sampler instance {instance!r}") from None

    def _submit_sample(self, plugin: SamplerPlugin, cost: float) -> None:
        """One scalar-path firing: a worker task of ``cost`` seconds."""
        firing = _SampleFiring(self, plugin)
        self.worker_pool.submit(firing.finish, cost, self.core, "sampler",
                                firing.begin)

    def _begin_sample(self, plugin: SamplerPlugin) -> bool:
        """Open the plugin's sampling transactions; refuse (False) and
        count an overrun while one of its sets is still inside one."""
        with self.lock:
            if any(s._in_transaction for s in plugin._sets):
                # Rare: looked up here, not bound per sampler daemon.
                self.obs.counter("sampler.overruns").inc()
                return False
            plugin._sample_t0 = self.env.now()
            plugin.begin_sample()
            return True

    def _finish_sample(self, plugin: SamplerPlugin) -> None:
        with self.lock:
            end = self.env.now()
            plugin.finish_sample(end)
            # Sample duration: the begin->finish busy window.  Under the
            # DES this is the declared sample cost; under RealEnv it is
            # the measured wall time of do_sample.
            duration = end - plugin._sample_t0
            plugin.last_sample_ts = end
            plugin.last_sample_dur = duration
            plugin.sample_time_total += duration
            self._observe_cohort_rows()  # earlier samples observe first
            self._sample_histogram().observe(duration)

    def _sample_histogram(self) -> Histogram:
        """``sample.duration``, bound by the first sample observed."""
        h = self._h_sample
        if h is None:
            h = self._h_sample = self.obs.histogram("sample.duration")
        return h

    def _observe_cohort_rows(self, cost: Optional[float] = None) -> None:
        """Observe in ``sample.duration`` the rows cohort sweeps wrote
        for this daemon since the last call, each at the constant cost
        of its cohort (``cost``, or the one cost this daemon's cohorts
        share)."""
        k = self._vec_backlog
        if k:
            self._vec_backlog = 0
            self._vec_observed += k
            self._sample_histogram().observe_n(
                self._vec_cost or 0.0 if cost is None else cost, k)

    # ------------------------------------------------------------------
    # serving (any daemon can be pulled from)
    # ------------------------------------------------------------------
    def listen(self, xprt: str, addr) -> Listener:
        """Listen for incoming aggregator connections on a transport."""
        transport = self._transport(xprt)
        listener = transport.listen(addr, self._serve_endpoint)
        self._listeners.append(listener)
        return listener

    def _transport(self, xprt: str) -> Transport:
        try:
            return self.transports[xprt]
        except KeyError:
            raise ConfigError(
                f"daemon {self.name!r} has no transport {xprt!r}; "
                f"configured: {sorted(self.transports)}"
            ) from None

    def _adopt(self, endpoint: Endpoint) -> None:
        """Give an endpoint this daemon owns its telemetry registry and
        the daemon clock its HELLO stamps and its peer-age anchor reads.
        Installed before the transport starts reading."""
        endpoint.obs = self.obs
        endpoint.clock = self.env.now

    def _serve_endpoint(self, endpoint: Endpoint,
                        dialer: Optional[Dialer] = None) -> None:
        """Serve the pull protocol on ``endpoint``: one a listener
        accepted, or one :meth:`advertise` dialled (``dialer``).  Either
        is pruned when it closes — or served endpoints accumulate
        forever on a long-lived daemon whose peers churn — and an
        advertised one is also redialled."""
        with self.lock:
            self._adopt(endpoint)
            served = _ServedEndpoint(self, endpoint, dialer)
            endpoint.on_message = served.on_message
            endpoint.on_close = served.on_close
            endpoint.on_traced_read = self._on_traced_read
            self.spans.record_event(self.env.now(), "conn", "peer_connect",
                                    len(self._served_endpoints))
            self._served_endpoints.append(endpoint)

    def _drop_served(self, endpoint: Endpoint,
                     dialer: Optional[Dialer]) -> None:
        with self.lock:
            self._retire_endpoint(endpoint)
            if endpoint in self._served_endpoints:
                self._served_endpoints.remove(endpoint)
                self.spans.record_event(self.env.now(), "conn", "peer_close",
                                        len(self._served_endpoints))
            if dialer is not None:
                dialer.redial()

    def _on_traced_read(self, trace_id: int, parent_span: int, hop: int,
                        region_id: int) -> None:
        """Serve-side half of wire-level trace propagation.

        Invoked by the transport once per trace-context entry on an
        inbound traced read.  Records the serve span (hop 1, parented on
        the aggregator's update span) and — when this daemon sampled the
        set itself — the sample span (hop 0) of the transaction whose
        bytes the read returns, anchored on the set's transaction
        timestamp.  Exemplar-rate only, so allocation here is fine.
        """
        spans = self.spans
        now = self.env.now()
        serve_sid = spans.alloc()
        spans.record(trace_id, serve_sid, parent_span,
                     hop - 1 if hop > 1 else 1, "serve_read", now, now)
        # region_id comes from the peer's frame: bounds-check it, or
        # id 0 would index the last name.
        names = self._region_names
        mset = (self._sets.get(names[region_id - 1])
                if 0 < region_id <= len(names) else None)
        if mset is None:
            return
        ts = mset.timestamp
        if ts <= 0.0:
            return
        for plugin in self._plugins.values():
            if mset in plugin._sets:
                dur = getattr(plugin, "last_sample_dur", 0.0)
                spans.record(trace_id, spans.alloc(), serve_sid, HOP_SAMPLE,
                             "sample", ts - dur, ts)
                return

    def _serve(self, endpoint: Endpoint, raw: bytes) -> None:
        with self.lock:
            try:
                self._serve_frame(endpoint, wire.decode_frame(raw))
            except WireError:
                # A peer's malformed frame is dropped and counted; it
                # must not abort Engine.run or a transport's reader.
                self.obs.counter("wire.malformed_frames").inc()

    def _serve_frame(self, endpoint: Endpoint, frame: wire.Frame) -> None:
        if frame.msg_type == wire.MsgType.ADVERTISE:
            # A sampler initiated this connection (passive mode);
            # hand the endpoint to the matching producer.
            peer_name = wire.unpack_advertise(frame.payload)
            prod = self.producers.get(peer_name)
            if prod is not None and prod.cfg.passive:
                if endpoint in self._served_endpoints:
                    self._served_endpoints.remove(endpoint)
                prod.attach(endpoint)
            return
        if frame.msg_type == wire.MsgType.DIR_REQ:
            self._served_dirs += 1
            endpoint.send(
                wire.encode_frame(
                    wire.MsgType.DIR_REPLY,
                    frame.request_id,
                    wire.pack_dir_reply(self.dir_info()),
                )
            )
        elif frame.msg_type == wire.MsgType.LOOKUP_REQ:
            self._served_lookups += 1
            set_name = wire.unpack_lookup_req(frame.payload)
            if frame.trace is not None:
                now = self.env.now()
                for _idx, tid, sid, hop in frame.trace:
                    self.spans.record(tid, self.spans.alloc(), sid,
                                      hop - 1 if hop > 1 else 1,
                                      "serve_lookup", now, now)
            mset = self._sets.get(set_name)
            if mset is None:
                reply = wire.pack_lookup_reply(wire.E_NOENT)
            else:
                region_id = self._region_id_for(set_name)
                if region_id not in getattr(endpoint, "_regions"):
                    endpoint.register_region(
                        region_id, _RegionReader(self._sets, set_name))
                reply = wire.pack_lookup_reply(
                    wire.E_OK, region_id, mset.meta_bytes()
                )
            endpoint.send(
                wire.encode_frame(wire.MsgType.LOOKUP_REPLY, frame.request_id, reply)
            )
        elif frame.msg_type == wire.MsgType.QUERY_REQ:
            self._serve_query(endpoint, frame)

    def _serve_query(self, endpoint: Endpoint, frame: wire.Frame) -> None:
        """Answer a QUERY_REQ on the worker pool.

        The scan itself prices the task: the pool cost is a callable
        that runs the query when the worker is granted and returns
        ``QUERY_BASE_COST + QUERY_PER_ROW_COST x rows``, so the reply
        leaves at the end of a busy window sized by the actual result —
        and served latency quantiles include queueing behind the update
        pipeline on the same pool.  (RealEnv pools never evaluate the
        cost callable; the reply closure runs the query there.)
        """
        eng = self.query_engine
        rid = frame.request_id
        self._served_queries += 1
        if eng is None:
            endpoint.send(wire.encode_frame(
                wire.MsgType.QUERY_REPLY, rid,
                wire.pack_query_reply(wire.E_NOENT)))
            return
        try:
            schema, t0, t1, level, comp_id, max_records = (
                wire.unpack_query_req(frame.payload))
        except WireError:
            endpoint.send(wire.encode_frame(
                wire.MsgType.QUERY_REPLY, rid,
                wire.pack_query_reply(wire.E_INVAL)))
            return
        t_start = self.env.now()
        holder: list = []

        def run_query() -> float:
            res = eng.query(schema, t0, t1, level=level, comp_id=comp_id,
                            max_records=max_records)
            holder.append(res)
            return QUERY_BASE_COST + QUERY_PER_ROW_COST * len(res.rows)

        def reply() -> None:
            with self.lock:
                if not holder:
                    holder.append(eng.query(schema, t0, t1, level=level,
                                            comp_id=comp_id,
                                            max_records=max_records))
                res = holder[0]
                self._h_query.observe(self.env.now() - t_start)
                if not endpoint.closed:
                    endpoint.send(wire.encode_frame(
                        wire.MsgType.QUERY_REPLY, rid,
                        wire.pack_query_reply(res.status, res.names,
                                              res.rows, res.flags())))

        self.worker_pool.submit(reply, cost=run_query, core=self.core,
                                tag="query")

    def enable_query(self, store=None, hot_window: Optional[float] = None,
                     cache_entries: Optional[int] = None):
        """Attach the query/serving tier to this daemon's SOS store.

        ``store=None`` picks the first configured
        :class:`~repro.plugins.stores.sos.SosStore`; ``hot_window`` and
        ``cache_entries`` left None take the
        :class:`~repro.query.engine.QueryEngine` defaults.  Served queries
        arrive as ``QUERY_REQ`` frames on any served connection and run
        on the worker pool.
        """
        from repro.plugins.stores.sos import SosStore
        from repro.query.engine import QueryEngine

        with self.lock:
            if store is None:
                store = next(
                    (s for s in self.stores if isinstance(s, SosStore)), None)
            if store is None:
                raise ConfigError(
                    f"{self.name}: enable_query needs a configured sos store")
            self._h_query = self.obs.histogram("serve.query")
            tier = {k: v for k, v in (("hot_window", hot_window),
                                      ("cache_entries", cache_entries))
                    if v is not None}
            self.query_engine = QueryEngine(store, self.env.now,
                                            obs=self.obs, **tier)
            return self.query_engine

    def _region_id_for(self, set_name: str) -> int:
        rid = self._region_ids.get(set_name)
        if rid is None:
            # One id per set name for the daemon's life, kept across
            # set deletion: an endpoint's registered reader reads by
            # name, so a set deleted and made again (a mirror after a
            # reconnect) is served by the reader already registered.
            self._region_names.append(set_name)
            rid = len(self._region_names)
            self._region_ids[set_name] = rid
        return rid

    # ------------------------------------------------------------------
    # aggregator side
    # ------------------------------------------------------------------
    def add_producer(
        self,
        name: str,
        xprt: str,
        addr=None,
        interval: float = 20.0,
        sets: tuple[str, ...] = (),
        offset: Optional[float] = None,
        standby: bool = False,
        reconnect_interval: float = 2.0,
        reconnect_max: float = 60.0,
        lookup_timeout: Optional[float] = None,
        dir_refresh: int = 5,
        passive: bool = False,
    ) -> Producer:
        """Add a collection target.

        Active producers (the default) begin connecting immediately.
        Passive producers wait for the named peer to connect to one of
        this daemon's listeners and send an ADVERTISE — the §IV-B
        asymmetric-network mode where the sampler initiates.  Multiple
        producers may point at the same address with different set
        lists and intervals ("multiple connections may be established
        between an aggregator and a single collection target").
        """
        _check_interval(interval)
        with self.lock:
            if name in self.producers:
                raise ConfigError(f"producer {name!r} already exists")
            self._transport(xprt)  # validate early
            if addr is None and not passive:
                raise ConfigError("active producers require addr=")
            cfg = ProducerConfig(
                name=name,
                xprt=xprt,
                addr=addr,
                interval=float(interval),
                sets=tuple(sets),
                offset=offset,
                standby=standby,
                reconnect_interval=reconnect_interval,
                reconnect_max=reconnect_max,
                lookup_timeout=lookup_timeout,
                dir_refresh=dir_refresh,
                passive=passive,
            )
            if self.producers is _NO_ENTRIES:
                self.producers, self.freshness = {}, FreshnessTracker()
            prod = Producer(self, cfg)
            self.producers[name] = prod
            prod.start()
            return prod

    def advertise(
        self,
        xprt: str,
        addr,
        name: Optional[str] = None,
        reconnect_interval: float = 2.0,
        reconnect_max: float = 60.0,
    ) -> str:
        """Sampler side of passive mode: connect to an aggregator,
        announce this daemon by name, and serve the pull protocol on
        that connection.  Redials with capped, deterministically
        jittered exponential backoff while the aggregator is away;
        :meth:`stop_advertise` (or :meth:`shutdown`) retires the loop
        and closes the advertised endpoint.  Returns the advertised
        name, the handle ``stop_advertise`` takes."""
        adv_name = name or self.name
        transport = self._transport(xprt)
        with self.lock:
            if adv_name in self._advertisements:
                raise ConfigError(f"already advertising as {adv_name!r}")
            dialer = Dialer(self, transport, addr, "advertise", adv_name,
                            "advertise", reconnect_interval, reconnect_max,
                            partial(self._advertised, adv_name))
            if self._advertisements is _NO_ENTRIES:
                self._advertisements = {}
            self._advertisements[adv_name] = dialer
        dialer.dial()
        return adv_name

    def _advertised(self, adv_name: str, endpoint: Endpoint) -> None:
        """An advertise dial came up: serve on it and announce this
        daemon by name (caller holds the lock)."""
        self._serve_endpoint(endpoint, self._advertisements[adv_name])
        endpoint.send(wire.encode_frame(wire.MsgType.ADVERTISE, 0,
                                        wire.pack_advertise(adv_name)))

    def stop_advertise(self, name: Optional[str] = None) -> None:
        """Retire an advertisement: no further redials, and the
        advertised endpoint (if up) is closed and pruned."""
        adv_name = name or self.name
        with self.lock:
            dialer = self._advertisements.get(adv_name)
            if dialer is None:
                raise ConfigError(f"not advertising as {adv_name!r}")
            del self._advertisements[adv_name]
            dialer.stop()

    def remove_producer(self, name: str) -> None:
        with self.lock:
            prod = self.producers.get(name)
            if prod is None:
                raise ConfigError(f"no producer {name!r}")
            del self.producers[name]
            prod.stop()
            self._retire(_UPDATE_COUNTS, prod.stats)

    def activate_standby(self, name: str) -> None:
        """Promote a standby producer (driven by an external watchdog)."""
        with self.lock:
            prod = self.producers.get(name)
            if prod is None:
                raise ConfigError(f"no producer {name!r}")
            prod.activate()

    # ------------------------------------------------------------------
    # store side
    # ------------------------------------------------------------------
    def add_store(
        self,
        plugin_name: str,
        schema: Optional[str] = None,
        producers: Optional[tuple[str, ...]] = None,
        metrics: Optional[tuple[str, ...]] = None,
        **cfg,
    ) -> StorePlugin:
        """Instantiate a store plugin with a matching policy."""
        if plugin_name not in store_registry:
            import repro.plugins  # noqa: F401  (registers built-ins)
        try:
            cls = store_registry[plugin_name]
        except KeyError:
            raise ConfigError(
                f"unknown store plugin {plugin_name!r}; registry has "
                f"{sorted(store_registry)}"
            ) from None
        with self.lock:
            store = cls()
            store.config(**cfg)
            store.policy = StorePolicy(
                schema=schema,
                producers=frozenset(producers) if producers else None,
                metrics=tuple(metrics) if metrics else None,
            )
            obs = self.obs
            self._h_store_flush = obs.histogram("store.flush")
            self._h_flush_batch_rows = obs.histogram("store.flush_batch_rows")
            self._h_sample_to_store = obs.histogram("pipeline.sample_to_store")
            self._c_store_no_match = obs.counter("store.no_match")
            if self.stores is _NO_STORES:
                self.stores, self._flush_batches = [], {}
                self._e2e_staged = []
            self.stores.append(store)
            self._stores_version += 1
            return store

    def _route(self, mirror: MetricSet, producer_name: str) -> tuple:
        """Stores whose policy matches this mirror, cached on the mirror.

        Policy inputs (schema, producer) are frozen per (mirror,
        producer) pair, so the filter runs once per mirror lifetime
        rather than once per delivered record; the delivery reads the
        cache and calls this only when a store was added since
        (``_stores_version``)."""
        matched = tuple(
            s for s in self.stores
            if s.policy.matches_keys(mirror.schema, producer_name)
        )
        mirror._store_match = (self._stores_version, matched)
        return matched

    def _deliver_to_stores(
        self, producer: Producer, mirror: MetricSet,
        span: Optional[UpdateSpan], ts: float, data: bytes,
    ) -> None:
        """Hand one validated update to every store routed to it.

        ``span``: the transaction's exemplar update span, or None;
        ``ts``: the mirror's transaction timestamp, already decoded;
        ``data``: the chunk the mirror was just installed from.

        The delivery stages ``data`` and defers :class:`StoreRecord`
        construction to the flush drain, which decodes each row once
        (:meth:`_materialize_rows`), however many stores it feeds.
        ``data`` is the immutable ``bytes`` the read returned, so it
        pins the delivered bytes without a copy: a mirror re-installed
        before the drain cannot change what is stored.  The routing
        (cached per mirror) is the only policy check the row ever gets;
        the stores trust it.
        """
        if not self.stores:
            return
        if mirror._shadow is not None:
            sanitize.check_read(mirror)
        self.records_delivered += 1
        now = self.env.now()
        # End-to-end pipeline latency: sampler transaction close (the
        # timestamp carried in the data chunk) -> store hand-off here;
        # staged, and observed in bulk by the flush or a read.
        self._e2e_staged.append(max(now - ts, 0.0))
        route = mirror._store_match
        stores = (route[1] if route is not None and route[0] == self._stores_version
                  else self._route(mirror, producer.cfg.name))
        if not stores:
            self._c_store_no_match.inc()
            self._observe_staged()  # no flush will
            return
        row = _PendingRow(data, ts, producer.cfg.name, mirror, now, span,
                          len(stores) > 1)
        for store in stores:
            self._enqueue_flush(store, row)

    def _enqueue_flush(self, store: StorePlugin, row: _PendingRow) -> None:
        """Append one delivery to ``store``'s pending batch and make
        sure a flush task is on its way (caller holds the daemon lock).

        ``scheduled`` is true whenever rows are pending: the flush task
        clears it under the same lock, only after finding none."""
        batch = self._flush_batches.get(store)
        if batch is None:
            batch = self._flush_batches[store] = _FlushBatch(store, self.lock)
        batch.rows.append(row)
        if not batch.scheduled:
            batch.scheduled = True
            self._submit_flush(batch)

    def _submit_flush(self, batch: _FlushBatch) -> None:
        self.flush_pool.submit(
            partial(self._flush_batched, batch),
            cost=batch.seal, core=self.core, tag="store",
        )

    def _flush_batched(self, batch: _FlushBatch) -> None:
        """Flush-pool task: drain one sealed batch through the store's
        batched write, then reschedule if rows accumulated while the
        worker was busy (a loaded flush thread runs back-to-back)."""
        with self.lock:
            if self._shutdown:
                # Shutdown drains whatever is still pending itself.
                batch.scheduled = False
                return
            if batch.sealed is None:
                # RealEnv pools never evaluate the cost callable; seal here.
                batch.seal()
            rows, batch.sealed = batch.sealed, None
            batch.writing = True
            self._observe_staged()
        # The store write stays outside the daemon lock: deliveries keep
        # appending to batch.rows while this worker is in the backend,
        # and shutdown waits for it before it closes the store.
        try:
            if rows:
                self._flush_rows(batch.store, rows)
        finally:
            with self.lock:
                batch.writing = False
                if self._shutdown:
                    # Set before shutdown takes the lock to wait, so a
                    # waiting shutdown is always woken; no wake-up else.
                    batch.idle.notify_all()
                    batch.scheduled = False
                elif batch.rows:
                    self._submit_flush(batch)
                else:
                    batch.scheduled = False

    def _materialize_rows(self, rows: list[_PendingRow]) -> list[StoreRecord]:
        """Turn a drained batch into records, decoding each row once.

        Every row decodes through :meth:`MetricSet.snapshot_values` (one
        compiled ``struct`` unpack); a row another store's drain already
        decoded reuses its record.  A 2-D numpy sweep over same-layout
        rows is no faster at any batch shape timed, and slower on small
        batches (DESIGN.md "Vectorized branches, by measurement").
        """
        out: list = []
        for row in rows:
            record = row.record
            if record is None:  # not yet decoded by another store's drain
                m = row.mirror
                record = record_of((row.ts, row.producer, m.name, m.schema,
                                    m._names, m._comp_ids,
                                    m.snapshot_values(row.data),
                                    m._compiled.mtypes))
                if row.shared:
                    row.record = record
            out.append(record)
        return out

    def _observe_staged(self) -> None:
        """Observe the staged sample-to-store latencies, in delivery
        order (caller holds the daemon lock)."""
        staged = self._e2e_staged
        if staged:
            self._e2e_staged = []
            self._h_sample_to_store.observe_many(staged)

    def _flush_rows(self, store: StorePlugin, rows: list[_PendingRow]) -> None:
        """Write one drained batch and observe its per-row flush
        latencies in one call.  Its rows count in ``store.flush_rows_batched``
        through the store's own stored and failed counts."""
        n = len(rows)
        failed = store.submit_many(self._materialize_rows(rows))
        self._h_flush_batch_rows.observe(n)
        if failed:
            self.obs.counter("store.errors").inc(failed)
            return
        end = self.env.now()
        latencies = []
        spans = self.spans
        for row in rows:
            t_submit = row.t_submit
            latencies.append(end - t_submit)
            span = row.span
            if span is not None:
                # The exemplar's store hop, parented on its update span.
                spans.record(span.trace_id, spans.alloc(), span.span_id,
                             HOP_STORE, "store_flush", t_submit, end)
        self._h_store_flush.observe_many(latencies)

    # ------------------------------------------------------------------
    # introspection / shutdown
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Operational counters, footprint numbers, and the telemetry
        registry snapshot.

        The returned structure is a deep, detached copy — every leaf is
        a plain int/float/str built under the daemon lock, so callers
        can hold, mutate, or serialize it without racing live counters
        (``vars(p.stats)`` would hand out the live ``__dict__``).
        """
        with self.lock:
            return {
                "name": self.name,
                "sets": len(self._sets),
                "arena_used": self.arena.used,
                "arena_peak": self.arena.peak_used,
                "arena_size": self.arena.size,
                # Bytes of arena backing actually allocated (<= used).
                "arena_committed": self.arena.committed,
                "plugins": len(self._plugins),
                "producers": {
                    name: dataclasses.asdict(p.stats)
                    for name, p in self.producers.items()
                },
                "records_delivered": self.records_delivered,
                # Schema-stable for pollers: the arena keys are always
                # present — zeroed, not dropped, when the columnar plane
                # is off (no arena in this environment).
                "set_pool": (self.set_pool.stats()
                             if self.set_pool is not None
                             else {"arenas": 0, "blocks": 0, "rows": 0}),
                "freshness": self.freshness.fleet(self.env.now()),
                # Schema-stable like set_pool: zeroed when the serving
                # tier is not enabled on this daemon.
                "query": (self.query_engine.stats()
                          if self.query_engine is not None
                          else {"requests": 0, "cache_hits": 0,
                                "lru_hits": 0, "cache_misses": 0,
                                "rows_served": 0, "lru_entries": 0,
                                "hot_containers": 0}),
                "xprt_refused_connections": self.refused_connections(),
                "stores": [
                    {
                        "plugin": s.plugin_name,
                        "records": s.records_stored,
                        "failed": s.records_failed,
                        "dropped": s.records_dropped,
                        "bytes_written": s.bytes_written(),
                    }
                    for s in self.stores
                ],
                "obs": self.obs.snapshot(),
            }

    def derived_counts(self) -> dict:
        """The registry's derived counts: fold this daemon's bulk
        observations into its histograms, then read every count that
        pipeline state already keeps — plugins' samples (the
        ``sample.duration`` observations), cohort rows, served
        requests, stores' rows, endpoints' frames and bytes, producers'
        update outcomes — adding what closed endpoints and removed
        producers left in ``_retired``."""
        if self._vec_backlog:
            self._observe_cohort_rows()
        if self._e2e_staged:
            self._observe_staged()
        h, retired = self._h_sample, self._retired
        out = {
            "sampler.samples": h.observed if h is not None else 0,
            "arena.rows_vectorized": self._vec_observed,
            "serve.dir_req": self._served_dirs,
            "serve.lookup_req": self._served_lookups,
            "serve.query_req": self._served_queries,
            "store.flush_rows_batched": sum([
                s.records_stored + s.records_failed for s in self.stores]),
        }
        prods = self.producers.values()
        eps = self._served_endpoints + [
            p.endpoint for p in prods if p.endpoint is not None]
        for pairs, objs, listed in (
                (_ENDPOINT_COUNTS, eps, eps),
                (_UPDATE_COUNTS, [p.stats for p in prods],
                 self.producers is not _NO_ENTRIES)):
            if listed or pairs[0][0] in retired:
                for name, field in pairs:
                    out[name] = retired.get(name, 0) + sum(
                        [getattr(o, field) for o in objs])
        return out

    def _retire_endpoint(self, endpoint: Endpoint) -> None:
        self._retire(_ENDPOINT_COUNTS, endpoint)

    def _retire(self, pairs: tuple, obj) -> None:
        """Keep what a closed endpoint or a removed producer's stats
        add to the derived ``pairs`` counts once it is gone."""
        retired = self._retired
        if retired is _NO_ENTRIES:
            retired = self._retired = {}
        for name, field in pairs:
            retired[name] = retired.get(name, 0) + getattr(obj, field)

    def refused_connections(self) -> int:
        """Connections refused at a transport's ``max_connections`` wall,
        summed over the transports that count them."""
        return sum(getattr(x, "refused_connections", 0)
                   for x in self.transports.values())

    def shutdown(self) -> None:
        if self._shutdown:
            return
        self._shutdown = True
        self.spans.record_event(self.env.now(), "daemon", "shutdown")
        with self.lock:
            for handle in list(self._schedules.values()):
                handle.cancel()
            self._schedules.clear()
            for prod in list(self.producers.values()):
                prod.stop()
                self._retire(_UPDATE_COUNTS, prod.stats)
            self.producers = _NO_ENTRIES
            for dialer in self._advertisements.values():
                dialer.stop()
            self._advertisements = _NO_ENTRIES
            for lst in self._listeners:
                lst.close()
            # on_close handlers prune the served list; iterate a copy.
            for ep in list(self._served_endpoints):
                if not ep.closed:
                    ep.close()
            # Let every write a flush task is in finish (the wait
            # releases the daemon lock, which the task needs to end),
            # then drain batched rows still waiting on a flush-pool
            # wakeup before the stores close, so shutdown never loses
            # them and never closes a store under a write.
            for batch in self._flush_batches.values():
                while batch.writing:
                    batch.idle.wait()
            self._observe_staged()
            for batch in self._flush_batches.values():
                rows = (batch.sealed or []) + batch.rows
                batch.sealed = None
                batch.rows = []
                if rows:
                    self._flush_rows(batch.store, rows)
            for store in self.stores:
                store.close()
        if self._own_env:
            self.env.shutdown()

    def __enter__(self) -> "Ldmsd":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
