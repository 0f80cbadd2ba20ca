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
from functools import partial
from typing import Any, NamedTuple, Optional

from repro.core import sanitize, wire
from repro.core.aggregator import Producer, ProducerConfig, backoff_delay
from repro.core.env import Env, RealEnv, SimEnv, WorkerPool
from repro.core.memory import Arena
from repro.core.metric import MetricType
from repro.core.metric_set import MetricSet, SetInfo
from repro.core.sampler import SamplerPlugin, sampler_registry
from repro.core.store import StorePlugin, StorePolicy, StoreRecord, store_registry
from repro.obs import (
    FlightRecorder,
    FreshnessTracker,
    SpanRecorder,
    Telemetry,
    Tracer,
)
from repro.obs import flight as flightmod
from repro.obs.spans import HOP_SAMPLE, HOP_STORE
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

#: Every instrument a daemon binds by role (``start_sampler`` /
#: ``add_store`` / ``enable_query``) or looks up by name on a cold path.
#: Declared to the registry at birth, so ``stats()`` / ``prof`` list all
#: of them, zeroed, whatever roles the daemon has taken — schema-stable
#: for pollers without an object per name on every sampler.
_OBS_COUNTERS = (
    "arena.fallback_sets", "arena.rows_vectorized", "arena.sweeps",
    "sampler.samples", "serve.dir_req", "serve.lookup_req",
    "serve.query_req", "set.create_failed", "store.errors",
    "store.flush_rows_batched", "store.no_match", "wire.malformed_frames")
_OBS_HISTOGRAMS = (
    "pipeline.sample_to_store", "sample.duration", "serve.query",
    "store.flush", "store.flush_batch_rows")


class _StagedRow:
    """A store delivery staged as a raw arena-row snapshot.

    On the columnar path the aggregator defers record construction to
    the flush batch, where all staged rows of one schema decode as a
    single 2-D array sweep.  The snapshot is taken at delivery time, so
    a mirror re-installed before the flush drains cannot retroactively
    change what gets stored.  ``values = None`` marks the row as staged
    for :meth:`_FlushBatch.seal`, which prices it by ``card`` exactly
    like a materialized record.
    """

    __slots__ = ("data", "ts", "producer", "schema", "card", "mirror")

    values = None

    def __init__(self, data: bytes, ts: float, producer: str, mirror: MetricSet):
        self.data = data
        self.ts = ts
        self.producer = producer
        self.schema = mirror.schema
        self.card = mirror.card
        self.mirror = mirror


class _ServedEndpoint(NamedTuple):
    """Serve-side callbacks of one accepted connection."""

    daemon: "Ldmsd"
    endpoint: Endpoint

    def on_message(self, raw: bytes) -> None:
        self.daemon._serve(self.endpoint, raw)

    def on_close(self) -> None:
        self.daemon._drop_served(self.endpoint)


class _RegionReader(NamedTuple):
    """One-sided-read source of a published set, resolved by *name* at
    fetch time: the registration outlives the set (then reads empty)."""

    sets: dict[str, MetricSet]
    name: str

    def __call__(self) -> bytes:
        mset = self.sets.get(self.name)
        return mset.data_bytes() if mset is not None else b""


class _FlushBatch:
    """Pending rows for one store, drained in bulk by a flush task.

    ``seal()`` runs when a flush worker is acquired: it claims up to
    ``FLUSH_BATCH_MAX`` pending rows and returns their summed simulated
    cost (base + per-metric for every row, so pool busy-time accounting
    — the §IV-D utilization numbers — is per record while the
    heap-event count is per batch).  The split is two steps, so under
    real threads the caller holds the daemon lock against appends.
    """

    __slots__ = ("store", "rows", "sealed", "scheduled")

    def __init__(self, store: StorePlugin):
        self.store = store
        #: pending (record, t_submit, trace) rows, append order
        self.rows: list[tuple] = []
        self.sealed: Optional[list[tuple]] = None
        self.scheduled = False

    def seal(self) -> float:
        rows = self.rows
        if len(rows) <= FLUSH_BATCH_MAX:
            self.sealed = rows
            self.rows = []
        else:
            self.sealed = rows[:FLUSH_BATCH_MAX]
            self.rows = rows[FLUSH_BATCH_MAX:]
        cost = STORE_BASE_COST * len(self.sealed)
        for record, _t, _tr in self.sealed:
            vals = record.values
            cost += STORE_PER_METRIC_COST * (
                record.card if vals is None else len(vals)
            )
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
    obs_enabled:
        Whether the daemon's self-instrumentation registry
        (:class:`repro.obs.Telemetry`) and pipeline tracer are live.
        Disabled, every hook degrades to a shared no-op instrument and
        the update path allocates no trace objects.
    """

    __slots__ = (
        "name", "_own_env", "env", "transports", "core", "fs", "arena", "lock",
        "obs", "tracer", "spans", "freshness", "flight", "set_pool",
        "_cohort_scheduler", "worker_pool", "_conn_pool", "_flush_pool",
        "_conn_threads", "_flush_threads", "update_cpu_cost",
        "connect_cpu_cost", "_flush_batches", "_sets", "_region_ids",
        "_region_names", "_next_region", "_plugins", "_schedules",
        "producers", "stores", "_stores_version", "_listeners",
        "_served_endpoints", "_advertisements", "records_delivered",
        "query_engine", "_shutdown", "__weakref__",
        # Hot-path instruments, bound by start_sampler / add_store /
        # enable_query when the daemon takes that role.
        "_h_sample", "_c_samples", "_h_store_flush", "_h_flush_batch_rows",
        "_h_sample_to_store", "_c_flush_rows_batched", "_c_store_no_match",
        "_h_query", "_c_query_req",
    )

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
        obs_enabled: bool = True,
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
            from repro.nodefs.fs import RealFS

            fs = RealFS()
        #: Filesystem sampler plugins read node counters through
        #: (RealFS on a live host, SynthFS in the simulator).
        self.fs = fs
        self.arena = Arena(parse_size(mem))
        self.lock = env.make_lock()

        #: Self-instrumentation: the telemetry registry and the
        #: per-update-transaction tracer.  Hot-path instruments are
        #: bound once, when the daemon takes the role that uses them,
        #: so sampling/update/store code pays one attribute access per
        #: event, not a registry lookup.
        self.obs = Telemetry(enabled=obs_enabled)
        self.obs.declare(_OBS_COUNTERS, _OBS_HISTOGRAMS)
        self.tracer = Tracer(env.now, enabled=obs_enabled)
        #: Observability plane (PR 7): the per-hop span ring feeding
        #: Chrome trace export, the per-producer freshness tracker (only
        #: populated on daemons with producers), and the always-on
        #: flight recorder behind postmortem dumps.  All three follow
        #: the registry's discipline: disabled means no-op hot paths.
        self.spans = SpanRecorder(name, enabled=obs_enabled)
        self.freshness = FreshnessTracker(enabled=obs_enabled)
        self.flight = FlightRecorder(name, enabled=obs_enabled)
        flightmod.register_daemon(self)
        self.flight.record(env.now(), "daemon", "start")
        if sanitize.enabled():
            # REPRO_SANITIZE=count routes discipline violations into
            # this registry (ldmsd_self exports the aggregate).
            sanitize.register_registry(self.obs)

        #: Columnar data plane: the environment-wide set-arena pool
        #: and sampler-cohort scheduler, or None under RealEnv and
        #: ``SimEnv(arena=False)``.  All sets this daemon creates or
        #: mirrors are arena-row-backed when the pool is present.
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
        self._flush_batches: dict[StorePlugin, _FlushBatch] = {}

        self._sets: dict[str, MetricSet] = {}
        self._region_ids: dict[str, int] = {}
        self._region_names: dict[int, str] = {}
        self._next_region = 1
        self._plugins: dict[str, SamplerPlugin] = {}
        #: sampler instance -> cancellable handle of its periodic firing
        self._schedules: dict[str, Any] = {}
        self.producers: dict[str, Producer] = {}
        self.stores: list[StorePlugin] = []
        #: Bumped by add_store; invalidates per-mirror store-match caches.
        self._stores_version = 0
        self._listeners: list[Listener] = []
        self._served_endpoints: list[Endpoint] = []
        #: advertisement name -> mutable state shared with its retry
        #: loop ({"stopped", "attempts", "endpoint"}).
        self._advertisements: dict[str, dict] = {}
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
        self, name: str, schema: str, metrics: list[tuple[str, MetricType, int]]
    ) -> MetricSet:
        """Create and publish a metric set (sampler plugins call this)."""
        with self.lock:
            if name in self._sets:
                raise ConfigError(f"metric set {name!r} already exists")
            try:
                mset = MetricSet.create(name, schema, metrics, self.arena,
                                        pool=self.set_pool)
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
                self._region_ids.pop(name, None)
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
            self._region_ids.pop(mset.name, None)

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
        with self.lock:
            plugin = self._require_plugin(instance)
            if instance in self._schedules:
                raise ConfigError(f"sampler {instance!r} already started")

            # Bind the per-tick constants once: the plugin's set layout
            # is frozen at config(), so sample_cost is loop-invariant,
            # and the begin/finish callables need not be rebuilt per
            # firing.
            sample_cost = plugin.sample_cost
            self._h_sample = self.obs.histogram("sample.duration")
            self._c_samples = self.obs.counter("sampler.samples")

            # Columnar fast path: same-phase, same-pattern samplers ride
            # one cohort sweep (one timer + one finish event for the
            # whole node class) instead of per-instance events.  The
            # scalar path below serves environments without an arena
            # and anything the sweep cannot vectorize.
            sched = self._cohort_scheduler
            if sched is not None:
                veckey = plugin.cohort_key()
                mset = plugin._sets[0] if len(plugin._sets) == 1 else None
                if (veckey is not None and mset is not None
                        and mset._ab is not None
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

            begin = partial(self._begin_sample, plugin)
            finish = partial(self._finish_sample, plugin)
            submit = self.worker_pool.submit
            core = self.core

            def fire() -> None:
                submit(finish, cost=sample_cost, core=core, tag="sampler",
                       on_start=begin)

            self._schedules[instance] = self.env.call_every(
                interval, fire, synchronous=offset is not None, offset=offset or 0.0
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

    def _begin_sample(self, plugin: SamplerPlugin) -> None:
        with self.lock:
            plugin._sample_t0 = self.env.now()
            plugin.begin_sample()

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
            self._h_sample.observe(duration)
            self._c_samples.inc()

    # ------------------------------------------------------------------
    # serving (any daemon can be pulled from)
    # ------------------------------------------------------------------
    def listen(self, xprt: str, addr) -> Listener:
        """Listen for incoming aggregator connections on a transport."""
        transport = self._transport(xprt)
        listener = transport.listen(addr, self._on_peer_connect)
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

    def _on_peer_connect(self, endpoint: Endpoint) -> None:
        endpoint.obs = self.obs
        served = _ServedEndpoint(self, endpoint)
        endpoint.on_message = served.on_message
        # Observability plane: daemon clock for the transport HELLO /
        # peer-age anchor, and the serve-side traced-read hook.  Both
        # must be installed before the transport starts reading.
        endpoint.clock = self.env.now
        endpoint.on_traced_read = self._on_traced_read
        self.flight.record(self.env.now(), "conn", "peer_connect",
                           len(self._served_endpoints))
        # Prune on close, or served endpoints accumulate forever on a
        # long-lived daemon whose peers churn.
        endpoint.on_close = served.on_close
        self._served_endpoints.append(endpoint)

    def _drop_served(self, endpoint: Endpoint) -> None:
        with self.lock:
            if endpoint in self._served_endpoints:
                self._served_endpoints.remove(endpoint)
                self.flight.record(self.env.now(), "conn", "peer_close",
                                   len(self._served_endpoints))

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
        if not spans.enabled:
            return
        now = self.env.now()
        serve_sid = spans.alloc()
        spans.record(trace_id, serve_sid, parent_span,
                     hop - 1 if hop > 1 else 1, "serve_read", now, now)
        set_name = self._region_names.get(region_id)
        mset = self._sets.get(set_name) if set_name is not None else None
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
            self.obs.counter("serve.dir_req").inc()
            endpoint.send(
                wire.encode_frame(
                    wire.MsgType.DIR_REPLY,
                    frame.request_id,
                    wire.pack_dir_reply(self.dir_info()),
                )
            )
        elif frame.msg_type == wire.MsgType.LOOKUP_REQ:
            self.obs.counter("serve.lookup_req").inc()
            set_name = wire.unpack_lookup_req(frame.payload)
            if frame.trace is not None and self.spans.enabled:
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
        if eng is None:
            self.obs.counter("serve.query_req").inc()
            endpoint.send(wire.encode_frame(
                wire.MsgType.QUERY_REPLY, rid,
                wire.pack_query_reply(wire.E_NOENT)))
            return
        self._c_query_req.inc()
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

    def enable_query(self, store=None, hot_window: float = 60.0,
                     cache_entries: int = 256):
        """Attach the query/serving tier to this daemon's SOS store.

        ``store=None`` picks the first configured
        :class:`~repro.plugins.stores.sos.SosStore`.  Served queries
        arrive as feature-gated ``QUERY_REQ`` frames on any listening
        transport and run on the worker pool.
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
            self._c_query_req = self.obs.counter("serve.query_req")
            self.query_engine = QueryEngine(
                store, self.env.now, obs=self.obs,
                hot_window=hot_window, cache_entries=cache_entries)
            return self.query_engine

    def _region_id_for(self, set_name: str) -> int:
        rid = self._region_ids.get(set_name)
        if rid is None:
            rid = self._next_region
            self._next_region += 1
            self._region_ids[set_name] = rid
            # Append-only reverse map: an endpoint's registered reader
            # survives set deletion (it reads by name), so a traced read
            # must keep resolving old region ids the same way for as
            # long as the daemon lives.
            self._region_names[rid] = set_name
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
        that connection.  Reconnects with capped, deterministically
        jittered exponential backoff while the aggregator is away;
        :meth:`stop_advertise` (or :meth:`shutdown`) retires the loop
        and closes the advertised endpoint.  Returns the advertised
        name, the handle ``stop_advertise`` takes."""
        adv_name = name or self.name
        transport = self._transport(xprt)
        with self.lock:
            if adv_name in self._advertisements:
                raise ConfigError(f"already advertising as {adv_name!r}")
            state: dict = {"stopped": False, "attempts": 0, "endpoint": None}
            self._advertisements[adv_name] = state

        def retry() -> None:
            delay = backoff_delay("advertise", adv_name, state["attempts"],
                                  reconnect_interval, reconnect_max)
            state["attempts"] += 1
            self.env.call_later(delay, schedule)

        def on_closed(endpoint: Endpoint) -> None:
            with self.lock:
                state["endpoint"] = None
                self._drop_served(endpoint)
                if not (self._shutdown or state["stopped"]):
                    retry()

        def on_connected(endpoint: Optional[Endpoint]) -> None:
            with self.lock:
                if self._shutdown or state["stopped"]:
                    if endpoint is not None:
                        endpoint.close()
                    return
                if endpoint is None:
                    retry()
                    return
                state["attempts"] = 0
                state["endpoint"] = endpoint
                endpoint.obs = self.obs
                endpoint.on_message = lambda raw: self._serve(endpoint, raw)
                endpoint.on_close = lambda: on_closed(endpoint)
                self._served_endpoints.append(endpoint)
                endpoint.send(
                    wire.encode_frame(wire.MsgType.ADVERTISE, 0,
                                      wire.pack_advertise(adv_name))
                )

        def attempt() -> None:
            transport.connect(addr, on_connected)

        def schedule() -> None:
            if self._shutdown or state["stopped"]:
                return
            self.conn_pool.submit(attempt, cost=self.connect_cpu_cost,
                                  core=self.core, tag="advertise")

        schedule()
        return adv_name

    def stop_advertise(self, name: Optional[str] = None) -> None:
        """Retire an advertisement: no further reconnect attempts, and
        the advertised endpoint (if up) is closed and pruned."""
        adv_name = name or self.name
        with self.lock:
            state = self._advertisements.pop(adv_name, None)
            if state is None:
                raise ConfigError(f"not advertising as {adv_name!r}")
            state["stopped"] = True
            endpoint = state["endpoint"]
        if endpoint is not None and not endpoint.closed:
            endpoint.close()

    def remove_producer(self, name: str) -> None:
        with self.lock:
            prod = self.producers.pop(name, None)
            if prod is None:
                raise ConfigError(f"no producer {name!r}")
            prod.stop()

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
            self._c_flush_rows_batched = obs.counter("store.flush_rows_batched")
            self._c_store_no_match = obs.counter("store.no_match")
            self.stores.append(store)
            self._stores_version += 1
            return store

    def _matching_stores(self, mirror: MetricSet, producer_name: str) -> tuple:
        """Stores whose policy matches this mirror, cached on the mirror.

        Policy inputs (schema, producer) are frozen per (mirror,
        producer) pair, so the filter runs once per mirror lifetime
        rather than once per delivered record; the cache invalidates
        when a store is added (``_stores_version``)."""
        cached = mirror._store_match
        if cached is not None and cached[0] == self._stores_version:
            return cached[1]
        matched = tuple(
            s for s in self.stores
            if s.policy.matches_keys(mirror.schema, producer_name)
        )
        mirror._store_match = (self._stores_version, matched)
        return matched

    def _deliver_to_stores(
        self, producer: Producer, mirror: MetricSet, trace=None,
        ts: Optional[float] = None,
    ) -> None:
        """``ts``: the mirror's transaction timestamp, if already decoded."""
        if not self.stores:
            return
        if self.set_pool is not None and mirror._ab is not None:
            self._deliver_staged(producer, mirror, trace,
                                 mirror.timestamp if ts is None else ts)
            return
        record = StoreRecord.from_set(mirror, producer.cfg.name)
        self.records_delivered += 1
        now = self.env.now()
        if trace is not None:
            trace.t_store_submit = now
            trace.sample_ts = record.timestamp
        # End-to-end pipeline latency: sampler transaction close (the
        # timestamp carried in the data chunk) -> store hand-off here.
        self._h_sample_to_store.observe(max(now - record.timestamp, 0.0))
        matched = False
        for store in self.stores:
            if store.wants(record):
                matched = True
                self._enqueue_flush(store, record, now, trace)
        if not matched:
            self._c_store_no_match.inc()

    def _deliver_staged(
        self, producer: Producer, mirror: MetricSet, trace, ts: float
    ) -> None:
        """Columnar delivery: stage a raw arena-row snapshot per store.

        Accounting (delivery count, sample->store latency, no-match
        counter, trace stamps) matches the scalar delivery exactly;
        only :class:`StoreRecord` construction moves into the flush
        drain, where every staged row of one layout decodes as a single
        2-D numpy sweep.  The snapshot pins the delivered bytes, so a
        mirror re-installed before the drain cannot change what is
        stored.
        """
        if mirror._shadow is not None:
            sanitize.check_read(mirror)
        self.records_delivered += 1
        now = self.env.now()
        if trace is not None:
            trace.t_store_submit = now
            trace.sample_ts = ts
        self._h_sample_to_store.observe(max(now - ts, 0.0))
        stores = self._matching_stores(mirror, producer.cfg.name)
        if not stores:
            self._c_store_no_match.inc()
            return
        staged = _StagedRow(bytes(mirror._data), ts, producer.cfg.name, mirror)
        for store in stores:
            self._enqueue_flush(store, staged, now, trace)

    def _enqueue_flush(self, store: StorePlugin, row, now: float,
                       trace) -> None:
        """Append one delivery to ``store``'s pending batch and make
        sure a flush task is on its way (caller holds the daemon lock).

        ``scheduled`` is true whenever rows are pending: the flush task
        clears it under the same lock, only after finding none."""
        batch = self._flush_batches.get(store)
        if batch is None:
            batch = self._flush_batches[store] = _FlushBatch(store)
        batch.rows.append((row, now, trace))
        if not batch.scheduled:
            batch.scheduled = True
            self._submit_flush(batch)

    def _submit_flush(self, batch: _FlushBatch) -> None:
        self.flush_pool.submit(
            partial(self._flush_batched, batch),
            cost=batch.seal, core=self.core, tag="store",
        )

    def _record_store_span(self, trace, t_submit: float, end: float) -> None:
        """Store-flush span of one traced transaction (exemplar path)."""
        sid = trace.span_id
        if sid is None or not self.spans.enabled:
            return
        self.spans.record(trace.trace_id, self.spans.alloc(), sid,
                          HOP_STORE, "store_flush", t_submit, end)

    def _flush_batched(self, batch: _FlushBatch) -> None:
        """Flush-pool task: drain one sealed batch through the store's
        vectorized write, then reschedule if rows accumulated while the
        worker was busy (a loaded flush thread runs back-to-back)."""
        with self.lock:
            if batch.sealed is None:
                # RealEnv pools never evaluate the cost callable; seal here.
                batch.seal()
            rows, batch.sealed = batch.sealed, None
        # The store write stays outside the daemon lock: deliveries keep
        # appending to batch.rows while this worker is in the backend.
        if rows and not self._shutdown:
            self._flush_rows(batch.store, rows)
        with self.lock:
            if batch.rows and not self._shutdown:
                self._submit_flush(batch)
            else:
                batch.scheduled = False

    #: Staged groups below this size decode row-by-row: reshaping a
    #: couple of rows through numpy costs more than two struct unpacks.
    _VEC_MIN_ROWS = 4

    def _materialize_rows(self, rows: list[tuple]) -> list[StoreRecord]:
        """Turn a drained batch into records, vectorizing staged rows.

        Staged rows sharing one compiled layout are joined into a
        single (n_rows, data_size) uint8 matrix; one strided view +
        ``tolist()`` then decodes every value of every row — the
        store-side half of the §IV-D claim that per-record costs must
        not scale with fan-in.  The decoded Python values are exactly
        what per-row ``struct`` unpacking yields, so downstream
        formatting is byte-identical.
        """
        out: list = [None] * len(rows)
        groups: dict = {}
        for i, (row, _t, _tr) in enumerate(rows):
            if row.values is not None:  # already a materialized record
                out[i] = row
            else:
                groups.setdefault(row.mirror._compiled, []).append(i)
        for cs, idxs in groups.items():
            dtype = cs.array_dtype
            if dtype is not None and len(idxs) >= self._VEC_MIN_ROWS:
                import numpy as np

                first = rows[idxs[0]][0]
                width = first.card * np.dtype(dtype).itemsize
                mat = np.frombuffer(
                    b"".join(rows[i][0].data for i in idxs), dtype=np.uint8
                ).reshape(len(idxs), len(first.data))
                vals = (mat[:, cs.first_offset:cs.first_offset + width]
                        .view(dtype).tolist())
                # One vectorized sweep: per batch, so looked up by name.
                self.obs.counter("arena.sweeps").inc()
                self.obs.counter("arena.rows_vectorized").inc(len(idxs))
                for j, i in enumerate(idxs):
                    sr = rows[i][0]
                    m = sr.mirror
                    out[i] = StoreRecord(
                        timestamp=sr.ts, producer=sr.producer,
                        set_name=m.name, schema=m.schema, names=m._names,
                        component_ids=m._comp_ids, values=tuple(vals[j]),
                        mtypes=cs.mtypes,
                    )
            else:
                for i in idxs:
                    sr = rows[i][0]
                    m = sr.mirror
                    out[i] = StoreRecord(
                        timestamp=sr.ts, producer=sr.producer,
                        set_name=m.name, schema=m.schema, names=m._names,
                        component_ids=m._comp_ids,
                        values=m.snapshot_values(sr.data),
                        mtypes=cs.mtypes,
                    )
        return out

    def _flush_rows(self, store: StorePlugin, rows: list[tuple]) -> None:
        """Write one drained batch and account per-row flush latency."""
        n = len(rows)
        failed = store.submit_many(self._materialize_rows(rows))
        self._c_flush_rows_batched.inc(n)
        self._h_flush_batch_rows.observe(n)
        if failed:
            self.obs.counter("store.errors").inc(failed)
            return
        end = self.env.now()
        self.flight.record(end, "store", "flush", n)
        h = self._h_store_flush
        for _record, t_submit, trace in rows:
            h.observe(end - t_submit)
            if trace is not None:
                trace.t_store_done = end
                self._record_store_span(trace, t_submit, end)

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
                                "cache_misses": 0, "rows_served": 0,
                                "lru_entries": 0, "hot_containers": 0}),
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

    def refused_connections(self) -> int:
        """Connections refused at a transport's ``max_connections`` wall,
        summed over the transports that count them."""
        return sum(getattr(x, "refused_connections", 0)
                   for x in self.transports.values())

    def total_set_bytes(self) -> int:
        """Total metric-set memory (metadata + data) held by the daemon."""
        with self.lock:
            return sum(s.total_size for s in self._sets.values())

    def shutdown(self) -> None:
        if self._shutdown:
            return
        self._shutdown = True
        self.flight.record(self.env.now(), "daemon", "shutdown")
        with self.lock:
            for handle in list(self._schedules.values()):
                handle.cancel()
            self._schedules.clear()
            for prod in list(self.producers.values()):
                prod.stop()
            self.producers.clear()
            for state in self._advertisements.values():
                state["stopped"] = True
            self._advertisements.clear()
            for lst in self._listeners:
                lst.close()
            # on_close handlers prune the served list; iterate a copy.
            for ep in list(self._served_endpoints):
                if not ep.closed:
                    ep.close()
            # Drain batched rows still waiting on a flush-pool wakeup
            # before the stores close, so shutdown never loses them.
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
