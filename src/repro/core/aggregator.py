"""Aggregator-side state machines: producers, lookups, updates.

An aggregator ldmsd maintains one :class:`Producer` per collection
target (a sampler or another aggregator).  Per target it runs the
protocol of paper Fig. 2:

* connect (on the connection thread pool — kept separate from the
  update workers so connect timeouts on problem nodes cannot starve
  collection, §IV-B);
* lookup each configured metric set → build a local mirror from the
  metadata reply {c};
* on each collection interval, pull the data chunk {e}/{f} — a
  one-sided read that consumes no sampler CPU on RDMA transports;
* validate: MGN match (else re-lookup), consistent flag set and DGN
  advanced (else skip storage, §IV-A);
* hand fresh consistent records to the store layer {i}.

Non-reporting hosts are bypassed (an update already in flight is not
re-issued) and retried on the next interval.  *Standby* producers are
connected and looked-up but not pulled until explicitly activated —
the failover mechanism of §IV-B, which the paper notes is driven by an
external watchdog, not by the aggregator itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.core import wire
from repro.core.metric_set import MetricSet, SchemaMismatch, SetInfo
from repro.obs.spans import HOP_UPDATE, UpdateSpan
from repro.transport.base import Endpoint
from repro.util.errors import OutOfMemory, StoreError, WireError
from repro.util.rngtools import stable_seed

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ldmsd import Ldmsd

__all__ = ["ProducerConfig", "Producer", "UpdaterState", "SetState", "UpdateStats",
           "Dialer", "backoff_delay"]


def backoff_delay(label: str, name: str, attempts: int, base: float,
                  cap: float) -> float:
    """Delay before redial number ``attempts`` (0-based) of peer ``name``.

    Capped exponential backoff with deterministic decorrelating jitter:
    attempt ``n`` waits up to ``base * 2**n`` (capped at ``cap``), shaved
    by up to 25% by a jitter derived from ``label``, the name and the
    attempt number — stable across runs (DES determinism) yet different
    across peers, so a mass disconnect does not retry in lockstep.
    """
    raw = min(base * (2.0 ** min(attempts, 20)), cap)
    j = (stable_seed(label, name, attempts) % 1000) / 1000.0
    return raw * (1.0 - 0.25 * j)


class Dialer:
    """The one way a daemon opens a connection and keeps it open.

    Dials ``addr`` on the daemon's connection-setup pool (§IV-B: a peer
    hung in connect timeout cannot starve the update workers), hands a
    new endpoint to ``on_up`` under the daemon lock, and redials after
    :func:`backoff_delay` when a dial fails or the owner reports the
    connection lost (:meth:`redial`).  A successful dial resets the
    attempt count; :meth:`stop` ends the loop and closes the connection.
    An active :class:`Producer` dials its target with one (backoff label
    ``"reconnect"``, pool tag ``"agg-conn"``); a sampler advertising
    itself to an aggregator dials with another (``"advertise"``).
    """

    __slots__ = ("daemon", "transport", "addr", "label", "name", "tag",
                 "base", "cap", "on_up", "endpoint", "attempts", "dialing",
                 "stopped", "_handle")

    def __init__(self, daemon: "Ldmsd", transport, addr, label: str,
                 name: str, tag: str, base: float, cap: float, on_up):
        self.daemon = daemon
        self.transport = transport
        self.addr = addr
        self.label = label
        self.name = name
        self.tag = tag
        self.base = base
        self.cap = cap
        self.on_up = on_up
        #: The connection the last successful dial brought up, until
        #: the owner reports it lost.
        self.endpoint: Optional[Endpoint] = None
        self.attempts = 0
        self.dialing = False
        self.stopped = False
        self._handle = None

    def delay(self) -> float:
        """Delay before the next redial (:func:`backoff_delay`)."""
        return backoff_delay(self.label, self.name, self.attempts,
                             self.base, self.cap)

    def dial(self) -> None:
        """Dial now, unless stopped, dialling, or waiting out a backoff."""
        if self.stopped or self.dialing or self._handle is not None:
            return
        self.dialing = True
        daemon = self.daemon
        daemon.conn_pool.submit(self._attempt, cost=daemon.connect_cpu_cost,
                                core=daemon.core, tag=self.tag)

    def _attempt(self) -> None:
        self.transport.connect(self.addr, self._connected)

    def _connected(self, endpoint: Optional[Endpoint]) -> None:
        with self.daemon.lock:
            self.dialing = False
            if self.stopped:
                if endpoint is not None:
                    endpoint.close()
                return
            if endpoint is None:
                self.redial()
                return
            self.attempts = 0
            self.endpoint = endpoint
            self.on_up(endpoint)

    def redial(self) -> None:
        """The dial failed or the connection closed: dial again after
        the next backoff delay (caller holds the daemon lock)."""
        self.endpoint = None
        if self.stopped or self._handle is not None:
            return
        delay = self.delay()
        self.attempts += 1
        self._handle = self.daemon.env.call_later(delay, self._retry)

    def _retry(self) -> None:
        with self.daemon.lock:  # a tick may kick dial() meanwhile
            self._handle = None
            self.dial()

    def stop(self) -> None:
        """Dial no more, and close the connection if it is up."""
        self.stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        endpoint = self.endpoint
        if endpoint is not None and not endpoint.closed:
            endpoint.close()


@dataclass(frozen=True, slots=True)
class ProducerConfig:
    """Configuration of one collection target.

    ``sets=()`` means "discover via DIR and collect everything".  The
    collection ``interval`` cannot be changed after the producer is
    added (the paper: "the aggregation schedule cannot be altered once
    set without restarting the aggregator").  ``offset`` non-None makes
    collection synchronous (aligned to wall-clock multiples of the
    interval plus offset).
    """

    name: str
    xprt: str
    addr: object
    interval: float
    sets: tuple[str, ...] = ()
    offset: Optional[float] = None
    standby: bool = False
    #: Base reconnect delay; consecutive failures back off exponentially
    #: (deterministically jittered) up to ``reconnect_max``, resetting on
    #: a successful connect — a dead target costs one attempt per
    #: ``reconnect_max`` instead of hammering every 2 s forever.
    reconnect_interval: float = 2.0
    reconnect_max: float = 60.0
    #: Seconds a lookup may stay unanswered before the updater falls
    #: back to ``NEW`` and retries (a lost LOOKUP_REPLY otherwise wedges
    #: the set in ``LOOKUP_PENDING`` forever).  ``None`` = twice the
    #: collection interval.
    lookup_timeout: Optional[float] = None
    #: For discovery-mode producers (``sets=()``): re-issue DIR_REQ
    #: every this many ticks so sets deleted on the target are pruned
    #: from the mirror table.  0 disables refresh.
    dir_refresh: int = 5
    #: Passive producers don't dial out; the sampler connects to the
    #: aggregator and advertises itself (asymmetric network access,
    #: §IV-B: "mechanisms to enable initiation of a connection from
    #: either side").  ``addr`` is unused for passive producers.
    passive: bool = False


class SetState(enum.Enum):
    NEW = "new"
    LOOKUP_PENDING = "lookup"
    READY = "ready"


@dataclass(slots=True)
class UpdateStats:
    lookups_sent: int = 0
    lookups_failed: int = 0
    lookups_timed_out: int = 0  # reply never arrived; updater reset to NEW
    sets_pruned: int = 0  # sets dropped because DIR no longer lists them
    updates_issued: int = 0
    updates_completed: int = 0
    updates_failed: int = 0
    #: Of ``updates_issued``, how many rode a coalesced multi-set fetch
    #: (one wire round-trip amortised over all READY sets, §IV-D).
    updates_coalesced: int = 0
    skipped_stale: int = 0  # DGN unchanged since last store
    skipped_inconsistent: int = 0  # torn read: consistent flag clear
    skipped_busy: int = 0  # previous update still in flight (bypass)
    schema_refreshes: int = 0  # MGN mismatch forced a re-lookup
    stored: int = 0
    #: When the last update completed (daemon clock) and the cumulative
    #: issue->completion time in seconds — enough to read a producer row
    #: as "mean RTT = update_time_total / updates_completed, last seen
    #: at last_update_ts" without the full histogram dump.
    last_update_ts: float = 0.0
    update_time_total: float = 0.0


@dataclass(slots=True)
class UpdaterState:
    """Per-(producer, set) collection state."""

    set_name: str
    state: SetState = SetState.NEW
    mirror: Optional[MetricSet] = None
    region_id: int = 0
    last_dgn: Optional[int] = None
    in_flight: bool = False
    #: Transaction timestamp of the last record stored from this set —
    #: the freshness tracker derives missed-interval hints from the gap
    #: to the next stored timestamp (per-set, because a per-producer
    #: timestamp would see interleaved sets as gaps).
    last_stored_ts: float = 0.0
    #: Learned DGN stride: the DGN advances once per metric *element*
    #: written, so one transaction moves it by the (schema-dependent)
    #: number of elements the sampler touches.  The smallest positive
    #: delta ever observed is that per-transaction stride; a delta of
    #: ``k`` strides then means ``k - 1`` transactions were skipped.
    dgn_stride: int = 0


class _Pull:
    """One single-set update in flight: the read's completion callback,
    then the update-worker task that validates and stores the data.

    One object per pull, built without an ``__init__`` frame, stands in
    for a bound method plus a ``partial`` at each of the two hops.
    """

    __slots__ = ("producer", "upd", "t_issue", "span", "data")

    def __call__(self, data: Optional[bytes]) -> None:
        # The read completed: validation runs on an update worker.
        self.data = data
        daemon = self.producer.daemon
        daemon.worker_pool.submit(self.complete, daemon.update_cpu_cost,
                                  daemon.core, "agg-update")

    def complete(self) -> None:
        self.producer._complete_update(self.upd, self.data, self.t_issue,
                                       self.span)


class Producer:
    """Runtime state of one collection target inside an aggregator."""

    __slots__ = (
        "daemon", "cfg", "endpoint", "dialer", "active", "updaters",
        "stats", "_timer", "_ticks_since_dir", "_next_req_id", "_pending_lookups", "stopped",
        "_fresh", "_h_lookup_rtt", "_h_update_rtt")

    def __init__(self, daemon: "Ldmsd", cfg: ProducerConfig):
        self.daemon = daemon
        self.cfg = cfg
        self.endpoint: Optional[Endpoint] = None
        #: Redial loop of an active producer; None for a passive one,
        #: which waits for the sampler to advertise.
        self.dialer: Optional[Dialer] = None if cfg.passive else Dialer(
            daemon, daemon.transports[cfg.xprt], cfg.addr, "reconnect",
            cfg.name, "agg-conn", cfg.reconnect_interval, cfg.reconnect_max,
            self._bind)
        self.active = not cfg.standby  # standby producers don't pull
        self.updaters: dict[str, UpdaterState] = {
            name: UpdaterState(name) for name in cfg.sets
        }
        self.stats = UpdateStats()
        self._timer = None
        self._ticks_since_dir = 0
        self._next_req_id = 1
        #: req_id -> (set name, send time, span ctx or None) of
        #: in-flight lookups
        self._pending_lookups: dict[int, tuple[str, float, Optional[tuple]]] = {}
        self.stopped = False
        #: Freshness state in the daemon's tracker, or None while the
        #: producer is standby — the per-update cost is one
        #: ``is not None`` test.
        self._fresh = None
        # Telemetry histograms (shared daemon-wide by name; binding
        # them here keeps the per-event cost to one attribute access).
        # The daemon's update.* counts are read from ``stats``.
        obs = daemon.obs
        self._h_lookup_rtt = obs.histogram("lookup.rtt")
        self._h_update_rtt = obs.histogram("update.rtt")

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def start(self) -> None:
        # Arm freshness from the configured start, not first connect:
        # a target that never connects still owes its intervals, and the
        # expectation clock must match the experiments' ground truth
        # (expected counted from deployment time).
        self._arm_freshness()
        if self.dialer is not None:  # passive: wait for the advertise
            self.dialer.dial()

    def attach(self, endpoint: Endpoint) -> None:
        """Bind an incoming (advertised) connection to this producer."""
        if self.endpoint is not None and not self.endpoint.closed:
            self.endpoint.close()
        self._bind(endpoint)

    def _bind(self, endpoint: Endpoint) -> None:
        """Make ``endpoint`` this producer's connection and start the
        protocol on it (caller holds the daemon lock)."""
        self.endpoint = endpoint
        self.daemon._adopt(endpoint)
        endpoint.on_message = self._on_message_locked
        endpoint.on_close = self._on_close
        self._start_timer()
        self._arm_freshness()
        if not self.updaters:
            # Discover the target's sets first.
            endpoint.send(wire.encode_frame(wire.MsgType.DIR_REQ, 0))
        else:
            for name in self.updaters:
                self._send_lookup(name)

    def _arm_freshness(self) -> None:
        """(Re-)register with the daemon's freshness tracker.

        Called from the cold paths that change what this producer owes —
        connect/attach, activation, DIR-driven updater changes.  Standby
        producers stay unarmed: they are connected but not expected to
        deliver until promoted (§IV-B).
        """
        if not self.active or self.stopped:
            return
        nsets = len(self.updaters)
        self._fresh = self.daemon.freshness.arm(
            self.cfg.name, self.cfg.interval, nsets if nsets else 1,
            self.daemon.env.now())

    def _start_timer(self) -> None:
        """Arm the periodic update loop (first successful connect only).

        The first tick is additionally phase-shifted by a deterministic
        per-producer offset (derived from the producer name) so that
        periodic pulls across a deployment neither thundering-herd the
        aggregator nor sit exactly on top of the samplers' transaction
        windows — both would otherwise happen because daemons booted
        together share timer phases.
        """
        if self._timer is not None:
            return
        jitter = (stable_seed("producer-phase", self.cfg.name) % 997) / 997.0
        phase = jitter * min(self.cfg.interval * 0.25, 0.25)

        def arm() -> None:
            if self.stopped or self._timer is not None:
                return
            self._timer = self.daemon.env.call_every(
                self.cfg.interval,
                self._tick,
                synchronous=self.cfg.offset is not None,
                offset=self.cfg.offset or 0.0,
            )

        self.daemon.env.call_later(phase, arm)

    def stop(self) -> None:
        self.stopped = True
        self._fresh = None
        self.daemon.freshness.disarm(self.cfg.name)
        if self._timer is not None:
            self._timer.cancel()
        if self.dialer is not None:
            self.dialer.stop()
        if self.endpoint is not None:
            self.endpoint.close()
            self.endpoint = None
        self._drop_mirrors()

    def activate(self) -> None:
        """Promote a standby producer: begin pulling on the next tick."""
        self.active = True
        self._arm_freshness()

    def deactivate(self) -> None:
        self.active = False
        # A deactivated standby owes nothing; leaving it armed would
        # drag fleet completeness down with intervals it was never
        # expected to deliver.
        self._fresh = None
        self.daemon.freshness.disarm(self.cfg.name)

    @property
    def connected(self) -> bool:
        return self.endpoint is not None and not self.endpoint.closed

    def _on_close(self) -> None:
        with self.daemon.lock:
            if self.endpoint is not None:
                self.daemon._retire(self.endpoint)
            self.endpoint = None
            self._pending_lookups.clear()
            self._drop_mirrors()
            if self.dialer is not None:
                # Passive producers wait for the sampler to re-advertise.
                self.dialer.redial()

    def _drop_mirrors(self) -> None:
        for upd in self.updaters.values():
            if upd.mirror is not None:
                self.daemon._unregister_mirror(upd.mirror)
                upd.mirror.delete()
            upd.mirror = None
            upd.state = SetState.NEW
            upd.in_flight = False

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def _send_lookup(self, set_name: str) -> None:
        endpoint = self.endpoint
        if endpoint is None:
            return
        upd = self.updaters[set_name]
        upd.state = SetState.LOOKUP_PENDING
        rid = self._next_req_id
        self._next_req_id += 1
        # Lookups are cold-path (once per set per connect, plus retries)
        # so every one is traced — the serve side records its handling
        # span against the same aux trace id.
        spans = self.daemon.spans
        span = (spans.alloc_trace(), spans.alloc())
        trace = ((0, span[0], span[1], HOP_UPDATE),)
        self._pending_lookups[rid] = (set_name, self.daemon.env.now(), span)
        self.stats.lookups_sent += 1
        endpoint.send(
            wire.encode_frame(wire.MsgType.LOOKUP_REQ, rid,
                              wire.pack_lookup_req(set_name), trace)
        )

    def _on_message_locked(self, raw: bytes) -> None:
        with self.daemon.lock:
            try:
                self._on_message(raw)
            except WireError:
                self.daemon.obs.counter("wire.malformed_frames").inc()

    def _on_message(self, raw: bytes) -> None:
        frame = wire.decode_frame(raw)
        if frame.msg_type == wire.MsgType.DIR_REPLY:
            infos = wire.unpack_dir_reply(frame.payload)
            listed = {info.name for info in infos}
            changed = False
            for info in infos:
                if info.name not in self.updaters:
                    self.updaters[info.name] = UpdaterState(info.name)
                    self._send_lookup(info.name)
                    changed = True
            if changed:
                # Discovery changed what this producer owes per
                # interval; refresh the freshness tracker's set count.
                self._arm_freshness()
            if not self.cfg.sets:
                # Discovery mode: the directory is authoritative, so a
                # set it no longer lists was deleted on the target —
                # drop its updater and mirror instead of polling a dead
                # region forever.
                for name in [n for n in self.updaters if n not in listed]:
                    self._drop_updater(name)
        elif frame.msg_type == wire.MsgType.LOOKUP_REPLY:
            # Header and metadata chunk are both decoded before the
            # pending entry is consumed: a malformed reply leaves the
            # lookup to its timeout and retry.
            status, region_id, meta = wire.unpack_lookup_reply(frame.payload)
            pending = self._pending_lookups.get(frame.request_id)
            if pending is None:
                return
            set_name, t_sent, span = pending
            upd = self.updaters.get(set_name)
            mirror = None
            if upd is not None and status == wire.E_OK:
                if upd.mirror is not None:
                    self.daemon._unregister_mirror(upd.mirror)
                    upd.mirror.delete()
                    upd.mirror = None
                try:
                    mirror = MetricSet.from_meta(meta, self.daemon.arena,
                                                 pool=self.daemon.set_pool)
                except OutOfMemory:
                    # The aggregator's metric-set memory (-m) is
                    # exhausted; behave like ldmsd: the set cannot be
                    # mirrored until memory frees up.
                    pass
                except ValueError as exc:
                    raise WireError(f"LOOKUP_REPLY: {exc}") from None
            self._pop_lookup(frame.request_id)
            now = self.daemon.env.now()
            self._h_lookup_rtt.observe(now - t_sent)
            if span is not None:
                self.daemon.spans.record(
                    span[0], span[1], 0, HOP_UPDATE, "lookup", t_sent, now)
            if upd is None:
                return
            if mirror is None:
                # Set not there yet, or no memory for it: retry lookup
                # on the next update loop (paper Fig. 2: "keep
                # performing lookup in the next update loop").
                self.stats.lookups_failed += 1
                upd.state = SetState.NEW
                return
            upd.mirror = mirror
            upd.region_id = region_id
            upd.state = SetState.READY
            upd.last_dgn = None
            self.daemon._on_lookup_complete(self, upd)

    def _pop_lookup(self, rid: int) -> tuple[str, float, Optional[tuple]]:
        """Consume one pending lookup; an emptied table becomes a fresh
        ``{}`` (a dict keeps its grown hash table when its last key goes)."""
        entry = self._pending_lookups.pop(rid)
        if not self._pending_lookups:
            self._pending_lookups = {}
        return entry

    def _drop_updater(self, name: str) -> None:
        """Remove one collection target set (pruned from DIR)."""
        upd = self.updaters.pop(name, None)
        if upd is None:
            return
        for rid in [r for r, p in self._pending_lookups.items() if p[0] == name]:
            self._pop_lookup(rid)
        if upd.mirror is not None:
            self.daemon._unregister_mirror(upd.mirror)
            upd.mirror.delete()
            upd.mirror = None
        self.stats.sets_pruned += 1
        self._arm_freshness()

    def _expire_lookups(self) -> None:
        """Fail lookups whose reply never arrived.

        A LOOKUP_REPLY lost on the wire otherwise leaves the updater in
        ``LOOKUP_PENDING`` forever — ``_tick`` only re-looks-up ``NEW``
        sets.  Expiry resets the updater so the next loop retries, per
        Fig. 2's "keep performing lookup in the next update loop".
        """
        if not self._pending_lookups:
            return
        timeout = self.cfg.lookup_timeout
        if timeout is None:
            timeout = 2.0 * self.cfg.interval
        if timeout <= 0:
            return
        now = self.daemon.env.now()
        expired = [rid for rid, p in self._pending_lookups.items()
                   if now - p[1] >= timeout]
        for rid in expired:
            set_name, _t_sent, _span = self._pop_lookup(rid)
            self.stats.lookups_timed_out += 1
            upd = self.updaters.get(set_name)
            if upd is not None and upd.state is SetState.LOOKUP_PENDING:
                upd.state = SetState.NEW

    # ------------------------------------------------------------------
    # the update loop
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        with self.daemon.lock:
            if self.stopped:
                return
            endpoint = self.endpoint
            if endpoint is None or endpoint.closed:  # not connected
                # Reconnection is the backoff schedule's job: the dialer
                # ignores this kick while a dial or a backoff is pending,
                # so a tick never defeats it.
                if self.dialer is not None:
                    self.dialer.dial()
                return
            if self._pending_lookups:
                self._expire_lookups()
            if not self.active:
                return
            if not self.updaters and self.endpoint is not None:
                # Discovery found nothing yet (e.g. the target is an
                # aggregator whose own lookups had not completed when we
                # connected): retry the directory query.
                self._ticks_since_dir = 0
                self.endpoint.send(wire.encode_frame(wire.MsgType.DIR_REQ, 0))
                return
            if not self.cfg.sets and self.cfg.dir_refresh > 0:
                self._ticks_since_dir += 1
                if self._ticks_since_dir >= self.cfg.dir_refresh and self.endpoint is not None:
                    # Periodic directory refresh keeps discovery-mode
                    # producers in sync with set deletion on the target.
                    self._ticks_since_dir = 0
                    self.endpoint.send(wire.encode_frame(wire.MsgType.DIR_REQ, 0))
            ready: list[UpdaterState] = []
            # _send_lookup never mutates the updaters dict (frames go
            # out asynchronously), so no defensive copy per tick.
            for upd in self.updaters.values():
                if upd.state is SetState.NEW:
                    self._send_lookup(upd.set_name)
                elif upd.state is SetState.READY:
                    if upd.in_flight:
                        # Bypass non-reporting target; retry next
                        # interval (§IV-E).
                        self.stats.skipped_busy += 1
                    else:
                        ready.append(upd)
            if not ready:
                return
            if len(ready) == 1:
                self._issue_update(ready[0])
            else:
                # Coalesce every READY set on this producer into one
                # batched fetch: one request/reply frame pair and one
                # update-worker completion amortised over the batch.
                self._issue_update_multi(ready)

    def _issue_update(self, upd: UpdaterState) -> None:
        if upd.in_flight:
            # Bypass non-reporting target; retry next interval (§IV-E).
            self.stats.skipped_busy += 1
            return
        endpoint = self.endpoint
        if endpoint is None:
            return
        upd.in_flight = True
        self.stats.updates_issued += 1
        # Every update transaction consumes a trace id; an exemplar's
        # update span rides fetch -> validate -> store flush (None for
        # the rest).
        t_issue = self.daemon.env.now()
        span = self.daemon.spans.start(self.cfg.name, upd.set_name, t_issue)

        pull = _Pull()
        pull.producer = self
        pull.upd = upd
        pull.t_issue = t_issue
        pull.span = span
        if span is not None:
            # Exemplar transaction: propagate a wire trace context so the
            # serving daemon can attribute its hop to the same trace.
            endpoint.rdma_read(
                upd.region_id, pull,
                trace=((0, span.trace_id, span.span_id, HOP_UPDATE),))
        else:
            endpoint.rdma_read(upd.region_id, pull)

    def _issue_update_multi(self, upds: list[UpdaterState]) -> None:
        """Issue one coalesced fetch covering every updater in ``upds``.

        Each set keeps its own exemplar draw and completion validation
        (exactly the per-set semantics of :meth:`_complete_update`); only
        the wire transaction and the worker-pool hand-off are shared.
        """
        endpoint = self.endpoint
        if endpoint is None:
            return
        stats = self.stats
        spans = self.daemon.spans
        now = self.daemon.env.now()
        batch: list[tuple[UpdaterState, float, Optional[UpdateSpan]]] = []
        region_ids: list[int] = []
        tctx = None  # built lazily: most batches carry no exemplar
        for i, upd in enumerate(upds):
            upd.in_flight = True
            stats.updates_issued += 1
            span = spans.start(self.cfg.name, upd.set_name, now)
            if span is not None:
                if tctx is None:
                    tctx = []
                tctx.append((i, span.trace_id, span.span_id, HOP_UPDATE))
            batch.append((upd, now, span))
            region_ids.append(upd.region_id)
        stats.updates_coalesced += len(upds)
        endpoint.rdma_read_multi(region_ids, partial(self._multi_data, batch),
                                 trace=tuple(tctx) if tctx else None)

    def _multi_data(self, batch, datas) -> None:
        # One update worker reaps the whole batch; simulated CPU is the
        # same per-set charge as N single completions.
        self.daemon.worker_pool.submit(
            partial(self._complete_update_multi, batch, datas),
            cost=self.daemon.update_cpu_cost * len(batch),
            core=self.daemon.core,
            tag="agg-update",
        )

    def _complete_update_multi(self, batch, datas) -> None:
        for (upd, t_issue, span), data in zip(batch, datas):
            self._complete_update(upd, data, t_issue, span)

    def _complete_update(
        self, upd: UpdaterState, data: Optional[bytes], t_issue: float,
        span: Optional[UpdateSpan] = None,
    ) -> None:
        with self.daemon.lock:
            spans = self.daemon.spans
            upd.in_flight = False
            now = self.daemon.env.now()
            if self.stopped or upd.mirror is None:
                spans.finish(span, "failed", now)
                return
            if data is None:
                self.stats.updates_failed += 1
                spans.finish(span, "failed", now)
                return
            self.stats.updates_completed += 1
            self.stats.last_update_ts = now
            self.stats.update_time_total += now - t_issue
            self._h_update_rtt.observe(now - t_issue)
            # Fast-path validation: peek MGN/DGN/consistent straight
            # from the fetched buffer, so torn or DGN-unchanged fetches
            # are dropped before any data copy (paper §IV-A: neither
            # results in a write).
            try:
                dgn, consistent = upd.mirror.peek_data_header(data)
            except SchemaMismatch:
                # Metadata changed on the producer; refresh it.
                self.stats.schema_refreshes += 1
                self._send_lookup(upd.set_name)
                spans.finish(span, "schema_refresh", now)
                return
            except ValueError:
                # Malformed fetch (e.g. the producer deleted the set and
                # the region now reads empty): count as failed, retry via
                # lookup next tick.
                self.stats.updates_failed += 1
                upd.state = SetState.NEW
                spans.finish(span, "failed", now)
                return
            if not consistent:
                self.stats.skipped_inconsistent += 1
                spans.finish(span, "torn", now)
                return
            if upd.last_dgn is not None and dgn == upd.last_dgn:
                self.stats.skipped_stale += 1
                spans.finish(span, "stale", now)
                return
            prev_dgn = upd.last_dgn
            upd.mirror._install(data, dgn, consistent)
            upd.last_dgn = dgn
            # Decoded once for the exemplar, store hand-off and freshness.
            ts_new = upd.mirror.timestamp
            if span is not None:
                span.sample_ts = ts_new
            # `stored` counts records actually handed to the store
            # layer; incrementing before delivery over-reported when
            # the hand-off itself failed.
            try:
                self.daemon._deliver_to_stores(self, upd.mirror, span, ts_new,
                                               data)
            except StoreError:
                self.daemon.obs.counter("store.errors").inc()
                spans.finish(span, "store_error", now)
                return
            self.stats.stored += 1
            if span is not None:
                # The aggregator-side hop of the exemplar's causal chain:
                # issue -> validated-and-stored.
                spans.finish(span, "stored", now)
            fresh = self._fresh
            if fresh is not None:
                # Missed-interval hint: whichever of the DGN gap (in
                # learned per-transaction strides) and the transaction-
                # timestamp gap is larger — both per-set evidence already
                # in hand, no extra wire bytes.
                missed = 0
                if prev_dgn is not None and dgn > prev_dgn:
                    delta = dgn - prev_dgn
                    stride = upd.dgn_stride
                    if stride == 0 or delta < stride:
                        upd.dgn_stride = stride = delta
                    missed = delta // stride - 1
                last_ts = upd.last_stored_ts
                if last_ts > 0.0 and self.cfg.interval > 0.0:
                    gap = int((ts_new - last_ts) / self.cfg.interval + 0.5) - 1
                    if gap > missed:
                        missed = gap
                upd.last_stored_ts = ts_new
                fresh.observe(ts_new, missed)
