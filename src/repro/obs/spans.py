"""The span ring: each daemon's one record of what it did lately.

Each daemon owns a :class:`SpanRecorder`: one bounded ring holding the
hops exemplar transactions crossed (sampler transaction → serve-side
RDMA read → aggregator fetch/validate → store flush, paper Fig. 2) and
the rare events the daemon logs (start and shutdown, peer connect and
close, watchdog checks, promotions and recoveries, injected crashes).
The recorder also picks the exemplars: every update transaction
consumes a trace id, the first is always sampled, then one in
``sample_every``.
An exemplar's :class:`UpdateSpan` is opened at issue and closed at
whatever terminal status the transaction reaches, stored or not.  Its
trace context (``trace_id``, parent span id, hop number — see
:func:`repro.core.wire.pack_trace_ctx`) rides the LOOKUP/RDMA frames to
peers that speak trace-ctx, so every daemon it touches records a
:class:`Span` against the same ``trace_id``.  Stitched together (:func:`causal_chains`) the spans form
one causal trace per exemplar; :func:`chrome_trace_events` renders them
as Chrome ``trace_event`` JSON (load in ``chrome://tracing`` or
Perfetto), timestamped off the daemon clock — simulated seconds under
the DES, so a trace replay is byte-identical for a given seed.

When a daemon dies the question is "what was it doing just before":
:func:`postmortem` freezes the events in the rings of the daemons
involved into one JSON-serializable document.  Whoever triggers a dump
(the watchdog on a promotion, the fault injector on a crash) keeps it;
no module keeps daemons or dumps.

Cost discipline: an unsampled transaction costs an id increment and a
modulo; everything else sits behind the exemplar handle's
``is not None``, so the per-update hot path stays allocation-free.  An
event is one tuple and one list append, and none is logged per update
or per flush.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = [
    "HOP_SAMPLE",
    "HOP_SERVE",
    "HOP_UPDATE",
    "HOP_STORE",
    "HOP_NAMES",
    "EVENT_FIELDS",
    "Span",
    "SpanRecorder",
    "UPDATE_STATUSES",
    "UpdateSpan",
    "causal_chains",
    "chrome_trace_events",
    "postmortem",
]

#: Hop numbering of the paper's Fig. 2 pipeline, source → sink.  The
#: wire context carries the *sender's* hop; the serving side records its
#: spans one hop closer to the source (and the sample anchor at hop 0).
HOP_SAMPLE = 0   # sampler transaction that produced the data chunk
HOP_SERVE = 1    # serve-side RDMA read / lookup handling on the ldmsd
HOP_UPDATE = 2   # aggregator fetch + validate
HOP_STORE = 3    # store flush on the aggregator

HOP_NAMES = ("sample", "serve", "update", "store")

#: Terminal statuses of an exemplar's update span (exactly one each).
UPDATE_STATUSES = ("stored", "stale", "torn", "failed", "schema_refresh",
                   "store_error")

#: An event in the ring is a plain tuple of these scalars.  Categories
#: in use: ``daemon``, ``conn``, ``watchdog``, ``fault``.
EVENT_FIELDS = ("t", "category", "event", "a", "b")


class Span:
    """One recorded hop of a causal trace."""

    __slots__ = ("trace_id", "span_id", "parent_span", "hop",
                 "name", "t0", "t1")
    _fields: tuple[str, ...] = __slots__

    def __init__(self, trace_id: int, span_id: int, parent_span: int,
                 hop: int, name: str, t0: float, t1: float):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_span = parent_span
        self.hop = hop
        self.name = name
        self.t0 = t0
        self.t1 = t1

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self._fields}


class UpdateSpan(Span):
    """The aggregator-side ``update`` span of one exemplar transaction.

    Open from issue (``t1 == t0``, ``status`` None) until
    :meth:`SpanRecorder.finish` stamps both.  ``sample_ts`` is the
    sampler's transaction timestamp from the installed data chunk (None
    if nothing was installed): the link back to the producing daemon.
    """

    __slots__ = ("producer", "set_name", "sample_ts", "status")
    _fields = Span._fields + __slots__

    def __init__(self, trace_id: int, span_id: int, producer: str,
                 set_name: str, t0: float):
        Span.__init__(self, trace_id, span_id, 0, HOP_UPDATE, "update",
                      t0, t0)
        self.producer = producer
        self.set_name = set_name
        self.sample_ts: Optional[float] = None
        self.status: Optional[str] = None


class SpanRecorder:
    """Per-daemon bounded ring of spans and events, the span-id
    allocator and the exemplar selector.

    Spans and event tuples share one ``ring`` and its one bound; the
    ``spans`` and ``events`` views read it apart.  Span ids only need
    to be unique *within* a daemon (a chain edge is
    the (daemon, span_id) pair named by the wire context), so each
    recorder allocates from its own counter — no cross-daemon
    coordination, which keeps DES determinism trivial.  Set
    ``sample_every=1`` to trace every update transaction.
    """

    __slots__ = ("daemon", "ring", "total", "events_total", "sample_every",
                 "_next_id", "_next_span", "_next_aux", "_size")

    def __init__(self, daemon: str, ring: int = 512, sample_every: int = 16):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.daemon = daemon
        self.sample_every = sample_every
        self._size = ring
        #: Spans and events, oldest first, at most ``ring`` of them (a
        #: front-trimmed list, not a deque: every daemon logs its start
        #: and every sampler holds one ``serve_lookup`` span).
        self.ring: list = []
        self.total = 0  # spans ever recorded (the ring overwrites)
        self.events_total = 0  # events ever recorded
        self._next_id = 1  # the next update transaction's trace id
        self._next_span = 1
        # Auxiliary trace ids (lookup RTT traces) live far above the
        # per-transaction ids so the two families never collide.
        self._next_aux = 1 << 48

    def alloc(self) -> int:
        """Allocate a span id (call only on the exemplar path)."""
        sid = self._next_span
        self._next_span = sid + 1
        return sid

    def alloc_trace(self) -> int:
        """Allocate an auxiliary trace id (lookup/control traces)."""
        tid = self._next_aux
        self._next_aux = tid + 1
        return tid

    def start(self, producer: str, set_name: str,
              t0: float) -> Optional[UpdateSpan]:
        """Consume one update transaction's trace id; open its update
        span when it is an exemplar, else return ``None``."""
        trace_id = self._next_id
        self._next_id = trace_id + 1
        if (trace_id - 1) % self.sample_every:
            return None
        return UpdateSpan(trace_id, self.alloc(), producer, set_name, t0)

    def finish(self, span: Optional[UpdateSpan], status: str,
               t1: float) -> None:
        """Close an exemplar's update span at its terminal status."""
        if span is None:
            return
        if status not in UPDATE_STATUSES:
            raise ValueError(f"unknown update status {status!r}")
        span.status = status
        span.t1 = t1
        self._append(span)

    def record(self, trace_id: int, span_id: int, parent_span: int,
               hop: int, name: str, t0: float, t1: float) -> None:
        self._append(Span(trace_id, span_id, parent_span, hop, name, t0, t1))

    def _append(self, span: Span) -> None:
        ring = self.ring
        ring.append(span)
        if len(ring) > self._size:
            del ring[0]
        self.total += 1

    def record_event(self, t: float, category: str, event: str,
                     a=0, b=0) -> None:
        """Log a rare daemon event (never one per update or flush)."""
        ring = self.ring
        ring.append((t, category, event, a, b))
        if len(ring) > self._size:
            del ring[0]
        self.events_total += 1

    @property
    def spans(self) -> list[Span]:
        """The spans in the ring, oldest first."""
        return [s for s in self.ring if type(s) is not tuple]

    @property
    def events(self) -> list[tuple]:
        """The events in the ring, oldest first, as
        :data:`EVENT_FIELDS` tuples."""
        return [e for e in self.ring if type(e) is tuple]

    def window(self) -> tuple[float, float]:
        """(oldest, newest) retained event times; (0, 0) when none."""
        events = self.events
        if not events:
            return (0.0, 0.0)
        return (events[0][0], events[-1][0])

    def updates(self, status: Optional[str] = None) -> list[UpdateSpan]:
        """Closed update spans in the ring, oldest first, optionally
        filtered by terminal status (the ``prof`` traces)."""
        return [s for s in self.ring if isinstance(s, UpdateSpan)
                and (status is None or s.status == status)]


def postmortem(reason: str, now: float, daemons: Iterable) -> dict:
    """Freeze the events in ``daemons``' rings into one
    JSON-serializable document: per daemon its event total, the window
    its retained events cover and the events themselves."""
    frozen = []
    for d in daemons:
        rec = d.spans
        frozen.append({
            "daemon": rec.daemon,
            "total_events": rec.events_total,
            "window": list(rec.window()),
            "events": [dict(zip(EVENT_FIELDS, e)) for e in rec.events],
        })
    return {"reason": reason, "t": now, "daemons": frozen}


def causal_chains(
    recorders: Iterable[SpanRecorder],
    min_hops: int = 1,
) -> dict[int, list[tuple[str, Span]]]:
    """Stitch spans from many daemons into per-trace causal chains.

    Returns ``{trace_id: [(daemon, span), ...]}`` with each chain
    sorted source-first (by hop, then start time); chains spanning
    fewer than ``min_hops`` distinct hops are dropped.
    """
    chains: dict[int, list[tuple[str, Span]]] = {}
    for rec in recorders:
        for span in rec.spans:
            chains.setdefault(span.trace_id, []).append((rec.daemon, span))
    out: dict[int, list[tuple[str, Span]]] = {}
    for tid, entries in chains.items():
        if len({s.hop for _, s in entries}) < min_hops:
            continue
        entries.sort(key=lambda e: (e[1].hop, e[1].t0, e[1].span_id))
        out[tid] = entries
    return dict(sorted(out.items()))


def chrome_trace_events(recorders: Iterable[SpanRecorder]) -> dict:
    """Render recorded spans as Chrome ``trace_event`` JSON.

    One *process* per daemon, one *thread* per hop; complete ("X")
    events in microseconds off the daemon clock.  The result is a plain
    dict ready for ``json.dump`` and loads directly into
    ``chrome://tracing`` / Perfetto.
    """
    events: list[dict] = []
    for pid, rec in enumerate(recorders, start=1):
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": rec.daemon},
        })
        for span in rec.spans:
            events.append({
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "pid": pid,
                "tid": span.hop,
                "ts": round(span.t0 * 1e6, 3),
                "dur": round(max(span.t1 - span.t0, 0.0) * 1e6, 3),
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_span": span.parent_span,
                    "hop": HOP_NAMES[span.hop]
                    if 0 <= span.hop < len(HOP_NAMES) else str(span.hop),
                },
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: dict) -> Optional[str]:
    """Cheap structural check of a ``trace_event`` document.

    Returns an error string, or ``None`` when the document is valid.
    Used by tests and the failover experiment's acceptance check.
    """
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return "traceEvents missing or not a list"
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            return f"event {i} is not an object"
        for key in ("ph", "pid", "tid"):
            if key not in ev:
                return f"event {i} missing {key!r}"
        if ev["ph"] == "X":
            if not isinstance(ev.get("ts"), (int, float)):
                return f"event {i} missing numeric ts"
            if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
                return f"event {i} missing non-negative dur"
    return None
