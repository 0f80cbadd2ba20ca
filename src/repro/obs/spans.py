"""Distributed spans: per-hop latency attribution for exemplar traces.

PR-2's :class:`~repro.obs.trace.PipelineTrace` clocks one update
transaction *inside the aggregator*; it cannot attribute latency to the
hops the transaction actually crossed (sampler transaction → serve-side
RDMA read → aggregator fetch/validate → store flush).  This module adds
the cluster-wide half: each daemon owns a :class:`SpanRecorder`, and an
exemplar-sampled transaction carries a compact trace context
(``trace_id``, parent span id, hop number — see
:func:`repro.core.wire.pack_trace_ctx`) on its LOOKUP/RDMA frames so
every daemon it touches records a :class:`Span` against the same
``trace_id``.  Stitched together (:func:`causal_chains`) the spans form
one causal trace per exemplar; :func:`chrome_trace_events` renders them
as Chrome ``trace_event`` JSON (load in ``chrome://tracing`` or
Perfetto), timestamped off the daemon clock — simulated seconds under
the DES, so a trace replay is byte-identical for a given seed.

Cost discipline mirrors the rest of ``repro.obs``: ``record`` is only
reached behind a ``trace is not None`` / ``enabled`` guard on the
1-in-16 exemplar path, and a disabled recorder's ``record`` returns
immediately, so the per-update hot path stays allocation-free.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = [
    "HOP_SAMPLE",
    "HOP_SERVE",
    "HOP_UPDATE",
    "HOP_STORE",
    "HOP_NAMES",
    "Span",
    "SpanRecorder",
    "causal_chains",
    "chrome_trace_events",
]

#: Hop numbering of the paper's Fig. 2 pipeline, source → sink.  The
#: wire context carries the *sender's* hop; the serving side records its
#: spans one hop closer to the source (and the sample anchor at hop 0).
HOP_SAMPLE = 0   # sampler transaction that produced the data chunk
HOP_SERVE = 1    # serve-side RDMA read / lookup handling on the ldmsd
HOP_UPDATE = 2   # aggregator fetch + validate
HOP_STORE = 3    # store flush on the aggregator

HOP_NAMES = ("sample", "serve", "update", "store")


class Span:
    """One recorded hop of a causal trace."""

    __slots__ = ("trace_id", "span_id", "parent_span", "hop",
                 "name", "t0", "t1")

    def __init__(self, trace_id: int, span_id: int, parent_span: int,
                 hop: int, name: str, t0: float, t1: float):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_span = parent_span
        self.hop = hop
        self.name = name
        self.t0 = t0
        self.t1 = t1

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span trace={self.trace_id} #{self.span_id} "
                f"hop={self.hop} {self.name} "
                f"[{self.t0:.6f}..{self.t1:.6f}]>")


class SpanRecorder:
    """Per-daemon bounded ring of spans plus the span-id allocator.

    Span ids only need to be unique *within* a daemon (a chain edge is
    the (daemon, span_id) pair named by the wire context), so each
    recorder allocates from its own counter — no cross-daemon
    coordination, which keeps DES determinism trivial.
    """

    __slots__ = ("daemon", "enabled", "spans", "total",
                 "_next_span", "_next_aux", "_ring")

    def __init__(self, daemon: str, enabled: bool = True, ring: int = 512):
        self.daemon = daemon
        self.enabled = enabled
        self._ring = ring
        #: Recorded spans, oldest first, at most ``ring`` (a front-
        #: trimmed list like the flight recorder's: every sampler holds
        #: one ``serve_lookup`` span).
        self.spans: list[Span] = []
        self.total = 0  # spans ever recorded (the ring overwrites)
        self._next_span = 1
        # Auxiliary trace ids (lookup RTT traces) live far above the
        # Tracer's per-transaction ids so the two families never collide.
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

    def record(self, trace_id: int, span_id: int, parent_span: int,
               hop: int, name: str, t0: float, t1: float) -> None:
        if not self.enabled:
            return
        spans = self.spans
        spans.append(Span(trace_id, span_id, parent_span, hop, name, t0, t1))
        if len(spans) > self._ring:
            del spans[0]
        self.total += 1

    def snapshot(self) -> list[dict]:
        return [s.as_dict() for s in self.spans]


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
