"""Pipeline tracing: one trace per update transaction.

An aggregator-initiated update transaction moves through fixed stages
(paper Fig. 2): the fetch is issued {e}, the data chunk crosses the
transport {f}, the header is peeked/validated (MGN/DGN/consistent,
§IV-A), and a fresh consistent record is handed to the store layer {i}
and flushed.  :class:`PipelineTrace` carries one id through all of
those stages and timestamps each one in the daemon's clock (simulated
seconds under the DES, monotonic seconds under ``RealEnv``).

The sampler's fire time is recovered from the transported data chunk
itself — the transaction timestamp written by ``end_transaction`` —
which is what links the trace back to the producing daemon without any
extra wire bytes: ``t_store_submit - sample_ts`` is the end-to-end
sample→store latency the paper's §V fan-in analysis cares about.

Completed traces land in a bounded ring buffer for introspection and
tests; the histograms derived from them live in the daemon's
:class:`~repro.obs.registry.Telemetry`.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["PipelineTrace", "Tracer"]

#: Terminal trace statuses (every completed trace carries exactly one).
TRACE_STATUSES = (
    "stored",        # fresh + consistent: copied, delivered to stores
    "stale",         # DGN unchanged since last store — skipped
    "torn",          # consistent flag clear (fetch inside a transaction)
    "failed",        # transport returned no data / malformed fetch
    "schema_refresh",  # MGN mismatch forced a re-lookup
    "store_error",   # store layer refused the record at hand-off
)


class PipelineTrace:
    """Stage clock of one update transaction."""

    __slots__ = (
        "trace_id",
        "producer",
        "set_name",
        "t_issue",
        "t_fetched",
        "t_validated",
        "t_store_submit",
        "t_store_done",
        "sample_ts",
        "status",
        # Span id of this transaction's aggregator-side "update" span,
        # allocated at issue time when the trace context is propagated
        # on the wire (None when the peer does not speak trace-ctx).
        "span_id",
    )

    def __init__(self, trace_id: int, producer: str, set_name: str, t_issue: float):
        # Only the issue-time slots are written here; later stages fill
        # the rest lazily (a trace is allocated per update transaction,
        # so construction stays minimal).  Unreached stages read as None.
        self.trace_id = trace_id
        self.producer = producer
        self.set_name = set_name
        self.t_issue = t_issue

    def __getattr__(self, name: str):
        if name in PipelineTrace.__slots__:
            return None
        raise AttributeError(name)

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PipelineTrace #{self.trace_id} {self.producer}/{self.set_name} "
            f"status={self.status}>"
        )


class Tracer:
    """Allocates trace ids and retains sampled completed traces.

    Every update transaction consumes a trace id, but a full
    :class:`PipelineTrace` object is only materialized for one
    transaction in ``sample_every`` (the first is always sampled, so
    short tests see trace #1) — the per-stage latency *histograms*
    observe every transaction regardless; the retained traces are
    exemplars, as in production tracing systems.  This bounds the
    hot-path cost to an id increment for unsampled transactions.  Set
    ``sample_every=1`` to retain every trace.

    Created disabled-aware by the daemon: when telemetry is off,
    ``start`` returns ``None`` and the update path carries no trace
    object at all (zero allocation per transaction).  The ring is a
    front-trimmed list, like :class:`~repro.obs.flight.FlightRecorder`'s.
    """

    __slots__ = ("clock", "enabled", "sample_every", "_next_id", "_ring",
                 "completed")

    def __init__(self, clock: Callable[[], float], enabled: bool = True,
                 ring: int = 256, sample_every: int = 16):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.clock = clock
        self.enabled = enabled
        self.sample_every = sample_every
        self._next_id = 1
        self._ring = ring
        #: Completed exemplars, oldest first, at most ``ring``.
        self.completed: list[PipelineTrace] = []

    def start(self, producer: str, set_name: str) -> Optional[PipelineTrace]:
        if not self.enabled:
            return None
        trace_id = self._next_id
        self._next_id = trace_id + 1
        if (trace_id - 1) % self.sample_every:
            return None
        return PipelineTrace(trace_id, producer, set_name, self.clock())

    def finish(self, trace: Optional[PipelineTrace], status: str) -> None:
        if trace is None:
            return
        if status not in TRACE_STATUSES:
            raise ValueError(f"unknown trace status {status!r}")
        trace.status = status
        completed = self.completed
        completed.append(trace)
        if len(completed) > self._ring:
            del completed[0]

    def last(self, status: Optional[str] = None) -> list[PipelineTrace]:
        """Completed traces, optionally filtered by terminal status."""
        if status is None:
            return list(self.completed)
        return [t for t in self.completed if t.status == status]
