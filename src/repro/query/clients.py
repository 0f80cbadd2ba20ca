"""DES client population for the query tier: the CMS workload mix.

The CMS monitoring paper (PAPERS.md) characterizes dashboard traffic
as three populations with very different shapes, which this module
models as wire-protocol clients driven by the simulation clock:

* :class:`Poller` — a dashboard refreshing a short recent window every
  few seconds.  Dominates request count; almost always answerable from
  the hot-window cache.
* :class:`AlertEvaluator` — re-evaluates a threshold over a rollup
  window on a fixed period.  Identical repeated queries: the LRU
  result cache absorbs the repeats between ingest batches.
* :class:`RangeScanner` — ad-hoc historical scans walking large
  windows.  Cache-hostile by design; exercises the sorted-index range
  scan and the rollup containers.

Every client speaks the feature-gated QUERY wire API over its own
endpoint: a request is only sent after the peer's HELLO advertised
``"query"`` (old aggregators never see the unknown MsgType).  Reply
round-trip times land in shared :mod:`repro.obs` histograms
(``client.<kind>.rtt``) so the experiment reports served p50/p95/p99
per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core import wire

__all__ = ["ClientMix", "QueryClient", "Poller", "AlertEvaluator",
           "RangeScanner", "build_population"]

#: Golden-ratio fractional stagger: deterministic, no RNG, and spreads
#: client phases maximally for any population size.
_PHI = 0.618033988749895


@dataclass(frozen=True)
class ClientMix:
    """Population sizes and per-class query shapes."""

    pollers: int = 8
    evaluators: int = 4
    scanners: int = 2
    poll_interval: float = 2.0
    poll_window: float = 10.0
    eval_interval: float = 10.0
    eval_level: int = 10
    eval_window: float = 120.0
    eval_threshold: float = 0.0
    scan_interval: float = 15.0
    scan_span: float = 120.0
    scan_level: int = 60
    max_records: int = 0

    def total(self) -> int:
        return self.pollers + self.evaluators + self.scanners


class QueryClient:
    """One wire-protocol query client on a periodic schedule."""

    kind = "client"

    def __init__(self, name: str, env, transport, addr, schema: str,
                 obs, interval: float, offset: float = 0.0,
                 max_records: int = 0):
        self.name = name
        self.env = env
        self.transport = transport
        self.addr = addr
        self.schema = schema
        self.interval = interval
        self.offset = offset
        self.max_records = max_records
        self.hist = obs.histogram(f"client.{self.kind}.rtt")
        self.ep = None
        self.sent = 0
        self.replies = 0
        self.errors = 0
        self.rows_received = 0
        self.truncated = 0
        self.cache_hits_seen = 0
        self.skipped_nofeature = 0
        self._pending: dict[int, float] = {}
        self._rid = 0
        self._k = 0
        self._timer = None

    def start(self) -> None:
        self.transport.connect(self.addr, self._connected)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self.ep is not None and not self.ep.closed:
            self.ep.close()

    def _connected(self, ep) -> None:
        self.ep = ep
        if ep is None:
            return
        ep.on_message = self._on_message
        self.env.call_later(self.offset, self._first_tick)

    def _first_tick(self) -> None:
        self._timer = self.env.call_every(self.interval, self._tick)
        self._tick()

    def _tick(self) -> None:
        ep = self.ep
        if ep is None or ep.closed:
            return
        if not ep.query_ok:
            # Feature gate (PR 7 negotiation rules): the peer never
            # advertised "query", so the MsgType would be rejected.
            self.skipped_nofeature += 1
            return
        window = self._window(self.env.now(), self._k)
        self._k += 1
        if window is None:
            return
        t0, t1, level, comp_id = window
        self._rid += 1
        self._pending[self._rid] = self.env.now()
        ep.send(wire.encode_frame(
            wire.MsgType.QUERY_REQ, self._rid,
            wire.pack_query_req(self.schema, t0, t1, level, comp_id,
                                self.max_records)))
        self.sent += 1

    def _window(self, now: float, k: int) -> Optional[tuple]:
        """(t0, t1, level, comp_id) of the k-th query, or None to skip."""
        raise NotImplementedError

    def _on_message(self, raw: bytes) -> None:
        frame = wire.decode_frame(raw)
        if frame.msg_type != wire.MsgType.QUERY_REPLY:
            return
        t_sent = self._pending.pop(frame.request_id, None)
        if t_sent is None:
            return
        self.hist.observe(self.env.now() - t_sent)
        status, flags, names, rows = wire.unpack_query_reply(frame.payload)
        self.replies += 1
        if status != wire.E_OK:
            self.errors += 1
            return
        self.rows_received += len(rows)
        if flags & wire.QUERY_TRUNCATED:
            self.truncated += 1
        if flags & wire.QUERY_CACHE_HIT:
            self.cache_hits_seen += 1
        self.on_rows(names, rows)

    def on_rows(self, names, rows) -> None:
        """Per-class reply hook."""


class Poller(QueryClient):
    """Dashboard refresh: the last ``window`` seconds of base data."""

    kind = "poller"

    def __init__(self, *args, window: float = 10.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.window = window

    def _window(self, now: float, k: int):
        return (max(now - self.window, 0.0), now, 0, 0)


class AlertEvaluator(QueryClient):
    """Threshold check over a rollup window; counts firings."""

    kind = "evaluator"

    def __init__(self, *args, window: float = 120.0, level: int = 10,
                 threshold: float = 0.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.window = window
        self.level = level
        self.threshold = threshold
        self.alerts = 0

    def _window(self, now: float, k: int):
        return (max(now - self.window, 0.0), now, self.level, 0)

    def on_rows(self, names, rows) -> None:
        if not rows:
            return
        # Python ``sum`` in row order: ``alerts`` is in the fingerprint.
        mean = sum(rows.column(0)) / len(rows)
        if mean > self.threshold:
            self.alerts += 1


class RangeScanner(QueryClient):
    """Ad-hoc historical scan walking ``span``-second windows."""

    kind = "scanner"

    def __init__(self, *args, span: float = 120.0, level: int = 60,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.span = span
        self.level = level

    def _window(self, now: float, k: int):
        span = self.span
        past_windows = max(int(now // span), 1)
        t0 = span * (k % past_windows)
        return (t0, t0 + span, self.level, 0)


def build_population(env, transport_for: Callable[[int], object], addr,
                     schema: str, mix: ClientMix, obs) -> list[QueryClient]:
    """Instantiate the mixed population, phase-staggered
    deterministically.  ``transport_for(i)`` supplies client *i*'s
    transport (its own fabric attachment in the DES)."""
    clients: list[QueryClient] = []
    i = 0
    for _ in range(mix.pollers):
        offset = mix.poll_interval * ((i * _PHI) % 1.0)
        clients.append(Poller(
            f"poller{i}", env, transport_for(i), addr, schema, obs,
            interval=mix.poll_interval, offset=offset,
            max_records=mix.max_records, window=mix.poll_window))
        i += 1
    for _ in range(mix.evaluators):
        offset = mix.eval_interval * ((i * _PHI) % 1.0)
        clients.append(AlertEvaluator(
            f"evaluator{i}", env, transport_for(i), addr, schema, obs,
            interval=mix.eval_interval, offset=offset,
            max_records=mix.max_records, window=mix.eval_window,
            level=mix.eval_level, threshold=mix.eval_threshold))
        i += 1
    for _ in range(mix.scanners):
        offset = mix.scan_interval * ((i * _PHI) % 1.0)
        clients.append(RangeScanner(
            f"scanner{i}", env, transport_for(i), addr, schema, obs,
            interval=mix.scan_interval, offset=offset,
            max_records=mix.max_records, span=mix.scan_span,
            level=mix.scan_level))
        i += 1
    return clients
