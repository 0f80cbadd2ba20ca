"""Process-local telemetry registry: counters, gauges, latency histograms.

The monitor must monitor itself (PAPER §V–§VII measure LDMS's *own*
CPU, memory, and fan-in latencies): every :class:`~repro.core.ldmsd.Ldmsd`
owns one :class:`Telemetry` registry and threads it through each
pipeline stage — sampling, lookup, update, validation, storage, and
control handling.  Instruments are deliberately primitive:

* :class:`Counter` — a monotonic int (``inc``);
* :class:`Gauge`   — a last-value float (``set``/``add``);
* :class:`Histogram` — fixed-bucket latency histogram tracking exact
  ``count/sum/min/max`` plus bucket counts, from which p50/p95/p99 are
  interpolated.  Buckets default to a 1-2-5 log ladder from 1 µs to
  100 s, wide enough for both simulated RTTs and real store flushes.

Cost discipline: instruments are looked up once (at daemon/plugin setup
time) and the hot path is one or two attribute ops.  A disabled
registry (``Telemetry(enabled=False)``) hands out shared *null*
instruments whose methods are no-ops, so instrumented code needs no
``if`` guards and disabled overhead is a single no-op call.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Telemetry",
    "DEFAULT_LATENCY_EDGES",
]


def _log_ladder(decades: tuple[int, int]) -> tuple[float, ...]:
    """1-2-5 bucket edges across ``10**lo .. 10**hi`` seconds."""
    lo, hi = decades
    edges = []
    for exp in range(lo, hi):
        for m in (1.0, 2.0, 5.0):
            edges.append(m * 10.0**exp)
    edges.append(10.0**hi)
    return tuple(edges)


#: 1 µs → 100 s in 1-2-5 steps: 25 bucket edges → 26 buckets (with the
#: implicit underflow bucket below the first edge and overflow above the
#: last).  Fine enough that interpolated p50/p95/p99 land within one
#: 1-2-5 step of the true quantile.
DEFAULT_LATENCY_EDGES = _log_ladder((-6, 2))
_DEFAULT_EDGES_ARR = np.asarray(DEFAULT_LATENCY_EDGES)
_INF = float("inf")


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-value instrument (arena bytes, queue depths, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    ``observe`` is the hot call, so it only appends the raw value to a
    small staging list (one list append — the tail stays cache-hot even
    when the pipeline's working set evicts the bucket arrays); staged
    values are folded into the buckets with one vectorized
    ``searchsorted`` per batch, either when the list reaches
    ``_FOLD_AT`` or lazily on any read (``count``/``quantile``/
    ``summary``/...).  Folding swaps the staging list out first, so a
    concurrent ``observe`` under the GIL lands in the fresh list rather
    than being double-counted.  The bucket vector is allocated by the
    first fold: a histogram nothing was observed on is five scalars.

    Quantiles are computed on demand by walking the cumulative bucket
    counts and interpolating linearly inside the landing bucket (clamped
    to the observed min/max, so a single-sample histogram reports that
    sample for every quantile).
    """

    __slots__ = ("name", "edges", "_buckets", "_edges_arr",
                 "_count", "_sum", "_min", "_max", "_pending")

    _FOLD_AT = 512

    def __init__(self, name: str, edges: Optional[tuple[float, ...]] = None):
        self.name = name
        if edges is None:
            # The default ladder is pre-validated and its ndarray shared:
            # a 9,000-daemon sweep creates tens of thousands of default
            # histograms, so per-instance validation + asarray adds up.
            self.edges = DEFAULT_LATENCY_EDGES
            self._edges_arr = _DEFAULT_EDGES_ARR
        else:
            self.edges = tuple(edges)
            if len(self.edges) < 1 or any(
                b <= a for a, b in zip(self.edges, self.edges[1:])
            ):
                raise ValueError("histogram edges must be strictly increasing")
            self._edges_arr = np.asarray(self.edges)
        self._buckets: Optional[list[int]] = None
        self._count = 0
        self._sum = 0.0
        self._min = _INF
        self._max = -_INF
        self._pending: list[float] = []

    @property
    def buckets(self) -> list[int]:
        """Per-bucket counts as of the last fold (all zero before it)."""
        return self._buckets or [0] * (len(self.edges) + 1)

    def observe(self, value: float) -> None:
        pending = self._pending
        pending.append(value)
        if len(pending) >= self._FOLD_AT:
            self._fold()

    def _fold(self) -> None:
        pending = self._pending
        if not pending:
            return
        self._pending = []
        n = len(pending)
        arr = np.fromiter(pending, np.float64, n)
        # vectorized bisect_right over the whole batch
        idx = self._edges_arr.searchsorted(arr, "right")
        buckets = self._buckets
        if buckets is None:
            buckets = self._buckets = [0] * (len(self.edges) + 1)
        counts = np.bincount(idx, minlength=len(buckets)).tolist()
        for i, c in enumerate(counts):
            if c:
                buckets[i] += c
        self._count += n
        self._sum += float(arr.sum())
        lo = float(arr.min())
        hi = float(arr.max())
        if lo < self._min:
            self._min = lo
        if hi > self._max:
            self._max = hi

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def sum(self) -> float:
        self._fold()
        return self._sum

    @property
    def min(self) -> float:
        self._fold()
        return self._min

    @property
    def max(self) -> float:
        self._fold()
        return self._max

    @property
    def mean(self) -> float:
        self._fold()
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated quantile in [0, 1]; 0.0 when empty."""
        self._fold()
        if not self._count:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        target = q * self._count
        seen = 0.0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            if seen + n >= target:
                lo = self.edges[i - 1] if i > 0 else self._min
                hi = self.edges[i] if i < len(self.edges) else self._max
                frac = (target - seen) / n
                est = lo + (hi - lo) * frac
                return min(max(est, self._min), self._max)
            seen += n
        return self._max

    def summary(self) -> dict:
        """Detached summary row (the ``stats`` surface)."""
        self._fold()
        empty = self._count == 0
        return {
            "count": self._count,
            "sum": self._sum,
            "min": 0.0 if empty else self._min,
            "max": 0.0 if empty else self._max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def dump(self) -> dict:
        """Summary plus the raw bucket vector (the ``prof`` surface)."""
        out = self.summary()
        out["edges"] = list(self.edges)
        out["buckets"] = list(self.buckets)
        return out


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for disabled registries."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def summary(self) -> dict:
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def dump(self) -> dict:
        out = self.summary()
        out["edges"] = []
        out["buckets"] = []
        return out


_NULL = _NullInstrument()


class Telemetry:
    """A named-instrument registry owned by one daemon.

    Instruments are created lazily and cached by name; repeated lookups
    return the same object, so callers bind them once at setup time.
    An owner that binds instruments by role passes :meth:`declare` its
    name table: read surfaces list each declared name, zeroed until
    bound — one schema for pollers, no object per name.
    """

    __slots__ = ("enabled", "_counters", "_gauges", "_histograms",
                 "_endpoint_incs", "_declared_counters",
                 "_declared_histograms", "__weakref__")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._endpoint_incs: Optional[tuple] = None
        self._declared_counters: tuple[str, ...] = ()
        self._declared_histograms: tuple[str, ...] = ()

    def declare(self, counters: tuple[str, ...],
                histograms: tuple[str, ...]) -> None:
        """Name the counters / default-ladder histograms the read
        surfaces always list (kept by reference: one static table)."""
        if self.enabled:
            self._declared_counters = counters
            self._declared_histograms = histograms

    def endpoint_incs(self) -> tuple:
        """The four transport-accounting ``inc`` methods, bound once.

        Every endpoint of a daemon binds the same four counters; at
        ≥9,000 connections the per-endpoint name lookups are a measurable
        slice of connection setup, so the bound-method tuple is cached.
        """
        incs = self._endpoint_incs
        if incs is None:
            incs = self._endpoint_incs = (
                self.counter("transport.frames_rx").inc,
                self.counter("transport.bytes_rx").inc,
                self.counter("transport.rdma_reads").inc,
                self.counter("transport.rdma_bytes").inc,
            )
        return incs

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, edges: Optional[tuple[float, ...]] = None
    ) -> Histogram:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, edges)
        return h

    # ------------------------------------------------------------------
    # surfaces
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deep, detached, JSON-serializable registry snapshot."""
        cvals = dict.fromkeys(self._declared_counters, 0)
        cvals.update((n, c.value) for n, c in self._counters.items())
        return {
            "enabled": self.enabled,
            "counters": dict(sorted(cvals.items())),
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in self._listed_histograms()},
        }

    def _listed_histograms(self) -> list[tuple[str, Histogram]]:
        """Bound histograms, plus a transient empty one under each
        declared name nothing is bound to yet, sorted by name."""
        hs = {n: Histogram(n) for n in self._declared_histograms}
        hs.update(self._histograms)
        return sorted(hs.items())

    def dump_histograms(self) -> dict:
        """Full histogram dumps (bucket vectors included) for ``prof``."""
        return {n: h.dump() for n, h in self._listed_histograms()}
