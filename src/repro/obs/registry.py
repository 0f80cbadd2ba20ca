"""Process-local telemetry registry: counters and latency histograms.

The monitor must monitor itself (PAPER §V–§VII measure LDMS's *own*
CPU, memory, and fan-in latencies): every :class:`~repro.core.ldmsd.Ldmsd`
owns one :class:`Telemetry` registry and threads it through each
pipeline stage — sampling, lookup, update, validation, storage, and
control handling.  Instruments are deliberately primitive:

* :class:`Counter` — a monotonic int (``inc``);
* :class:`Histogram` — fixed-bucket latency histogram tracking exact
  ``count/sum/min/max`` plus bucket counts, from which p50/p95/p99 are
  interpolated.  Buckets default to a 1-2-5 log ladder from 1 µs to
  100 s, wide enough for both simulated RTTs and real store flushes.
  A fold is plain Python that gives numpy's float64 results bit for
  bit, so a real daemon never loads numpy for its own telemetry.

Each thing is counted once.  An *owned* counter is a :class:`Counter`,
kept for rare events (errors, overruns, faults, refusals).  A *derived*
count is read when a surface asks, from state the pipeline keeps anyway
(the owner's ``derived_counts()``): no object, no dict entry.  A read
binds nothing: :meth:`Telemetry.reading` and :meth:`Telemetry.summary`
read 0 and a zeroed summary for a name nobody bound.  Bulk
observations (:meth:`Histogram.observe_n` / ``observe_many``) fold
exactly as one ``observe`` per value would.

Cost discipline: instruments are looked up once (at daemon/plugin setup
time) and the hot path is one or two attribute ops, so instrumented
code needs no ``if`` guards.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import defaultdict
from functools import reduce
from itertools import repeat
from operator import add
from types import MappingProxyType
from typing import Mapping, Optional

__all__ = [
    "Counter",
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
_INF = float("inf")
#: A registry's instrument tables until its first bind, which makes the
#: dict under ``_BIND_LOCK`` (stream readers bind without the daemon lock).
_NO_INSTRUMENTS: Mapping = MappingProxyType({})
_BIND_LOCK = threading.Lock()


def _pairwise_sum(a: list, lo: int, n: int) -> float:
    """numpy's float64 ``pairwise_sum`` of ``a[lo:lo + n]``, ``n >= 8``:
    a run of up to 128 adds in eight interleaved lanes, combined as a
    tree, then its tail; a longer one is split in halves at a multiple
    of 8.  (A run of fewer than 8 adds in order, from ``0.0``.)"""
    if n <= 128:
        m = lo + n - n % 8
        r = [reduce(add, a[j:m:8]) for j in range(lo, lo + 8)]
        return reduce(add, a[m:lo + n], ((r[0] + r[1]) + (r[2] + r[3]))
                      + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a, lo, half) + _pairwise_sum(a, lo + half, n - half)


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = value

    def inc(self, n: int = 1) -> None:
        self.value += n


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    ``observe`` is the hot call, so it only appends the raw value to a
    small staging list (one list append — the tail stays cache-hot even
    when the pipeline's working set evicts the bucket list); staged
    values are folded into the buckets one batch at a time, either when
    the list reaches
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

    __slots__ = ("name", "edges", "_buckets",
                 "_count", "_sum", "_min", "_max", "_pending")

    _FOLD_AT = 512

    def __init__(self, name: str, edges: Optional[tuple[float, ...]] = None):
        self.name = name
        if edges is None:
            # The default ladder is pre-validated: a 9,000-daemon sweep
            # creates tens of thousands of default histograms.
            self.edges = DEFAULT_LATENCY_EDGES
        else:
            self.edges = tuple(edges)
            if len(self.edges) < 1 or any(
                b <= a for a, b in zip(self.edges, self.edges[1:])
            ):
                raise ValueError("histogram edges must be strictly increasing")
        self._buckets: Optional[list[int]] = None
        self._count = 0
        self._sum = 0.0
        self._min = _INF
        self._max = -_INF
        self._pending: list[float] = []

    @property
    def buckets(self) -> list[int]:
        """Per-bucket counts of every observation so far."""
        self._fold()
        return self._buckets or [0] * (len(self.edges) + 1)

    def observe(self, value: float) -> None:
        pending = self._pending
        pending.append(value)
        if len(pending) >= self._FOLD_AT:
            self._fold()

    def observe_many(self, values) -> None:
        """Observe each of ``values`` in order, folded in the batches of
        ``_FOLD_AT`` that one ``observe`` per value makes: buckets,
        count, sum, min and max come out bit-equal."""
        pending = self._pending
        pending.extend(values)
        at = self._FOLD_AT
        if len(pending) >= at:
            self._pending = []  # as in ``_fold``
            full = len(pending) - len(pending) % at
            self._pending[:0] = pending[full:]
            for i in range(0, full, at):
                self._fold_batch(pending[i:i + at])

    def observe_n(self, value: float, k: int) -> None:
        """Observe ``value`` ``k`` times (``observe_many``)."""
        self.observe_many(repeat(value, k))

    @property
    def observed(self) -> int:
        """Observations so far, read without folding the staging list."""
        return self._count + len(self._pending)

    def _fold(self) -> None:
        pending = self._pending
        if pending:
            self._pending = []
            self._fold_batch(pending)

    def _fold_batch(self, pending: list) -> None:
        # What numpy's fold of the batch as a float64 array gives, bit
        # for bit (tests/test_obs_derived.py keeps it as the reference):
        # values coerced by float(), the sum in numpy's pairwise order.
        # A bucket counts the values below its upper edge, less those
        # below its lower one: searchsorted(side="right") per value.
        # Folds come in batches of _FOLD_AT, where sorting once beats
        # bisecting the edges once per value.
        vals = list(map(float, pending))
        n = len(vals)
        ordered = sorted(vals)
        buckets = (list(self._buckets) if self._buckets
                   else [0] * (len(self.edges) + 1))
        below = 0
        for i, edge in enumerate(self.edges):
            at = bisect_left(ordered, edge, below)
            buckets[i] += at - below
            below = at
        buckets[-1] += n - below
        self._buckets = buckets
        self._count += n
        self._sum += (reduce(add, vals, 0.0) if n < 8
                      else _pairwise_sum(vals, 0, n))
        self._min = min(self._min, ordered[0])
        self._max = max(self._max, ordered[-1])

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


#: What :meth:`Telemetry.summary` reads for a histogram nobody bound.
_ZERO_SUMMARY = Histogram("").summary()


class Telemetry:
    """A named-instrument registry owned by one daemon.

    Instruments are created lazily and cached by name; repeated lookups
    return the same object, so callers bind them once at setup time.
    An owner that binds instruments by role passes :meth:`declare` its
    name table: read surfaces list each declared name, zeroed until
    bound — one schema for pollers, no object per name.
    """

    __slots__ = ("_counters", "_histograms", "_declared_counters",
                 "_declared_histograms", "_owner", "__weakref__")

    def __init__(self):
        self._counters: Mapping[str, Counter] = _NO_INSTRUMENTS
        self._histograms: Mapping[str, Histogram] = _NO_INSTRUMENTS
        self._declared_counters: tuple[str, ...] = ()
        self._declared_histograms: tuple[str, ...] = ()
        self._owner = None

    def declare(self, counters: tuple[str, ...],
                histograms: tuple[str, ...], owner=None) -> None:
        """Name the counters / default-ladder histograms the read
        surfaces always list (kept by reference: one static table), and
        the ``owner`` whose ``derived_counts()`` every read surface calls
        first: it folds the owner's bulk observations into its
        histograms and returns the counts named in its ``DERIVED_COUNTS``,
        read from its own state."""
        self._declared_counters = counters
        self._declared_histograms = histograms
        self._owner = owner

    def _derived(self) -> dict:
        owner = self._owner
        return owner.derived_counts() if owner is not None else {}

    def _bind(self, table: str, name: str, instrument):
        with _BIND_LOCK:
            found = getattr(self, table)
            if found is _NO_INSTRUMENTS:
                found = {}
                setattr(self, table, found)
            return found.setdefault(name, instrument)

    def counter(self, name: str) -> Counter:
        """The owned counter ``name`` (bound on first use), or — for one
        of the owner's ``DERIVED_COUNTS`` — a detached reading of it."""
        c = self._counters.get(name)
        if c is None:
            owner = self._owner
            if owner is not None and name in owner.DERIVED_COUNTS:
                return Counter(name, owner.derived_counts().get(name, 0))
            c = self._bind("_counters", name, Counter(name))
        return c

    def histogram(
        self, name: str, edges: Optional[tuple[float, ...]] = None
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._bind("_histograms", name, Histogram(name, edges))
        return h

    # ------------------------------------------------------------------
    # surfaces: every read binds nothing
    # ------------------------------------------------------------------
    def reading(self) -> defaultdict:
        """Every listed count by name — declared, derived (after the
        owner's bulk observations are folded) and owned — and 0 for a
        name nobody bound."""
        cvals = defaultdict(int, dict.fromkeys(self._declared_counters, 0))
        cvals.update(self._derived())
        cvals.update((n, c.value) for n, c in self._counters.items())
        return cvals

    def summary(self, name: str) -> dict:
        """Histogram ``name``'s summary, zeroed for a name nobody bound."""
        h = self._histograms.get(name)
        return h.summary() if h is not None else dict(_ZERO_SUMMARY)

    def snapshot(self) -> dict:
        """Deep, detached, JSON-serializable registry snapshot: the
        listed counts (:meth:`reading`) and histograms, sorted by name."""
        return {
            "counters": dict(sorted(self.reading().items())),
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
        self._derived()
        return {n: h.dump() for n, h in self._listed_histograms()}
