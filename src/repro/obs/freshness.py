"""Per-producer completeness / staleness / lag tracking on an aggregator.

§IV-A quantifies over-capacity operation by *completeness* — the
fraction of expected sampler transactions that actually reached a
store.  Until now that number existed only as an end-of-run experiment
statistic (``delivered / expected`` computed from store rows).  The
:class:`FreshnessTracker` makes it a live, per-producer signal on the
aggregator, computed from the same evidence an operator has: the DGN
and transaction timestamps of the updates that arrive.

Per producer the tracker keeps a slotted :class:`ProducerFreshness`
record; the aggregator's update completion path calls
``state.observe(sample_ts, missed)`` with a *missed-interval hint* it
derives from the per-set DGN gap and transaction-timestamp gap (both
already in hand on that path — the tracker itself never touches sets).
``expected`` is derived from elapsed time: a producer armed at ``t0``
with ``n`` sets sampling every ``interval`` owes
``n * floor((now - t0) / interval - 1)`` transactions — the same
first-and-last-edge discounting the fan-in experiment's ground truth
uses (``expected = n * (duration / interval - 1)``), so at the end of a
run tracker completeness equals the experiment's delivered/expected
ratio exactly.

Cost discipline: a producer holds its state object (``None`` until
armed), so the per-update cost is one ``is not None`` test; ``observe``
is three attribute writes.
"""

from __future__ import annotations

__all__ = ["FreshnessTracker", "ProducerFreshness"]


class ProducerFreshness:
    """Live freshness state of one producer connection."""

    __slots__ = ("name", "interval", "t0", "nsets",
                 "delivered", "missed", "last_ts")

    def __init__(self, name: str, interval: float, nsets: int, t0: float):
        self.name = name
        self.interval = interval
        self.t0 = t0
        self.nsets = nsets
        self.delivered = 0   # updates stored (post-validation, post-store)
        self.missed = 0      # intervals detected missed from DGN/ts gaps
        self.last_ts = 0.0   # newest transaction timestamp stored

    # Hot call — one update of each scalar, no allocation.
    def observe(self, sample_ts: float, missed: int) -> None:
        self.delivered += 1
        self.missed += missed
        if sample_ts > self.last_ts:
            self.last_ts = sample_ts

    def expected(self, now: float) -> int:
        """Transactions owed by ``now`` (fan-in ground-truth formula)."""
        if self.interval <= 0.0:
            return 0
        per_set = int((now - self.t0) / self.interval) - 1
        if per_set < 0:
            per_set = 0
        return per_set * self.nsets

    def completeness(self, now: float) -> float:
        exp = self.expected(now)
        if exp <= 0:
            return 1.0
        ratio = self.delivered / exp
        return 1.0 if ratio > 1.0 else ratio

    def staleness(self, now: float) -> float:
        """Age of the newest stored transaction (seconds)."""
        if self.delivered == 0:
            return now - self.t0
        age = now - self.last_ts
        return age if age > 0.0 else 0.0

    def lag_intervals(self, now: float) -> int:
        """Whole sampling intervals the producer is currently behind."""
        if self.interval <= 0.0:
            return 0
        lag = int(self.staleness(now) / self.interval) - 1
        return lag if lag > 0 else 0

    def as_dict(self, now: float) -> dict:
        return {
            "producer": self.name,
            "interval": self.interval,
            "nsets": self.nsets,
            "delivered": self.delivered,
            "expected": self.expected(now),
            "missed": self.missed,
            "completeness": self.completeness(now),
            "staleness": self.staleness(now),
            "lag_intervals": self.lag_intervals(now),
        }


class FreshnessTracker:
    """Registry of :class:`ProducerFreshness` states for one aggregator.

    Stale producers are detected *in real time* in the sense that every
    read of the tracker (self-set collection, ``stats``/``prof`` verbs,
    ``repro-top``) recomputes expected/staleness from the current clock
    — a producer that stops delivering shows a falling completeness and
    a growing staleness without any further updates arriving.
    """

    #: A producer is counted stale when its newest stored transaction is
    #: older than this many sampling intervals.
    STALE_AFTER = 2.0

    __slots__ = ("states",)

    def __init__(self):
        self.states: dict[str, ProducerFreshness] = {}

    def arm(self, name: str, interval: float, nsets: int,
            now: float) -> ProducerFreshness:
        """Start (or re-anchor) tracking a producer."""
        state = self.states.get(name)
        if state is None:
            state = self.states[name] = ProducerFreshness(
                name, interval, nsets, now)
        else:
            # Reconfigured producer (restart/promotion): keep the
            # counters, re-anchor the expectation clock.
            state.interval = interval
            state.nsets = nsets
        return state

    def disarm(self, name: str) -> None:
        self.states.pop(name, None)

    # ------------------------------------------------------------------
    # read surfaces
    # ------------------------------------------------------------------
    def fleet(self, now: float) -> dict:
        """Aggregate fleet-health row (the ``ldmsd_self`` surface).

        ``completeness`` is ``sum(delivered) / sum(expected)`` across
        producers — the exact fleet-wide delivered/expected ratio, not a
        mean of per-producer ratios — so it matches experiment ground
        truth computed from total store rows.
        """
        delivered = 0
        expected = 0
        missed = 0
        stale = 0
        worst = 0.0
        for state in self.states.values():
            delivered += state.delivered
            expected += state.expected(now)
            missed += state.missed
            age = state.staleness(now)
            if age > worst:
                worst = age
            if state.interval > 0.0 and age > self.STALE_AFTER * state.interval:
                stale += 1
        ratio = delivered / expected if expected > 0 else 1.0
        return {
            "producers": len(self.states),
            "delivered": delivered,
            "expected": expected,
            "missed": missed,
            "completeness": 1.0 if ratio > 1.0 else ratio,
            "stale_producers": stale,
            "max_staleness": worst,
        }

    def snapshot(self, now: float) -> dict:
        """Full per-producer dump (the ``prof`` / ``repro-top`` surface)."""
        out = self.fleet(now)
        out["per_producer"] = [
            state.as_dict(now)
            for _, state in sorted(self.states.items())
        ]
        return out
