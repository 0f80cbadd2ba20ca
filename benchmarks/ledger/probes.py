"""The ledger's two outside probes.

Both plug into extension points the program already offers, so the
benchmark observes without editing ``src/``:

* :class:`RawRecorder` duck-types ``Telemetry.histogram()`` for
  ``build_population(..., obs=)``: query clients ``observe()`` their
  round-trip times into plain lists, so quantiles come from the raw
  samples and not from the registry's 1-2-5 bucket ladder.
* :class:`BenchTapStore` is a store plugin (``bench_tap``) that records,
  per stored record, how long after its pull was *due* it reached the
  store stage.  It never writes anything.
"""

from __future__ import annotations

import math

from repro.core.store import StorePlugin, StoreRecord, register_store

__all__ = ["RawRecorder", "BenchTapStore"]


class _RawHistogram:
    __slots__ = ("values", "observe")

    def __init__(self) -> None:
        self.values: list[float] = []
        self.observe = self.values.append


class RawRecorder:
    """``obs``-shaped registry keeping every observation."""

    def __init__(self) -> None:
        self._histograms: dict[str, _RawHistogram] = {}

    def histogram(self, name: str) -> _RawHistogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = _RawHistogram()
        return h


@register_store("bench_tap")
class BenchTapStore(StorePlugin):
    """Arrival-minus-due recorder at the store stage.

    Config options
    --------------
    clock:
        Zero-argument callable on the daemons' clock (``env.now``).
    interval / offset:
        The synchronous schedule: samples are due at ``k * interval``
        and the pull that should collect sample ``k`` at
        ``k * interval + offset``.

    A record's tick ``k`` comes from its transaction timestamp, so a
    sample that ran late and was picked up one pull later is charged
    from the pull that *should* have carried it.  Per record the tap
    keeps ``(tick, lag, late)``: ``lag`` = arrival here minus the due
    pull, ``late`` = transaction close minus the due sample instant.
    """

    def config(self, clock=None, interval: float = 1.0, offset: float = 0.0,
               **kwargs) -> None:
        super().config(**kwargs)
        if clock is None:
            raise ValueError("bench_tap: clock= is required")
        self.clock = clock
        self.interval = float(interval)
        self.offset = float(offset)
        self.ticks: list[int] = []
        self.lags: list[float] = []
        self.lates: list[float] = []

    def store(self, record: StoreRecord) -> None:
        self.store_many([record])

    def store_many(self, records: list[StoreRecord]) -> None:
        now = self.clock()
        interval = self.interval
        offset = self.offset
        for record in records:
            ts = record.timestamp
            # The epsilon keeps a sample stamped a float hair below its
            # own due instant on its own tick.
            tick = math.floor(ts / interval + 1e-6)
            due = tick * interval
            self.ticks.append(tick)
            self.lags.append(now - (due + offset))
            self.lates.append(ts - due)

    def window(self, tick0: int, tick1: int) -> tuple[list[float], list[float]]:
        """(lags, lates) of the records with ``tick0 <= tick < tick1``.

        Snapshots the lists first: flush threads may still be appending.
        """
        n = min(len(self.ticks), len(self.lags), len(self.lates))
        sel = [i for i in range(n) if tick0 <= self.ticks[i] < tick1]
        return [self.lags[i] for i in sel], [self.lates[i] for i in sel]
