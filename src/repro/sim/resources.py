"""Server-pool resources and CPU-core noise accounting.

Two resource flavours are needed by the monitoring model:

* :class:`Resource` — a counted FIFO server pool, used for ldmsd worker
  thread pools and connection thread pools in simulation.
* :class:`CpuCore` — a core that records *busy intervals* attributed to
  background daemons.  Application models ask the core how much extra
  delay a nominal compute burst of length ``L`` starting at time ``t``
  experiences; this is the OS-noise coupling that the paper's PSNAP and
  application impact experiments measure.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass

from repro.sim.engine import Engine, Event
from repro.util.errors import SimulationError

__all__ = ["Resource", "CpuCore", "NoiseRecord"]

_NO_WAITERS: tuple = ()


class Resource:
    """A counted FIFO resource (like ``simpy.Resource``).

    ``request()`` returns an event that fires when a slot is granted;
    release with ``release()``.  A waiter appends a callback to the
    grant (``repro.core.env`` queues pool tasks this way)::

        def granted(_ev):
            engine.call_later(work, pool.release)

        pool.request().callbacks.append(granted)

    :meth:`try_acquire` claims a free slot without an Event.
    """

    __slots__ = ("engine", "capacity", "_in_use", "_queue", "max_in_use",
                 "total_grants")

    def __init__(self, engine: Engine, capacity: int):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self._in_use = 0
        #: FIFO of waiting requests: a grant pops the head in O(1).  The
        #: first request that has to wait makes it; until then the empty
        #: tuple stands in (most pools never queue, and an empty deque
        #: costs 760 bytes).
        self._queue: deque[Event] | tuple = _NO_WAITERS
        self.max_in_use = 0  # high-water mark, for footprint reporting
        self.total_grants = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._queue)

    def request(self) -> Event:
        ev = self.engine.event()
        if self._in_use < self.capacity:
            self._grant(ev)
        else:
            if self._queue is _NO_WAITERS:
                self._queue = deque()
            self._queue.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Claim a slot immediately if one is free, allocating no Event.

        The counted-FIFO invariant keeps the wait queue empty whenever a
        slot is free, so this never jumps queued requesters.  Pair with
        :meth:`release`.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            self.total_grants += 1
            if self._in_use > self.max_in_use:
                self.max_in_use = self._in_use
            return True
        return False

    def _grant(self, ev: Event) -> None:
        self._in_use += 1
        self.total_grants += 1
        self.max_in_use = max(self.max_in_use, self._in_use)
        ev.succeed(self)

    def release(self, ev: Event | None = None) -> None:
        if self._in_use <= 0:
            raise SimulationError("release() without matching request()")
        self._in_use -= 1
        while self._queue and self._in_use < self.capacity:
            self._grant(self._queue.popleft())

    def cancel(self, ev: Event) -> None:
        """Withdraw a queued (not yet granted) request."""
        if not self._queue:
            return
        try:
            self._queue.remove(ev)
        except ValueError:
            pass


@dataclass(frozen=True)
class NoiseRecord:
    """One busy interval on a core: [start, start+duration), with a tag."""

    start: float
    duration: float
    tag: str


class CpuCore:
    """A core that accumulates daemon busy-time for noise accounting.

    The monitoring daemon calls :meth:`add_noise` each time its sampler
    executes on this core.  An application model running a nominal
    compute burst calls :meth:`perturbed_finish` to learn when the burst
    actually completes: any noise interval that begins before the
    (extended) completion point preempts the application and pushes
    completion out by the noise duration.  This is the standard
    noise-absorption model used in the OS-noise literature the paper
    cites (Ferreira et al.).
    """

    __slots__ = ("index", "_starts", "_records", "busy_total")

    def __init__(self, index: int = 0):
        self.index = index
        self._starts: list[float] = []  # sorted noise start times
        self._records: list[NoiseRecord] = []
        self.busy_total = 0.0

    def add_noise(self, start: float, duration: float, tag: str = "ldmsd") -> None:
        if duration < 0:
            raise SimulationError("noise duration must be >= 0")
        pos = bisect.bisect_right(self._starts, start)
        self._starts.insert(pos, start)
        self._records.insert(pos, NoiseRecord(start, duration, tag))
        self.busy_total += duration

    def perturbed_finish(self, start: float, work: float) -> float:
        """Completion time of a burst of ``work`` seconds starting at ``start``.

        Iteratively absorbs noise intervals that begin before the current
        completion estimate (each absorbed interval can expose further
        intervals to absorption).  Noise that began strictly before
        ``start`` is ignored — it already delayed the *previous* burst.
        """
        finish = start + work
        lo = bisect.bisect_left(self._starts, start)
        i = lo
        while i < len(self._starts) and self._starts[i] < finish:
            finish += self._records[i].duration
            i += 1
        return finish

    def records(self) -> list[NoiseRecord]:
        return list(self._records)
