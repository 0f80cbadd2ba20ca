"""Event-heap simulation engine.

Design notes
------------
* Time is a ``float`` in seconds.  Events scheduled at equal times fire
  in FIFO scheduling order, so runs are fully deterministic.
* An :class:`Event` carries a list of callbacks; triggering an event
  schedules it onto the heap, and processing it invokes the callbacks.
  This two-phase structure (trigger now, fire at heap-pop) is what makes
  "two processes wake at the same instant" well-defined.
* The engine itself knows nothing about processes; ``repro.sim.process``
  layers generator coroutines on top of callbacks.

Queue
-----
``_heap`` is a plain binary heap of ``(when, seq, item)``; ``seq`` is a
global scheduling counter, so equal-time items pop in the order they
were scheduled and an item scheduled at ``now`` from inside a callback
fires after everything already pending for ``now``.  There is no
per-timestamp bucketing: in every DES workload the ledger runs, pending
timestamps are distinct (each producer ticks on its own phase; mean
occupancy of an instant is 1.01 at the 9,216-producer knee), so a
bucket would hold one item and cost a dict insert and delete per event.

**Bare timers.**  :meth:`Engine.call_later` returns a slotted
:class:`_Timer` (a callback + args, no Event state machine, no
per-tick lambda), and :meth:`Engine.schedule_periodic` reschedules a
single :class:`_PeriodicTimer` object forever — the zero-allocation
periodic path that dominates sampler/updater scheduling.  Both expose
``_fire()`` so the drain loop dispatches them and real Events
uniformly.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from typing import Any, Callable

from repro.util.errors import SimulationError

__all__ = ["Engine", "Event", "Timeout", "AllOf", "AnyOf"]

# Event lifecycle states.
PENDING = 0
TRIGGERED = 1
PROCESSED = 2


class Event:
    """A waitable occurrence inside an :class:`Engine`.

    Callbacks are invoked exactly once, in registration order, when the
    engine pops the event off the heap.  ``succeed``/``fail`` trigger the
    event immediately (it fires at the current simulation time).
    """

    __slots__ = ("engine", "callbacks", "_state", "_value", "_ok")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: list[Callable[[Event], None]] = []
        self._state = PENDING
        self._value: Any = None
        self._ok = True

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == PENDING:
            raise SimulationError("event value read before trigger")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with an optional payload."""
        self._trigger(True, value, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiters see ``exc`` raised."""
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(False, exc, delay)
        return self

    def _trigger(self, ok: bool, value: Any, delay: float) -> None:
        if self._state != PENDING:
            raise SimulationError("event already triggered")
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._state = TRIGGERED
        self._ok = ok
        self._value = value
        self.engine._push(self, delay)

    def _fire(self) -> None:
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)


class Timeout(Event):
    """An event that fires automatically after ``delay`` seconds."""

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        super().__init__(engine)
        self._state = TRIGGERED
        self._ok = True
        self._value = value
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        engine._push(self, delay)


class _Timer:
    """A bare scheduled callback: the zero-allocation ``call_later`` path.

    No Event state machine, no callback list — just a function and its
    arguments, dispatched through the same ``_fire()`` protocol the
    drain loop uses for Events.  Cancel via :meth:`cancel` or
    :meth:`Engine.cancel` (sets ``fn`` to None; the heap slot fires as
    a no-op).  Duck-types ``repro.core.env.TaskHandle`` so ``SimEnv``
    can hand it out directly.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., Any], args: tuple):
        self.fn = fn
        self.args = args

    def cancel(self) -> None:
        self.fn = None

    @property
    def cancelled(self) -> bool:
        return self.fn is None

    def _fire(self) -> None:
        fn = self.fn
        if fn is not None:
            fn(*self.args)


class _PeriodicTimer:
    """A self-rescheduling timer: one object serves every tick.

    Reschedules *before* invoking ``fn`` (matching ``Env.call_every``:
    a callback that cancels its own handle stops future fires, and a
    raising callback does not kill the period).  The delay arithmetic
    and ``jitter_rng`` consumption replicate ``Env.call_every`` exactly
    so same-seed runs are byte-identical whichever path scheduled them.
    """

    __slots__ = ("engine", "fn", "interval", "synchronous", "offset", "jitter_rng")

    def __init__(self, engine: "Engine", interval: float, fn: Callable[[], Any],
                 synchronous: bool = False, offset: float = 0.0, jitter_rng=None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.engine = engine
        self.fn = fn
        self.interval = interval
        self.synchronous = synchronous
        self.offset = offset
        self.jitter_rng = jitter_rng
        engine._push(self, self._next_delay())

    def _next_delay(self) -> float:
        interval = self.interval
        if self.synchronous:
            now = self.engine._now
            offset = self.offset
            target = (now - offset) // interval * interval + interval + offset
            return max(target - now, 0.0)
        rng = self.jitter_rng
        if rng is not None:
            return interval + float(rng.uniform(0.0, 1e-3))
        return interval

    def cancel(self) -> None:
        self.fn = None

    @property
    def cancelled(self) -> bool:
        return self.fn is None

    def _fire(self) -> None:
        fn = self.fn
        if fn is None:
            return
        engine = self.engine
        engine.timer_fastpath_ticks += 1
        engine._push(self, self._next_delay())
        fn()


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, engine: "Engine", events: list[Event]):
        super().__init__(engine)
        self._events = list(events)
        self._remaining = len(self._events)
        if not self._events:
            self.succeed([])
            return
        for ev in self._events:
            if ev.processed:
                self._child_fired(ev)
            else:
                ev.callbacks.append(self._child_fired)

    def _child_fired(self, ev: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every child event has fired; value is the value list."""

    __slots__ = ()

    def _child_fired(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self._events])


class AnyOf(_Condition):
    """Fires when the first child event fires; value is that child."""

    __slots__ = ()

    def _child_fired(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self.succeed(ev)


class Engine:
    """The simulation event loop.

    >>> eng = Engine()
    >>> hits = []
    >>> _ = eng.call_later(2.5, lambda: hits.append(eng.now))
    >>> eng.run()
    >>> hits
    [2.5]
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        # (when, seq, item): seq breaks equal-time ties in scheduling
        # order and keeps the comparison from ever reaching ``item``.
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = itertools.count()
        self._nprocessed = 0
        #: ticks delivered through the zero-allocation periodic path
        self.timer_fastpath_ticks = 0
        #: logical events materialized inside vectorized batch sweeps
        #: (columnar sampler cohorts) instead of being individually
        #: heap-scheduled; ``events_processed`` deliberately excludes
        #: them so heap throughput stays directly comparable, while
        #: benchmarks may report processed + vectorized as the logical
        #: event total.
        self.vectorized_events = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._nprocessed

    # -- event construction ----------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> _Timer:
        """Schedule a plain callback; returns a cancellable timer.

        Cancel by calling :meth:`cancel` on the returned timer before it
        fires.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        t = _Timer(fn, args)
        self._push(t, delay)
        return t

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> _Timer:
        if when < self._now:
            raise SimulationError(f"call_at({when}) is in the past (now={self._now})")
        return self.call_later(when - self._now, fn, *args)

    def schedule_periodic(self, interval: float, fn: Callable[[], Any],
                          synchronous: bool = False, offset: float = 0.0,
                          jitter_rng=None) -> _PeriodicTimer:
        """Fire ``fn`` every ``interval`` seconds through one reusable
        timer object (the zero-allocation periodic fast path).

        Semantics match ``Env.call_every``: the first fire is one period
        (or the next synchronous boundary) from now, the timer
        reschedules before invoking ``fn``, and ``.cancel()`` stops it.
        """
        return _PeriodicTimer(self, interval, fn, synchronous, offset, jitter_rng)

    @staticmethod
    def cancel(ev) -> None:
        """Neutralize a scheduled callback (it fires but does nothing)."""
        if isinstance(ev, Event):
            ev.callbacks.clear()
        else:
            ev.fn = None

    # -- heap management ---------------------------------------------------
    def _push(self, item, delay: float) -> None:
        """Schedule ``item`` (anything with ``_fire()``) after ``delay``."""
        heapq.heappush(self._heap, (self._now + delay, next(self._seq), item))

    # -- running -----------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() on empty event heap")
        when, _seq, item = heapq.heappop(self._heap)
        if when < self._now:
            raise SimulationError("event heap time went backwards")
        self._now = when
        self._nprocessed += 1
        item._fire()

    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the heap drains, a deadline passes, or an event fires.

        * ``until=None`` — run to exhaustion.
        * ``until=<float>`` — run until simulated time reaches the value;
          the clock is advanced to exactly that time.
        * ``until=<Event>`` — run until that event has been processed and
          return its value (raising if it failed).

        A callback that raises propagates out with the clock at its own
        time, itself counted in ``events_processed`` and every other
        pending item still scheduled, so the caller can resume.
        """
        # Pause the cyclic collector while draining.  The drain loop
        # allocates millions of short-lived acyclic objects (frames,
        # timers, tuples); generational GC rescans them repeatedly
        # without ever freeing a cycle, costing ~40% of wall time at
        # 9,000-sampler fan-in.  Refcounting still frees everything
        # promptly; collection resumes on return.
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            return self._run(until)
        finally:
            if paused:
                gc.enable()

    def _run(self, until: float | Event | None) -> Any:
        if isinstance(until, Event):
            sentinel = until
            while not sentinel.processed:
                if not self._heap:
                    raise SimulationError("simulation ended before awaited event fired")
                self.step()
            if not sentinel.ok:
                raise sentinel.value
            return sentinel.value

        deadline = float("inf") if until is None else float(until)
        if deadline < self._now:
            raise SimulationError(f"run(until={deadline}) is in the past (now={self._now})")

        # Hot drain loop: everything in locals.  The count is kept in a
        # local and written back in ``finally`` so a raising callback is
        # still counted.
        heap = self._heap
        pop = heapq.heappop
        nproc = self._nprocessed
        try:
            while heap and heap[0][0] <= deadline:
                when, _seq, item = pop(heap)
                self._now = when
                nproc += 1
                item._fire()
        finally:
            self._nprocessed = nproc
        if deadline != float("inf"):
            self._now = deadline
        return None
