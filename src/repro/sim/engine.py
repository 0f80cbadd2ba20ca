"""Event-heap simulation engine.

Design notes
------------
* Time is a ``float`` in seconds.  Items scheduled at equal times fire
  in FIFO scheduling order, so runs are fully deterministic.
* The engine schedules callbacks only.  Everything pending is an item
  with a ``_fire()`` method: a one-shot timer, a periodic timer, a
  lane, or a component's own slotted object (a worker-pool task, a
  cohort finish, an in-flight read).  A component that must wait — a
  pool task queued behind busy workers — is held by its owner and
  pushed onto the heap when it can proceed.
* Simulated components are callbacks, not coroutines: a daemon
  schedules ``call_later`` timers and periodic timers.

Queue
-----
Every pending item has a key ``(when, seq)``; ``seq`` is a global
scheduling counter, so equal-time items fire in the order they were
scheduled and an item scheduled at ``now`` from inside a callback fires
after everything already pending for ``now``.  Items fire in key order.

``_heap`` is a binary heap of ``(when, seq, item)`` holding every
one-shot item — ``call_later``/``call_at`` timers, pool tasks, cohort
finishes, in-flight reads — and the synchronous or jittered periodic
timers, plus one entry per non-empty **lane**.  A lane
(:class:`_Lane`) is a FIFO of the pending fires of every fixed-period
timer (:class:`_LaneTimer`) sharing one interval; the heap holds only
its head, under the head's own key.  A lane needs no sorting: each of
its timers reschedules at ``now + interval`` with a fresh ``seq``,
``now`` never goes back and float addition is monotone, so keys arrive
in order.  Firing a lane pops its head, re-pushes the lane under its
next head's key, then fires the timer — so the heap merges lanes and
one-shot items by the same key, and fire order, ``now``,
``events_processed`` and ``timer_fastpath_ticks`` are what one heap of
everything would give.  At the 9,216-producer knee every pending
periodic fire shares the 5 s interval: between slices the heap holds 1
entry instead of 9,218, so a push or pop no longer sifts through
timers that will not fire for seconds.  Synchronous and jittered timers
compute each delay afresh, so their keys need not arrive in order: they
stay plain heap entries.

There is no per-timestamp bucketing: in every DES workload the ledger
runs, pending timestamps are distinct (each producer ticks on its own
phase; mean occupancy of an instant is 1.01 at the knee), so a bucket
would hold one item and cost a dict insert and delete per event.

**Bare timers.**  :meth:`Engine.call_later` returns a slotted
:class:`_Timer` (a callback + args, no per-tick lambda), and
:meth:`Engine.schedule_periodic` reschedules a single
:class:`_LaneTimer` or :class:`_PeriodicTimer` object forever — the
zero-allocation periodic path that dominates sampler/updater
scheduling.  All of them (and lanes) expose ``_fire()`` so the drain
loop dispatches them and the components' own items uniformly.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from collections import deque
from typing import Any, Callable

from repro.util.errors import SimulationError

__all__ = ["Engine"]


class _Timer:
    """A bare scheduled callback: the zero-allocation ``call_later`` path.

    Just a function and its arguments, dispatched through the
    ``_fire()`` protocol the drain loop uses for every item.  Cancel via
    :meth:`cancel` (sets ``fn`` to None; the heap slot fires as a
    no-op).  Duck-types ``repro.core.env.TaskHandle`` so ``SimEnv``
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


class _Lane:
    """The pending fires of every fixed-period timer sharing one
    interval, in key order (module docstring); the engine heap holds
    the head's key with the lane as its item."""

    __slots__ = ("engine", "interval", "keys", "timers")

    def __init__(self, engine: "Engine", interval: float):
        self.engine = engine
        self.interval = interval
        self.keys: deque[tuple[float, int, _Lane]] = deque()
        self.timers: deque[_LaneTimer] = deque()

    def push(self, timer: "_LaneTimer") -> None:
        """Schedule ``timer`` one interval from now."""
        engine = self.engine
        key = (engine._now + self.interval, next(engine._seq), self)
        keys = self.keys
        if not keys:
            heapq.heappush(engine._heap, key)
        keys.append(key)
        self.timers.append(timer)

    def _fire(self) -> None:
        keys = self.keys
        keys.popleft()
        timer = self.timers.popleft()
        if keys:
            heapq.heappush(self.engine._heap, keys[0])
        timer._fire()


class _LaneTimer:
    """A fixed-period timer: one object serves every tick, each fire
    queued on its interval's :class:`_Lane`.

    Reschedules *before* invoking ``fn`` (matching ``Env.call_every``:
    a callback that cancels its own handle stops future fires, and a
    raising callback does not kill the period); the next fire is
    ``now + interval``, ``Env.call_every``'s own arithmetic.
    """

    __slots__ = ("lane", "fn")

    def __init__(self, lane: _Lane, fn: Callable[[], Any]):
        self.lane = lane
        self.fn = fn
        lane.push(self)

    def cancel(self) -> None:
        self.fn = None

    @property
    def cancelled(self) -> bool:
        return self.fn is None

    def _fire(self) -> None:
        fn = self.fn
        if fn is None:
            return
        lane = self.lane
        lane.engine.timer_fastpath_ticks += 1
        lane.push(self)
        fn()


class _PeriodicTimer:
    """A synchronous or jittered periodic timer: one object serves every
    tick, each fire a plain heap entry (its delay is computed afresh).

    Reschedules before invoking ``fn``, like :class:`_LaneTimer`.  The
    delay arithmetic and ``jitter_rng`` consumption replicate
    ``Env.call_every`` exactly so same-seed runs are byte-identical
    whichever path scheduled them.
    """

    __slots__ = ("engine", "fn", "interval", "synchronous", "offset", "jitter_rng")

    def __init__(self, engine: "Engine", interval: float, fn: Callable[[], Any],
                 synchronous: bool, offset: float, jitter_rng):
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
        return interval + float(self.jitter_rng.uniform(0.0, 1e-3))

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
        #: interval -> the lane of the fixed-period timers sharing it
        self._lanes: dict[float, _Lane] = {}
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

    # -- scheduling --------------------------------------------------------
    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> _Timer:
        """Schedule a plain callback; returns a cancellable timer.

        Cancel by calling ``cancel()`` on the returned timer before it
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
                          jitter_rng=None) -> _LaneTimer | _PeriodicTimer:
        """Fire ``fn`` every ``interval`` seconds through one reusable
        timer object (the zero-allocation periodic fast path).

        Semantics match ``Env.call_every``: the first fire is one period
        (or the next synchronous boundary) from now, the timer
        reschedules before invoking ``fn``, and ``.cancel()`` stops it.
        A fixed-period timer joins its interval's lane.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        if synchronous or jitter_rng is not None:
            return _PeriodicTimer(self, interval, fn, synchronous, offset,
                                  jitter_rng)
        lane = self._lanes.get(interval)
        if lane is None:
            lane = self._lanes[interval] = _Lane(self, interval)
        return _LaneTimer(lane, fn)

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

    def run(self, until: float | None = None) -> None:
        """Run until the heap drains or a deadline passes.

        * ``until=None`` — run to exhaustion.
        * ``until=<float>`` — run until simulated time reaches the value;
          the clock is advanced to exactly that time.

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
            self._run(until)
        finally:
            if paused:
                gc.enable()

    def _run(self, until: float | None) -> None:
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
