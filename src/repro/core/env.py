"""Execution environments: real threads vs discrete-event simulation.

``ldmsd`` is written against this small interface so the identical
daemon logic runs

* on a real machine (``RealEnv``: a scheduler thread + ``heapq``, real
  wall clock, ``threading.ThreadPoolExecutor``-style workers), and
* inside the simulator (``SimEnv``: the :class:`repro.sim.Engine` clock,
  worker pools modelled as counted FIFO queues, and task execution that
  *advances simulated time* by a declared cost and charges that cost to
  a CPU core as OS noise).

The daemon is callback-driven; in RealEnv all callbacks are serialized
under a single daemon lock supplied by the environment, which keeps the
shared-state discipline identical in both modes.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from typing import Any, Callable, Optional

from repro.sim.engine import Engine
from repro.sim.resources import CpuCore
from repro.util.errors import SimulationError
from repro.util.timeutil import monotonic

__all__ = ["Env", "RealEnv", "SimEnv", "TaskHandle", "WorkerPool"]


class TaskHandle:
    """Cancellable handle for a ``RealEnv`` one-shot timer.

    ``fired`` is set, under the environment lock, when the timer's heap
    entry is popped; a cancel after that counts no dead heap entry.
    """

    __slots__ = ("_env", "fn", "cancelled", "fired")

    def __init__(self, env: "RealEnv", fn: Callable[[], Any]):
        self._env = env
        self.fn = fn
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        self._env._cancel(self)


class WorkerPool:
    """Abstract worker pool (ldmsd worker / connection / flush threads)."""

    __slots__ = ()

    name: str
    size: int

    def submit(
        self,
        fn: Callable[[], Any],
        cost: float = 0.0,
        core: Optional[CpuCore] = None,
        tag: str = "ldmsd",
        on_start: Optional[Callable[[], Any]] = None,
    ) -> None:
        """Run ``fn`` on a pool worker.

        ``cost``/``core``/``tag`` are simulation annotations: the task
        occupies a worker for ``cost`` simulated seconds and records that
        busy time on ``core`` (for noise accounting).  ``cost`` may be a
        zero-argument callable, evaluated when the worker is acquired
        (batched tasks charge for the work they seal at that moment).
        RealEnv ignores them — real work has real cost.

        ``on_start`` fires when the worker is acquired, *before* the
        cost window; ``fn`` fires at its end.  ldmsd uses this split to
        open the sampling transaction at the start of the busy window so
        concurrent fetches see the consistent flag clear.
        """
        raise NotImplementedError


class Env:
    """Scheduling environment interface."""

    def now(self) -> float:
        raise NotImplementedError

    def call_later(self, delay: float, fn: Callable[[], Any]) -> TaskHandle:
        raise NotImplementedError

    def make_pool(self, name: str, size: int) -> WorkerPool:
        raise NotImplementedError

    def make_lock(self):
        """A reentrant lock the daemon serializes its callbacks under."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Stop background machinery (RealEnv threads). Idempotent."""

    def timer_fastpath_ticks(self) -> int:
        """Ticks delivered through the zero-allocation periodic path."""
        return 0

    # -- convenience -------------------------------------------------------
    def call_every(
        self,
        interval: float,
        fn: Callable[[], Any],
        synchronous: bool = False,
        offset: float = 0.0,
        jitter_rng=None,
    ) -> TaskHandle:
        """Invoke ``fn`` periodically.

        With ``synchronous=True`` invocations are aligned to wall-clock
        multiples of ``interval`` plus ``offset`` (the paper's
        *synchronous* sampling: "an attempt to collect (or sample)
        relative to particular times as opposed to relative to an
        arbitrary start time", §IV-C).  Otherwise the period is relative
        to the start time.  ``jitter_rng``, if given, adds uniform jitter
        in [0, 1ms) to each asynchronous firing, modelling scheduler
        wakeup slop.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        return self._periodic(interval, fn, synchronous, offset, jitter_rng)

    def _periodic(self, interval: float, fn: Callable[[], Any],
                  synchronous: bool, offset: float, jitter_rng) -> Any:
        """Arm a validated periodic timer; the handle has ``cancel()``.

        ``call_every`` stays the one entry point (the ledger's tracer
        wraps ``fn`` there), so environments override this hook."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Real environment
# ---------------------------------------------------------------------------


class _RealPool(WorkerPool):
    """Fixed set of daemon worker threads fed from a queue."""

    def __init__(self, name: str, size: int):
        self.name = name
        self.size = size
        # ``(on_start, fn)`` pairs: a task costs no closure.
        self._tasks: deque[tuple[Optional[Callable[[], Any]], Callable[[], Any]]] = deque()
        self._cv = threading.Condition()
        self._stop = False
        self._threads = [
            threading.Thread(target=self._worker, name=f"{name}-{i}", daemon=True)
            for i in range(size)
        ]
        for t in self._threads:
            t.start()

    def submit(self, fn, cost: float = 0.0, core=None, tag: str = "ldmsd", on_start=None) -> None:
        with self._cv:
            if self._stop:
                return
            self._tasks.append((on_start, fn))
            self._cv.notify()

    def _worker(self) -> None:
        while True:
            with self._cv:
                while not self._tasks and not self._stop:
                    self._cv.wait()
                if self._stop and not self._tasks:
                    return
                on_start, fn = self._tasks.popleft()
            try:
                if on_start is not None:
                    on_start()
                fn()
            except Exception:  # pragma: no cover - worker survival
                import traceback

                traceback.print_exc()

    def shutdown(self) -> None:
        with self._cv:
            self._stop = True
            self._cv.notify_all()
        for t in self._threads:
            t.join(timeout=2.0)


class _Member:
    """One ``RealEnv.call_every`` timer: a member of its lane.

    Duck-types :class:`TaskHandle`; ``fn`` is the callable handed to
    ``Env.call_every``, called as is."""

    __slots__ = ("lane", "fn", "cancelled")

    def __init__(self, lane: "_Lane", fn: Callable[[], Any]):
        self.lane = lane
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.lane.env._leave(self)


class _Lane:
    """One timer-heap entry per schedule.

    Synchronous timers with equal ``(interval, offset)`` share a lane;
    an asynchronous or jittered timer is a lane of one.  Firing re-arms
    the lane once, then calls its members in registration order.
    ``members`` is replaced, never mutated, so a firing iterates the
    tuple it read under the lock: a member added meanwhile first fires
    at the next instant.  A lane left without members is a dead heap
    entry (``cancelled``), counted like a cancelled one-shot.
    """

    __slots__ = ("env", "interval", "offset", "synchronous", "jitter_rng",
                 "members", "cancelled")

    def __init__(self, env: "RealEnv", interval: float, synchronous: bool,
                 offset: float, jitter_rng):
        self.env = env
        self.interval = interval
        self.offset = offset
        self.synchronous = synchronous
        self.jitter_rng = jitter_rng
        self.members: tuple[_Member, ...] = ()
        self.cancelled = False

    def next_delay(self, now: float) -> float:
        """Seconds from ``now`` to the lane's next instant: the next grid
        point of ``interval`` plus ``offset`` if synchronous, else the
        interval plus any jitter in [0, 1 ms).  The engine's periodic
        timers use the same arithmetic."""
        interval = self.interval
        if self.synchronous:
            offset = self.offset
            target = (now - offset) // interval * interval + interval + offset
            return max(target - now, 0.0)
        if self.jitter_rng is not None:
            interval += float(self.jitter_rng.uniform(0.0, 1e-3))
        return interval


class RealEnv(Env):
    """Wall-clock environment: one timer thread + worker pools.

    The timer heap holds ``(when, seq, item)``: ``item`` is a one-shot
    :class:`TaskHandle` or a periodic :class:`_Lane`, so a cadence
    shared by many timers costs one heap pop, one wake-up and one
    re-arm per instant.
    """

    #: dead-entry count that arms a heap compaction pass
    _COMPACT_MIN = 64

    def __init__(self):
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = itertools.count()
        self._cv = threading.Condition()
        self._stop = False
        self._pools: list[_RealPool] = []
        self._epoch = monotonic()
        self._ncancelled = 0  # dead entries (cancelled, or empty lanes) still in the heap
        self._lanes: dict[tuple[float, float], _Lane] = {}  # synchronous, by (interval, offset)
        self._ticks = 0  # lane members called
        self._timer = threading.Thread(target=self._run, name="env-timer", daemon=True)
        self._timer.start()

    def now(self) -> float:
        return monotonic() - self._epoch

    def call_later(self, delay: float, fn: Callable[[], Any]) -> TaskHandle:
        handle = TaskHandle(self, fn)
        with self._cv:
            self._push(monotonic() - self._epoch + max(delay, 0.0), handle)
        return handle

    def _periodic(self, interval: float, fn: Callable[[], Any],
                  synchronous: bool, offset: float, jitter_rng) -> _Member:
        with self._cv:
            lane = self._lanes.get((interval, offset)) if synchronous else None
            if lane is None:
                lane = _Lane(self, interval, synchronous, offset, jitter_rng)
                if synchronous:
                    self._lanes[interval, offset] = lane
                now = self.now()
                self._push(now + lane.next_delay(now), lane)
            member = _Member(lane, fn)
            lane.members += (member,)
        return member

    def timer_fastpath_ticks(self) -> int:
        """Periodic firings delivered: lane members called."""
        return self._ticks

    def _push(self, when: float, item) -> None:
        """Heap push, lock held; wakes the timer thread to re-read the head."""
        heapq.heappush(self._heap, (when, next(self._seq), item))
        self._cv.notify()

    def _cancel(self, handle: TaskHandle) -> None:
        with self._cv:
            if handle.cancelled:
                return
            handle.cancelled = True
            if not handle.fired:
                self._note_dead()

    def _leave(self, member: _Member) -> None:
        with self._cv:
            if member.cancelled:
                return
            member.cancelled = True
            lane = member.lane
            lane.members = tuple(m for m in lane.members if m is not member)
            if not lane.members:
                lane.cancelled = True
                key = (lane.interval, lane.offset)
                if self._lanes.get(key) is lane:
                    del self._lanes[key]
                self._note_dead()

    def _note_dead(self) -> None:
        """Lazy drop, lock held: count the dead heap entry; compact once
        dead entries dominate, so churning producers can't grow the heap
        unboundedly while their timers wait out long deadlines."""
        self._ncancelled += 1
        heap = self._heap
        if self._ncancelled >= self._COMPACT_MIN and self._ncancelled * 2 >= len(heap):
            heap[:] = [e for e in heap if not e[2].cancelled]
            heapq.heapify(heap)
            self._ncancelled = 0

    def make_pool(self, name: str, size: int) -> WorkerPool:
        pool = _RealPool(name, size)
        self._pools.append(pool)
        return pool

    def make_lock(self):
        return threading.RLock()

    def _run(self) -> None:
        heap = self._heap
        cv = self._cv
        epoch = self._epoch
        while True:
            with cv:
                if self._stop:
                    return
                if not heap:
                    cv.wait(timeout=0.5)
                    continue
                when, _seq, item = heap[0]
                now = monotonic() - epoch
                if when > now:
                    cv.wait(timeout=min(when - now, 0.5))
                    continue
                heapq.heappop(heap)
                if item.cancelled:
                    self._ncancelled -= 1
                    continue
                if item.__class__ is _Lane:
                    # Re-arm once, then call the members read here.
                    heapq.heappush(heap, (now + item.next_delay(now), next(self._seq), item))
                    due = item.members
                else:
                    item.fired = True
                    due = (item,)
            for t in due:
                if t.cancelled:  # by an earlier member, or another thread
                    continue
                if t is not item:  # a lane member, not a one-shot
                    self._ticks += 1
                try:
                    t.fn()
                except Exception:  # pragma: no cover - timer survival
                    import traceback

                    traceback.print_exc()

    def shutdown(self) -> None:
        with self._cv:
            self._stop = True
            self._cv.notify_all()
        self._timer.join(timeout=2.0)
        for p in self._pools:
            p.shutdown()


# ---------------------------------------------------------------------------
# Simulated environment
# ---------------------------------------------------------------------------


class _PoolTask:
    """One submitted pool task: slotted two-phase grant→finish state.

    Phase 1 (grant) opens the busy window (``on_start``), charges core
    noise, and schedules phase 2 at the cost horizon.  Phase 2 runs the
    callback and releases the worker.  A grant whose work raises (a
    lazy ``cost()`` or ``on_start``) releases the worker before the
    error propagates, so the next queued task still runs when the
    caller resumes ``Engine.run``.
    """

    __slots__ = ("pool", "fn", "cost", "core", "tag", "on_start", "_started")

    def __init__(self, pool: "_SimPool", fn, cost, core, tag, on_start):
        self.pool = pool
        self.fn = fn
        self.cost = cost
        self.core = core
        self.tag = tag
        self.on_start = on_start
        self._started = False

    def _fire(self) -> None:
        pool = self.pool
        if self._started:
            try:
                self.fn()
            finally:
                pool.release()
            return
        self._started = True
        try:
            cost = self.cost
            if callable(cost):
                # Lazy cost: evaluated when the worker is acquired, so a
                # batched task can charge for exactly the work it seals
                # off at that moment.
                cost = cost()
            if self.on_start is not None:
                self.on_start()
        except BaseException:
            pool.release()
            raise
        if self.core is not None and cost > 0.0:
            self.core.add_noise(pool.engine.now, cost, self.tag)
        pool.busy_time += cost
        pool.tasks_run += 1
        if cost > 0.0:
            pool.engine._push(self, cost)
        else:
            try:
                self.fn()
            finally:
                pool.release()


#: Stands in for a pool's wait queue until the first task waits (typed
#: as the deque it stands in for: both are falsy when empty).
_NO_WAITERS: Any = ()


class _SimPool(WorkerPool):
    """Worker pool as a counted FIFO of ``size`` workers.

    A submitted task waits for a free worker, holds it for ``cost``
    simulated seconds, records the busy time as noise on the given core,
    then runs its callback.  A task that finds every worker busy joins
    ``_waiting``; :meth:`release` hands the freed worker straight to the
    head task, whose grant fires one heap entry later.
    """

    __slots__ = ("engine", "name", "size", "in_use", "_waiting", "busy_time",
                 "tasks_run")

    def __init__(self, engine: Engine, name: str, size: int):
        if size < 1:
            raise SimulationError("pool size must be >= 1")
        self.engine = engine
        self.name = name
        self.size = size
        self.in_use = 0
        #: FIFO of tasks waiting for a worker.  The first task that has
        #: to wait makes it; until then ``_NO_WAITERS`` stands in (most
        #: pools never queue, and an empty deque costs 760 bytes).
        self._waiting: deque[_PoolTask] = _NO_WAITERS
        self.busy_time = 0.0
        self.tasks_run = 0

    def try_acquire(self) -> bool:
        """Claim a free worker now; pair with :meth:`release`.  A worker
        is never free while a task waits, so this jumps no queue."""
        if self.in_use < self.size:
            self.in_use += 1
            return True
        return False

    def release(self) -> None:
        """Free a worker, or hand it to the head waiting task."""
        if self._waiting:
            self.engine._push(self._waiting.popleft(), 0.0)
        elif self.in_use > 0:
            self.in_use -= 1
        else:
            raise SimulationError("release() without a held worker")

    def submit(self, fn, cost: float = 0.0, core=None, tag: str = "ldmsd", on_start=None) -> None:
        task = _PoolTask(self, fn, cost, core, tag, on_start)
        if self.in_use < self.size:
            self.in_use += 1
            if not callable(cost) and cost > 0.0:
                # Free worker, fixed positive cost: run phase 1 (grant)
                # inline.  The grant only opens the busy window and
                # charges the core — the callback still fires at the
                # cost horizon — so a zero-delay grant entry is pure
                # heap traffic.  Lazy (callable) costs keep the entry,
                # because they must price work sealed at grant time;
                # zero-cost tasks keep it so ``fn`` never reenters the
                # submitter's frame.
                task._started = True
                if on_start is not None:
                    try:
                        on_start()
                    except BaseException:
                        self.release()
                        raise
                if core is not None:
                    core.add_noise(self.engine.now, cost, tag)
                self.busy_time += cost
                self.tasks_run += 1
                self.engine._push(task, cost)
            else:
                self.engine._push(task, 0.0)
        else:
            if self._waiting is _NO_WAITERS:
                self._waiting = deque()
            self._waiting.append(task)


class SimEnv(Env):
    """Environment bound to a simulation engine."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.pools: list[_SimPool] = []
        # Columnar data plane: one shared set-arena pool and
        # sampler-cohort scheduler per environment.
        from repro.core.set_arena import CohortScheduler, SetArenaPool

        self.set_arena_pool = SetArenaPool()
        self.cohort_scheduler = CohortScheduler(engine)

    def now(self) -> float:
        return self.engine._now  # skip the property hop: hottest call in a sweep

    def call_later(self, delay: float, fn: Callable[[], Any]) -> TaskHandle:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # The engine timer duck-types TaskHandle (cancel()/cancelled);
        # returning it directly saves two allocations per scheduling.
        return self.engine.call_later(delay, fn)

    def call_every(self, interval: float, fn: Callable[[], Any],
                   synchronous: bool = False, offset: float = 0.0,
                   jitter_rng=None) -> TaskHandle:
        # Zero-allocation periodic path: one self-rescheduling timer
        # object instead of a Timeout + closure pair per tick.  Delay
        # arithmetic and jitter draws match RealEnv's lanes.
        return self.engine.schedule_periodic(interval, fn, synchronous,
                                             offset, jitter_rng)

    def timer_fastpath_ticks(self) -> int:
        return self.engine.timer_fastpath_ticks

    def make_pool(self, name: str, size: int) -> WorkerPool:
        pool = _SimPool(self.engine, name, size)
        self.pools.append(pool)
        return pool

    def make_lock(self):
        # Single-threaded: never contended, so the C lock never waits,
        # and a ``with`` on it runs no Python frame.
        return threading.RLock()
