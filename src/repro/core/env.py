"""Execution environments: real threads vs discrete-event simulation.

``ldmsd`` is written against this small interface so the identical
daemon logic runs

* on a real machine (``RealEnv``: a scheduler thread + ``heapq``, real
  wall clock, ``threading.ThreadPoolExecutor``-style workers), and
* inside the simulator (``SimEnv``: the :class:`repro.sim.Engine` clock,
  worker pools modelled as counted resources, and task execution that
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
from repro.sim.resources import CpuCore, Resource
from repro.util.errors import SimulationError
from repro.util.timeutil import monotonic

__all__ = ["Env", "RealEnv", "SimEnv", "TaskHandle", "WorkerPool"]


class TaskHandle:
    """Cancellable handle for a scheduled callback."""

    __slots__ = ("_cancel", "cancelled")

    def __init__(self, cancel: Callable[[], None]):
        self._cancel = cancel
        self.cancelled = False

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self._cancel()


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
        state = {"handle": None, "stopped": False}

        def next_delay() -> float:
            if synchronous:
                now = self.now()
                target = (now - offset) // interval * interval + interval + offset
                return max(target - now, 0.0)
            d = interval
            if jitter_rng is not None:
                d += float(jitter_rng.uniform(0.0, 1e-3))
            return d

        def fire() -> None:
            if state["stopped"]:
                return
            state["handle"] = self.call_later(next_delay(), fire)
            fn()

        state["handle"] = self.call_later(next_delay(), fire)

        def cancel() -> None:
            state["stopped"] = True
            h = state["handle"]
            if h is not None:
                h.cancel()

        return TaskHandle(cancel)


# ---------------------------------------------------------------------------
# Real environment
# ---------------------------------------------------------------------------


class _RealPool(WorkerPool):
    """Fixed set of daemon worker threads fed from a queue."""

    def __init__(self, name: str, size: int):
        self.name = name
        self.size = size
        self._tasks: deque[Callable[[], Any]] = deque()
        self._cv = threading.Condition()
        self._stop = False
        self._threads = [
            threading.Thread(target=self._worker, name=f"{name}-{i}", daemon=True)
            for i in range(size)
        ]
        for t in self._threads:
            t.start()

    def submit(self, fn, cost: float = 0.0, core=None, tag: str = "ldmsd", on_start=None) -> None:
        def task() -> None:
            if on_start is not None:
                on_start()
            fn()

        with self._cv:
            if self._stop:
                return
            self._tasks.append(task)
            self._cv.notify()

    def _worker(self) -> None:
        while True:
            with self._cv:
                while not self._tasks and not self._stop:
                    self._cv.wait()
                if self._stop and not self._tasks:
                    return
                fn = self._tasks.popleft()
            try:
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


class RealEnv(Env):
    """Wall-clock environment: one timer thread + worker pools."""

    #: cancelled-entry count that arms a heap compaction pass
    _COMPACT_MIN = 64

    def __init__(self):
        self._heap: list[tuple[float, int, Callable[[], Any], TaskHandle]] = []
        self._seq = itertools.count()
        self._cv = threading.Condition()
        self._stop = False
        self._pools: list[_RealPool] = []
        self._epoch = monotonic()
        self._ncancelled = 0  # cancelled entries still sitting in the heap
        self._timer = threading.Thread(target=self._run, name="env-timer", daemon=True)
        self._timer.start()

    def now(self) -> float:
        return monotonic() - self._epoch

    def call_later(self, delay: float, fn: Callable[[], Any]) -> TaskHandle:
        handle = TaskHandle(self._note_cancel)  # cancellation checked via flag
        with self._cv:
            heapq.heappush(self._heap, (self.now() + max(delay, 0.0), next(self._seq), fn, handle))
            self._cv.notify()
        return handle

    def _note_cancel(self) -> None:
        """Lazy drop: count the dead heap entry; compact once cancelled
        entries dominate, so churning producers can't grow the heap
        unboundedly while their timers wait out long deadlines."""
        with self._cv:
            self._ncancelled += 1
            if (self._ncancelled >= self._COMPACT_MIN
                    and self._ncancelled * 2 >= len(self._heap)):
                self._heap = [e for e in self._heap if not e[3].cancelled]
                heapq.heapify(self._heap)
                self._ncancelled = 0

    def make_pool(self, name: str, size: int) -> WorkerPool:
        pool = _RealPool(name, size)
        self._pools.append(pool)
        return pool

    def make_lock(self):
        return threading.RLock()

    def _run(self) -> None:
        while True:
            with self._cv:
                if self._stop:
                    return
                if not self._heap:
                    self._cv.wait(timeout=0.5)
                    continue
                when, _seq, fn, handle = self._heap[0]
                delay = when - self.now()
                if delay > 0:
                    self._cv.wait(timeout=min(delay, 0.5))
                    continue
                heapq.heappop(self._heap)
                if handle.cancelled and self._ncancelled > 0:
                    self._ncancelled -= 1
            if not handle.cancelled:
                try:
                    fn()
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

    Replaces the Event + two closures the old path allocated per task.
    Phase 1 (grant) fires one heap entry after submit — exactly where
    the granted Resource event used to land, so task interleaving is
    unchanged — opens the busy window (``on_start``), charges core
    noise, and schedules phase 2 at the cost horizon.  Phase 2 runs the
    callback and releases the worker.
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

    def _granted(self, _ev) -> None:  # slow path: queued Resource grant
        self._fire()

    def _fire(self) -> None:
        pool = self.pool
        if self._started:
            try:
                self.fn()
            finally:
                pool.resource.release()
            return
        self._started = True
        cost = self.cost
        if callable(cost):
            # Lazy cost: evaluated when the worker is acquired, so a
            # batched task can charge for exactly the work it seals off
            # at that moment.
            cost = cost()
        if self.on_start is not None:
            self.on_start()
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
                pool.resource.release()


class _SimPool(WorkerPool):
    """Worker pool as a counted DES resource.

    A submitted task waits for a free worker, holds it for ``cost``
    simulated seconds, records the busy time as noise on the given core,
    then runs its callback.
    """

    __slots__ = ("engine", "name", "size", "resource", "busy_time",
                 "tasks_run")

    def __init__(self, engine: Engine, name: str, size: int):
        self.engine = engine
        self.name = name
        self.size = size
        self.resource = Resource(engine, size)
        self.busy_time = 0.0
        self.tasks_run = 0

    def submit(self, fn, cost: float = 0.0, core=None, tag: str = "ldmsd", on_start=None) -> None:
        task = _PoolTask(self, fn, cost, core, tag, on_start)
        if self.resource.try_acquire():
            if not callable(cost) and cost > 0.0:
                # Free worker, fixed positive cost: run phase 1 (grant)
                # inline.  The grant only opens the busy window and
                # charges the core — the callback still fires at the
                # cost horizon — so the zero-delay grant event is pure
                # heap traffic.  Lazy (callable) costs keep the event,
                # because they must price work sealed at grant time;
                # zero-cost tasks keep it so ``fn`` never reenters the
                # submitter's frame.
                task._started = True
                if on_start is not None:
                    on_start()
                if core is not None:
                    core.add_noise(self.engine.now, cost, tag)
                self.busy_time += cost
                self.tasks_run += 1
                self.engine._push(task, cost)
            else:
                # Skip the Resource Event entirely, but still land the
                # grant one heap entry later (same ordering as a granted
                # request event).
                self.engine._push(task, 0.0)
        else:
            self.resource.request().callbacks.append(task._granted)


class SimEnv(Env):
    """Environment bound to a simulation engine."""

    def __init__(self, engine: Engine, arena: bool = True):
        self.engine = engine
        self.pools: list[_SimPool] = []
        # Columnar data plane: one shared set-arena pool and
        # sampler-cohort scheduler per environment.  ``arena=False``
        # leaves both None, which every consumer treats as "scalar
        # path" — the reference the identity tests compare against.
        from repro.core.set_arena import CohortScheduler, SetArenaPool

        if arena:
            self.set_arena_pool: Optional[SetArenaPool] = SetArenaPool()
            self.cohort_scheduler: Optional[CohortScheduler] = CohortScheduler(engine)
        else:
            self.set_arena_pool = None
            self.cohort_scheduler = None

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
        # arithmetic and jitter draws match Env.call_every exactly.
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
