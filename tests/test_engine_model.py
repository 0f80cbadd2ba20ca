"""Model test for the DES engine's ordering contract.

Random programs of scheduling calls run once against :class:`Engine`
and once against ``_RefEngine`` — a list kept sorted by ``(when, seq)``,
which *is* the ordering spec — and must agree on fire order, clock and
``events_processed`` after every top-level step.  Periodic timers come in
the three shapes the engine keeps apart — fixed-period (riding a lane),
synchronous and jittered (plain heap entries) — so lane heads, heap
items and their equal-time ties are merged by one key.  The second half
pins the resume contract for a callback that raises mid-instant, and
the lanes' own contract on a fixed world.
"""

import itertools
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine

INF = float("inf")


class _Boom(Exception):
    pass


# -- the reference ---------------------------------------------------------
class _RefEngine:
    """The spec: pending items in a list sorted by ``(when, seq)``."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.timer_fastpath_ticks = 0
        self._q = []
        self._seq = 0

    def _push(self, fire, delay):
        self._q.append((self.now + delay, self._seq, fire))
        self._seq += 1
        self._q.sort(key=lambda e: e[:2])

    def peek(self):
        return self._q[0][0] if self._q else INF

    def step(self):
        self.now, _, fire = self._q.pop(0)
        self.events_processed += 1
        fire()

    def run(self, until=None):
        while self._q and (until is None or self._q[0][0] <= until):
            self.step()
        if until is not None:
            self.now = until

    # The scheduling calls, each reduced to ``_push`` with the engine's
    # own float arithmetic (``call_at`` goes through a delay).
    def call_later(self, delay, fn, *args):
        t = _RefTimer(fn)
        self._push(lambda: t.fn is not None and t.fn(*args), delay)
        return t

    def call_at(self, when, fn, *args):
        return self.call_later(when - self.now, fn, *args)

    def schedule_periodic(self, interval, fn, synchronous=False, offset=0.0,
                          jitter_rng=None):
        t = _RefTimer(fn)

        def delay():  # Env.call_every's arithmetic
            if synchronous:
                target = (self.now - offset) // interval * interval + interval + offset
                return max(target - self.now, 0.0)
            if jitter_rng is not None:
                return interval + float(jitter_rng.uniform(0.0, 1e-3))
            return interval

        def fire():
            if t.fn is not None:
                self.timer_fastpath_ticks += 1
                self._push(fire, delay())  # reschedule, then invoke
                t.fn()

        self._push(fire, delay())
        return t


class _RefTimer:
    def __init__(self, fn):
        self.fn = fn

    def cancel(self):
        self.fn = None


class _Jitter:
    """A seeded stand-in for a numpy ``Generator``'s ``uniform``: two
    instances built from one seed draw the same sequence."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self._rng.random()


# -- programs --------------------------------------------------------------
# Few distinct delays, so equal-time ties (and 0.1 + 0.2 vs 0.3 near
# misses) are the common case rather than the rare one.
_DELAYS = st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 1.0])
_INDEX = st.integers(0, 40)


def _scripts(depth):
    """What a callback does when it fires: a tuple of nested actions."""
    if depth == 0:
        return st.just(())
    inner = _scripts(depth - 1)
    return st.lists(st.one_of(
        st.tuples(st.just("later"), _DELAYS, inner),
        st.tuples(st.just("at"), _DELAYS, inner),
        st.tuples(st.just("cancel"), _INDEX),
        st.tuples(st.just("raise")),
    ), max_size=3).map(tuple)


_SCRIPT = _scripts(3)
_PROGRAMS = st.lists(st.one_of(
    st.tuples(st.just("later"), _DELAYS, _SCRIPT),
    st.tuples(st.just("at"), _DELAYS, _SCRIPT),
    st.tuples(st.just("periodic"), st.sampled_from([0.1, 0.25, 0.5, 1.0]), _SCRIPT,
              st.sampled_from(["fixed", "fixed", "sync", "sync_offset", "jitter"])),
    st.tuples(st.just("cancel"), _INDEX),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), _DELAYS),
), max_size=25)


def _execute(eng, program):
    """Interpret ``program`` on ``eng``; the returned log is every fire
    (callback id, time) plus clock / count / peek after each driver op."""
    log, handles = [], []
    ids = itertools.count()

    def callback(script):
        ident = next(ids)

        def fire(*_):
            log.append((ident, eng.now))
            for action in script:
                act(*action)
        return fire

    def act(kind, arg=None, script=(), shape="fixed"):
        if kind == "later":
            handles.append(eng.call_later(arg, callback(script)))
        elif kind == "at":
            handles.append(eng.call_at(eng.now + arg, callback(script)))
        elif kind == "periodic":
            fn = callback(script)
            handles.append(eng.schedule_periodic(
                arg, fn, synchronous=shape.startswith("sync"),
                offset=0.05 if shape == "sync_offset" else 0.0,
                jitter_rng=_Jitter(len(handles)) if shape == "jitter" else None))
        elif kind == "cancel":
            if handles:
                handles[arg % len(handles)].cancel()
        elif kind == "raise":
            raise _Boom
        elif kind == "step":
            if eng.peek() != INF:
                eng.step()
        elif kind == "run":
            eng.run(until=eng.now + arg)

    def drive(*op):
        try:
            act(*op)
        except _Boom:
            log.append("boom")
        log.append((op[0], eng.now, eng.events_processed, eng.peek(),
                    eng.timer_fastpath_ticks))

    for op in program:
        drive(*op)
    for h in handles:  # stop the periodics so the queue can drain
        h.cancel()
    eng.run()  # until=None: to exhaustion
    log.append(("end", eng.now, eng.events_processed, eng.peek()))
    return log


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_PROGRAMS)
def test_engine_matches_sorted_list_model(program):
    assert _execute(Engine(), program) == _execute(_RefEngine(), program)


# -- a callback that raises mid-instant ------------------------------------
class TestRaisingCallbackResume:
    """The raiser is counted once, ``now`` stays at its time, everything
    else stays scheduled and fires on the next ``run()`` — once."""

    @staticmethod
    def _world(exc):
        eng = Engine()
        hits = []

        def raiser():
            hits.append("raiser")
            eng.call_later(0.0, hits.append, "appended")
            raise exc

        eng.call_later(0.5, hits.append, "early")
        eng.call_later(1.0, hits.append, "a")
        eng.call_later(1.0, raiser)
        eng.call_later(1.0, hits.append, "c")
        eng.call_later(2.0, hits.append, "later")
        return eng, hits

    def test_run_resumes_after_escaped_error(self):
        # PR 15's shape: a struct.error escaping a reply handler.
        eng, hits = self._world(struct.error("unpack requires a buffer of 8 bytes"))
        with pytest.raises(struct.error):
            eng.run(until=5.0)
        assert hits == ["early", "a", "raiser"]
        assert eng.events_processed == 3
        assert eng.now == 1.0  # not advanced to the deadline
        assert eng.peek() == 1.0
        eng.run(until=5.0)
        assert hits == ["early", "a", "raiser", "c", "appended", "later"]
        assert eng.events_processed == 6
        assert eng.now == 5.0
        assert eng.peek() == INF

    def test_step_resumes_after_escaped_error(self):
        eng, hits = self._world(_Boom())
        eng.step()
        eng.step()
        with pytest.raises(_Boom):
            eng.step()
        assert (eng.events_processed, eng.now) == (3, 1.0)
        eng.step()
        assert hits == ["early", "a", "raiser", "c"]
        eng.run()
        assert hits == ["early", "a", "raiser", "c", "appended", "later"]
        assert eng.events_processed == 6

    def test_last_item_of_an_instant_raising_leaves_queue_consistent(self):
        eng = Engine()
        hits = []

        def raiser():
            raise _Boom

        eng.call_later(1.0, raiser)
        eng.call_later(2.0, hits.append, "next")
        with pytest.raises(_Boom):
            eng.run()
        assert (eng.events_processed, eng.now, eng.peek()) == (1, 1.0, 2.0)
        # The instant that raised is reusable: nothing stale is left on it.
        eng.call_later(0.0, hits.append, "same-instant")
        eng.run()
        assert hits == ["same-instant", "next"]
        assert eng.events_processed == 3

    def test_raising_periodic_keeps_its_period(self):
        eng = Engine()
        ticks = []

        def tick():
            ticks.append(eng.now)
            if len(ticks) == 2:
                raise _Boom

        eng.schedule_periodic(1.0, tick)
        with pytest.raises(_Boom):
            eng.run(until=4.5)
        assert (ticks, eng.now) == ([1.0, 2.0], 2.0)
        eng.run(until=4.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0]
        assert eng.events_processed == eng.timer_fastpath_ticks == 4


# -- lanes -----------------------------------------------------------------
class TestLanes:
    """Fixed-period timers ride one FIFO lane per interval and the heap
    holds each lane's head: the fire order of one heap of everything,
    with an exact tie against a heap item broken by ``seq``."""

    @staticmethod
    def _drive(eng):
        log, handles = [], []

        def note(tag):
            return lambda *_: log.append((tag, eng.now))

        def start(k):
            handles.append(eng.schedule_periodic(0.5, note(("fixed", k))))

        def raiser():
            log.append(("raiser", eng.now))
            if len(log) % 3 == 0:
                raise _Boom

        def go(run, *args):
            try:
                run(*args)
            except _Boom:
                log.append(("boom", eng.now))
            log.append((eng.now, eng.events_processed, eng.peek(),
                        eng.timer_fastpath_ticks))

        # 48 timers sharing 0.5 s, started 1/32 s apart: binary fractions,
        # so their fires and the heap items below meet on equal instants.
        for k in range(48):
            eng.call_at(k / 32, start, k)
        for k in range(0, 48, 5):  # scheduled before the lane entry ...
            eng.call_at(k / 32 + 1.0, note(("at", k)))
        eng.call_later(1.25, lambda: [  # ... and after it
            eng.call_at(k / 32 + 1.5, note(("late", k))) for k in range(0, 48, 7)])
        eng.call_at(1.125, lambda: [handles[i].cancel() for i in (3, 17, 30)])
        handles.append(eng.schedule_periodic(0.5, note("sync"), synchronous=True))
        handles.append(eng.schedule_periodic(0.5, note("sync+"), synchronous=True,
                                             offset=1 / 32))
        handles.append(eng.schedule_periodic(0.5, note("jitter"),
                                             jitter_rng=_Jitter(7)))
        handles.append(eng.schedule_periodic(0.25, note("quarter")))  # 2nd lane
        handles.append(eng.schedule_periodic(0.5, raiser))
        for _ in range(40):
            go(eng.step)
        eng.call_later(0.5 - eng.now % 0.5, note("on-lane"))  # a lane instant
        while eng.now < 4.0:
            go(eng.run, 4.0)
        for h in handles:
            h.cancel()
        go(eng.run)
        return log

    def test_matches_one_sorted_queue_of_everything(self):
        got = self._drive(Engine())
        assert got == self._drive(_RefEngine())
        assert sum(1 for e in got if e[0] == "boom") >= 3
        assert got[-1][2] == INF

    def test_heap_holds_one_entry_per_lane_at_rest(self):
        eng = Engine()
        for k in range(1000):
            eng.call_at(k / 1024, eng.schedule_periodic, 1.0, lambda: None)
        eng.run(until=5.0)
        assert len(eng._heap) == 1
        assert len(eng._lanes[1.0].keys) == 1000
        eng.schedule_periodic(0.25, lambda: None)
        eng.schedule_periodic(1.0, lambda: None, synchronous=True)
        eng.schedule_periodic(1.0, lambda: None, jitter_rng=_Jitter(1))
        assert len(eng._heap) == 4
        eng.run(until=9.0)
        assert len(eng._heap) == 4
        for timer in [t for lane in eng._lanes.values() for t in lane.timers]:
            timer.cancel()
        eng.run(until=11.0)  # cancelled entries fire as no-ops, then go
        assert len(eng._heap) == 2
        assert not any(lane.keys for lane in eng._lanes.values())
