"""Model test for the DES engine's ordering contract.

Random programs of scheduling calls run once against :class:`Engine`
and once against ``_RefEngine`` — a list kept sorted by ``(when, seq)``,
which *is* the ordering spec — and must agree on fire order, clock and
``events_processed`` after every driver step.  The second half pins the
resume contract for a callback that raises mid-instant.
"""

import itertools
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
        if isinstance(until, _RefEvent):
            while not until.processed:
                self.step()
            return
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

    def schedule_periodic(self, interval, fn):
        t = _RefTimer(fn)

        def fire():
            if t.fn is not None:
                self._push(fire, interval)  # reschedule, then invoke
                t.fn()

        self._push(fire, interval)
        return t

    def event(self):
        return _RefEvent(self)

    @staticmethod
    def cancel(handle):
        handle.cancel()


class _RefTimer:
    def __init__(self, fn):
        self.fn = fn

    def cancel(self):
        self.fn = None


class _RefEvent:
    def __init__(self, eng):
        self.eng = eng
        self.callbacks = []
        self.processed = False

    def succeed(self, delay=0.0):
        self.eng._push(self._fire, delay)

    def _fire(self):
        self.processed = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def cancel(self):
        self.callbacks.clear()


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
        st.tuples(st.just("event"), _DELAYS, inner),
        st.tuples(st.just("cancel"), _INDEX),
        st.tuples(st.just("raise")),
    ), max_size=3).map(tuple)


_SCRIPT = _scripts(3)
_PROGRAMS = st.lists(st.one_of(
    st.tuples(st.just("later"), _DELAYS, _SCRIPT),
    st.tuples(st.just("at"), _DELAYS, _SCRIPT),
    st.tuples(st.just("event"), _DELAYS, _SCRIPT),
    st.tuples(st.just("periodic"), st.sampled_from([0.1, 0.25, 0.5, 1.0]), _SCRIPT),
    st.tuples(st.just("cancel"), _INDEX),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), _DELAYS),
    st.tuples(st.just("run_event"), _INDEX),
), max_size=25)


def _execute(eng, program):
    """Interpret ``program`` on ``eng``; the returned log is every fire
    (callback id, time) plus clock / count / peek after each driver op."""
    log, handles, events = [], [], []
    ids = itertools.count()

    def callback(script):
        ident = next(ids)

        def fire(*_):
            log.append((ident, eng.now))
            for action in script:
                act(*action)
        return fire

    def act(kind, arg=None, script=()):
        if kind == "later":
            handles.append(eng.call_later(arg, callback(script)))
        elif kind == "at":
            handles.append(eng.call_at(eng.now + arg, callback(script)))
        elif kind == "periodic":
            handles.append(eng.schedule_periodic(arg, callback(script)))
        elif kind == "event":
            ev = eng.event()
            ev.callbacks.append(callback(script))
            ev.succeed(delay=arg)
            handles.append(ev)
            events.append(ev)
        elif kind == "cancel":
            if handles:
                eng.cancel(handles[arg % len(handles)])
        elif kind == "raise":
            raise _Boom
        elif kind == "step":
            if eng.peek() != INF:
                eng.step()
        elif kind == "run":
            eng.run(until=eng.now + arg)
        elif kind == "run_event":
            if events:
                eng.run(until=events[arg % len(events)])

    def drive(*op):
        try:
            act(*op)
        except _Boom:
            log.append("boom")
        log.append((op[0], eng.now, eng.events_processed, eng.peek()))

    for op in program:
        drive(*op)
    for h in handles:  # stop the periodics so the queue can drain
        eng.cancel(h)
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
