"""Unit tests for the DES kernel: engine, events, processes, resources."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.sim import AllOf, AnyOf, CpuCore, Engine, Interrupt, Process, Resource
from repro.util.errors import SimulationError


class TestEngineBasics:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_call_later_fires_at_time(self):
        eng = Engine()
        hits = []
        eng.call_later(2.5, lambda: hits.append(eng.now))
        eng.run()
        assert hits == [2.5]

    def test_run_until_advances_clock_exactly(self):
        eng = Engine()
        eng.call_later(10.0, lambda: None)
        eng.run(until=5.0)
        assert eng.now == 5.0

    def test_events_fire_in_time_order(self):
        eng = Engine()
        order = []
        eng.call_later(3.0, lambda: order.append(3))
        eng.call_later(1.0, lambda: order.append(1))
        eng.call_later(2.0, lambda: order.append(2))
        eng.run()
        assert order == [1, 2, 3]

    def test_same_time_fifo(self):
        eng = Engine()
        order = []
        for i in range(5):
            eng.call_later(1.0, lambda i=i: order.append(i))
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_cancel(self):
        eng = Engine()
        hits = []
        ev = eng.call_later(1.0, lambda: hits.append(1))
        Engine.cancel(ev)
        eng.run()
        assert hits == []

    def test_call_at_past_rejected(self):
        eng = Engine()
        eng.call_later(5.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.call_at(1.0, lambda: None)

    def test_run_until_event_returns_value(self):
        eng = Engine()
        ev = eng.event()
        eng.call_later(1.0, lambda: ev.succeed("payload"))
        assert eng.run(until=ev) == "payload"

    def test_run_until_failed_event_raises(self):
        eng = Engine()
        ev = eng.event()
        eng.call_later(1.0, lambda: ev.fail(RuntimeError("boom")))
        with pytest.raises(RuntimeError, match="boom"):
            eng.run(until=ev)

    def test_double_trigger_rejected(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Engine().timeout(-1.0)

    @given(st.lists(st.floats(min_value=0.001, max_value=100, allow_nan=False),
                    min_size=1, max_size=30))
    def test_clock_is_monotone(self, delays):
        eng = Engine()
        times = []
        for d in delays:
            eng.call_later(d, lambda: times.append(eng.now))
        eng.run()
        assert times == sorted(times)
        assert len(times) == len(delays)


class TestConditions:
    def test_allof_waits_for_all(self):
        eng = Engine()
        t1, t2 = eng.timeout(1.0, "a"), eng.timeout(2.0, "b")
        done = AllOf(eng, [t1, t2])
        assert eng.run(until=done) == ["a", "b"]
        assert eng.now == 2.0

    def test_anyof_fires_on_first(self):
        eng = Engine()
        t1, t2 = eng.timeout(5.0), eng.timeout(1.0, "fast")
        won = AnyOf(eng, [t1, t2])
        first = eng.run(until=won)
        assert first is t2
        assert eng.now == 1.0

    def test_empty_allof_fires_immediately(self):
        eng = Engine()
        done = AllOf(eng, [])
        assert done.triggered


def _proc(eng, log, delays):
    for d in delays:
        yield eng.timeout(d)
        log.append(eng.now)
    return "done"


class TestProcess:
    def test_process_advances_through_timeouts(self):
        eng = Engine()
        log = []
        p = Process(eng, _proc(eng, log, [1.0, 2.0]))
        assert eng.run(until=p) == "done"
        assert log == [1.0, 3.0]

    def test_process_waits_on_process(self):
        eng = Engine()
        log = []
        inner = Process(eng, _proc(eng, log, [5.0]))

        def outer():
            result = yield inner
            log.append((eng.now, result))

        eng.run(until=Process(eng, outer()))
        assert log == [5.0, (5.0, "done")]

    def test_interrupt_raises_inside(self):
        eng = Engine()
        caught = []

        def victim():
            try:
                yield eng.timeout(100.0)
            except Interrupt as exc:
                caught.append((eng.now, exc.cause))

        p = Process(eng, victim())
        eng.call_later(1.0, lambda: p.interrupt("preempted"))
        eng.run()
        assert caught == [(1.0, "preempted")]

    def test_interrupt_after_finish_is_noop(self):
        eng = Engine()
        p = Process(eng, _proc(eng, [], []))
        eng.run()
        p.interrupt()  # must not raise

    def test_process_failure_propagates_to_waiter(self):
        eng = Engine()

        def bad():
            yield eng.timeout(1.0)
            raise ValueError("inner")

        p = Process(eng, bad())

        def waiter():
            with pytest.raises(ValueError, match="inner"):
                yield p

        eng.run(until=Process(eng, waiter()))

    def test_yield_non_event_is_type_error(self):
        eng = Engine()

        def bad():
            yield 42

        with pytest.raises(TypeError):
            eng.run(until=Process(eng, bad()))


class TestResource:
    def test_capacity_enforced(self):
        eng = Engine()
        res = Resource(eng, 2)
        grants = []

        def worker(i):
            req = res.request()
            yield req
            grants.append((eng.now, i))
            yield eng.timeout(1.0)
            res.release(req)

        for i in range(4):
            Process(eng, worker(i))
        eng.run()
        # Two start at 0, two must wait until 1.0.
        assert [t for t, _ in grants] == [0.0, 0.0, 1.0, 1.0]
        assert res.max_in_use == 2

    def test_release_without_request_rejected(self):
        eng = Engine()
        res = Resource(eng, 1)
        with pytest.raises(SimulationError):
            res.release()

    def test_fifo_grant_order(self):
        eng = Engine()
        res = Resource(eng, 1)
        order = []

        def worker(i):
            req = res.request()
            yield req
            order.append(i)
            yield eng.timeout(0.1)
            res.release(req)

        for i in range(5):
            Process(eng, worker(i))
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_grant_order_and_cancel_match_a_list_reference(self):
        # 10,000 waiters on a 4-slot pool (the fan-in knee's connect
        # storm), some withdrawn between grants: grants and withdrawals
        # must follow a plain FIFO list exactly.
        eng = Engine()
        cap = 4
        res = Resource(eng, cap)
        res.cancel(eng.event())  # nothing queued yet: a no-op
        reqs = [res.request() for _ in range(10_000 + cap)]
        order = []
        for i, ev in enumerate(reqs):
            ev.callbacks.append(lambda _ev, i=i: order.append(i))
        ref = list(range(cap, len(reqs)))
        expected = list(range(cap))
        assert res.in_use == cap and res.queued == len(ref)
        rng = random.Random(7)
        cancelled = set()
        while res.in_use:
            for _ in range(rng.randrange(3)):
                if ref:
                    i = ref[rng.randrange(len(ref))]
                    res.cancel(reqs[i])
                    ref.remove(i)
                    cancelled.add(i)
            res.cancel(reqs[expected[-1]])  # already granted: a no-op
            res.release()
            if ref:
                expected.append(ref.pop(0))
            assert res.queued == len(ref)
        eng.run()
        assert order == expected
        assert all(reqs[i].triggered != (i in cancelled) for i in range(len(reqs)))


class TestCpuCore:
    def test_unperturbed_burst(self):
        core = CpuCore()
        assert core.perturbed_finish(0.0, 1.0) == 1.0

    def test_noise_inside_burst_extends_it(self):
        core = CpuCore()
        core.add_noise(0.5, 0.2)
        assert core.perturbed_finish(0.0, 1.0) == pytest.approx(1.2)

    def test_noise_before_burst_ignored(self):
        core = CpuCore()
        core.add_noise(0.1, 0.5)
        assert core.perturbed_finish(0.2, 1.0) == pytest.approx(1.2)
        # burst starting after the noise start is not affected
        assert core.perturbed_finish(0.11, 1.0) == pytest.approx(1.11)

    def test_cascading_absorption(self):
        # Noise at 0.9 extends finish past 1.05, exposing noise at 1.05.
        core = CpuCore()
        core.add_noise(0.9, 0.2)
        core.add_noise(1.05, 0.3)
        assert core.perturbed_finish(0.0, 1.0) == pytest.approx(1.5)

    def test_noise_after_finish_not_absorbed(self):
        core = CpuCore()
        core.add_noise(1.5, 1.0)
        assert core.perturbed_finish(0.0, 1.0) == 1.0

    def test_noise_in_window(self):
        core = CpuCore()
        core.add_noise(1.0, 0.1)
        core.add_noise(2.0, 0.2)
        assert core.noise_in(0.0, 1.5) == pytest.approx(0.1)
        assert core.noise_in(0.0, 2.5) == pytest.approx(0.3)

    def test_clear_before(self):
        core = CpuCore()
        core.add_noise(1.0, 0.1)
        core.add_noise(5.0, 0.1)
        core.clear_before(3.0)
        assert len(core.records()) == 1

    @given(st.lists(st.tuples(st.floats(0, 100, allow_nan=False),
                              st.floats(0, 1, allow_nan=False)), max_size=30))
    def test_finish_never_before_nominal(self, noises):
        core = CpuCore()
        for start, dur in noises:
            core.add_noise(start, dur)
        finish = core.perturbed_finish(10.0, 5.0)
        assert finish >= 15.0
        total_noise = sum(d for _, d in noises)
        assert finish <= 15.0 + total_noise + 1e-9
