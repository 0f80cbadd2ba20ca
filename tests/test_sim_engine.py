"""Unit tests for the DES kernel: engine, events, resources."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.sim import CpuCore, Engine, Resource
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
            Engine().call_later(-1.0, lambda: None)

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


class TestResource:
    @staticmethod
    def _hold(eng, res, log, i, work):
        """Request a slot; once granted, log it and release after ``work``."""
        def granted(_ev):
            log.append((eng.now, i))
            eng.call_later(work, res.release)

        res.request().callbacks.append(granted)

    def test_capacity_enforced(self):
        eng = Engine()
        res = Resource(eng, 2)
        grants = []
        for i in range(4):
            self._hold(eng, res, grants, i, 1.0)
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
        grants = []
        for i in range(5):
            self._hold(eng, res, grants, i, 0.1)
        eng.run()
        assert [i for _, i in grants] == [0, 1, 2, 3, 4]

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
