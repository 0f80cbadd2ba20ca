"""Unit tests for the DES kernel: engine, worker pools, CPU cores."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.env import SimEnv
from repro.sim import CpuCore, Engine
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
        eng.call_later(1.0, lambda: hits.append(1)).cancel()
        eng.run()
        assert hits == []

    def test_call_at_past_rejected(self):
        eng = Engine()
        eng.call_later(5.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.call_at(1.0, lambda: None)

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
    """The simulated worker pool is a counted FIFO of ``size`` workers."""

    @staticmethod
    def _pool(size):
        return SimEnv(Engine()).make_pool("w", size)

    @staticmethod
    def _hold(pool, log, i, work):
        """Submit a task; once granted, log it and hold for ``work``."""
        eng = pool.engine
        pool.submit(lambda: None, cost=work,
                    on_start=lambda: log.append((eng.now, i)))

    def test_capacity_enforced(self):
        pool = self._pool(2)
        grants = []
        for i in range(4):
            self._hold(pool, grants, i, 1.0)
        assert pool.in_use == 2
        pool.engine.run()
        # Two start at 0, two must wait until 1.0.
        assert [t for t, _ in grants] == [0.0, 0.0, 1.0, 1.0]
        assert pool.in_use == 0 and pool.tasks_run == 4

    def test_release_without_request_rejected(self):
        pool = self._pool(1)
        with pytest.raises(SimulationError):
            pool.release()

    def test_fifo_grant_order(self):
        pool = self._pool(1)
        grants = []
        for i in range(5):
            self._hold(pool, grants, i, 0.1)
        pool.engine.run()
        assert [i for _, i in grants] == [0, 1, 2, 3, 4]

    def test_grant_order_matches_a_list_reference(self):
        # 10,000 waiters on a 4-slot pool (the fan-in knee's connect
        # storm), each holding its worker for a random time: grants must
        # follow a plain FIFO list, at the instants a list of per-worker
        # free times gives.
        cap = 4
        pool = self._pool(cap)
        rng = random.Random(7)
        costs = [rng.choice([0.25, 0.5, 1.0, 1.5]) for _ in range(10_000 + cap)]
        grants = []
        for i, cost in enumerate(costs):
            self._hold(pool, grants, i, cost)
        assert pool.in_use == cap and len(pool._waiting) == len(costs) - cap
        assert not pool.try_acquire()
        pool.engine.run()
        free = [0.0] * cap
        expected = []
        for i, cost in enumerate(costs):
            j = free.index(min(free))
            expected.append((free[j], i))
            free[j] += cost
        assert grants == expected
        assert pool.in_use == 0 and not pool._waiting
        assert pool.try_acquire()  # idle again: an outside claim succeeds
        pool.release()

    def test_raising_grant_releases_its_worker(self):
        # A lazy cost that raises escapes Engine.run; the worker it held
        # goes to the next queued task, which runs on the next run().
        pool = self._pool(1)
        eng = pool.engine
        hits = []

        def boom():
            raise ValueError("bad cost")

        pool.submit(lambda: hits.append("never"), cost=boom)
        pool.submit(lambda: hits.append("next"), cost=0.5)
        with pytest.raises(ValueError, match="bad cost"):
            eng.run()
        eng.run()
        assert hits == ["next"] and eng.now == 0.5
        assert pool.in_use == 0

    def test_raising_on_start_releases_its_worker(self):
        pool = self._pool(1)
        eng = pool.engine
        hits = []

        def boom():
            raise ValueError("bad start")

        # Granted inline (free worker, fixed cost): raises out of submit.
        with pytest.raises(ValueError, match="bad start"):
            pool.submit(lambda: hits.append("never"), cost=1.0, on_start=boom)
        pool.submit(lambda: hits.append("after inline"), cost=lambda: 0.5)
        # Granted from the queue: raises out of Engine.run.
        pool.submit(lambda: hits.append("never"), cost=lambda: 0.5,
                    on_start=boom)
        pool.submit(lambda: hits.append("next"))
        with pytest.raises(ValueError, match="bad start"):
            eng.run()
        eng.run()
        assert hits == ["after inline", "next"] and pool.in_use == 0


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
