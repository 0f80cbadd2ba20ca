"""Determinism tests for the engine queue and its fast paths.

The queue is a plain ``(when, seq)`` binary heap: equal-time events
fire in FIFO scheduling order, including work scheduled at ``now`` from
inside a firing callback.  The zero-allocation periodic timers, the
inline pool-grant fast path and the GC pause are pure performance
mechanisms layered on it and must not change that order.
"""

import gc
import pathlib
import re

import pytest

from repro.core import SimEnv
from repro.core.env import RealEnv
from repro.sim.engine import Engine


class TestEqualTimeFifo:
    """Equal-timestamp events fire in scheduling order."""

    def test_same_instant_callbacks_fire_in_schedule_order(self):
        eng = Engine()
        hits = []
        for i in range(10):
            eng.call_later(1.0, hits.append, i)
        eng.run()
        assert hits == list(range(10))

    def test_zero_delay_append_joins_live_batch(self):
        """Work scheduled at ``now`` from inside a firing callback runs
        at the same instant, after the items already pending for it —
        exactly where a plain heap would pop it."""
        eng = Engine()
        hits = []

        def first():
            hits.append("first")
            eng.call_later(0.0, lambda: hits.append("appended"))

        eng.call_later(2.0, first)
        eng.call_later(2.0, lambda: hits.append("second"))
        eng.run()
        assert hits == ["first", "second", "appended"]
        assert eng.now == 2.0

    def test_mid_batch_append_chain_preserves_fifo(self):
        eng = Engine()
        hits = []

        def chain(depth):
            hits.append(depth)
            if depth < 3:
                eng.call_later(0.0, chain, depth + 1)

        eng.call_later(1.0, chain, 0)
        eng.call_later(1.0, hits.append, "peer")
        eng.run()
        assert hits == [0, "peer", 1, 2, 3]

    def test_step_matches_run_order(self):
        """step()-driven execution drains an instant in the same order as
        the run() fast loop."""
        order_run, order_step = [], []
        for mode in ("run", "step"):
            eng = Engine()
            sink = order_run if mode == "run" else order_step
            for i in range(5):
                eng.call_later(0.5, sink.append, i)
            eng.call_later(0.5, lambda s=sink: eng.call_later(0.0, s.append, "x"))
            if mode == "run":
                eng.run()
            else:
                while eng.peek() != float("inf"):
                    eng.step()
        assert order_run == order_step


class TestPeriodicFastPath:
    def test_schedule_periodic_matches_env_call_every_times(self):
        eng = Engine()
        ticks = []
        env = SimEnv(eng)
        env.call_every(0.25, lambda: ticks.append(eng.now))
        eng.run(until=2.0)
        assert ticks == pytest.approx([0.25 * k for k in range(1, 8 + 1)])
        assert eng.timer_fastpath_ticks == len(ticks)

    def test_cancel_stops_periodic(self):
        eng = Engine()
        ticks = []
        handle = SimEnv(eng).call_every(1.0, lambda: ticks.append(eng.now))
        eng.call_later(3.5, handle.cancel)
        eng.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert handle.cancelled

    def test_timer_cancel_is_noop_fire(self):
        eng = Engine()
        hits = []
        t = eng.call_later(1.0, hits.append, "a")
        eng.call_later(1.0, hits.append, "b")
        t.cancel()
        eng.run()
        assert hits == ["b"]


class TestInlinePoolGrant:
    """The free-worker inline grant must preserve cost accounting and
    completion timing."""

    def test_fixed_cost_task_completes_at_cost_horizon(self):
        eng = Engine()
        env = SimEnv(eng)
        pool = env.make_pool("p", 1)
        done = []
        eng.call_later(1.0, lambda: pool.submit(lambda: done.append(eng.now),
                                                cost=0.25))
        eng.run()
        assert done == [1.25]
        assert pool.busy_time == pytest.approx(0.25)
        assert pool.tasks_run == 1

    def test_queued_tasks_serialize_on_one_worker(self):
        eng = Engine()
        env = SimEnv(eng)
        pool = env.make_pool("p", 1)
        done = []

        def go():
            pool.submit(lambda: done.append(("a", eng.now)), cost=1.0)
            pool.submit(lambda: done.append(("b", eng.now)), cost=1.0)

        eng.call_later(0.0, go)
        eng.run()
        assert done == [("a", 1.0), ("b", 2.0)]
        assert pool.busy_time == pytest.approx(2.0)

    def test_lazy_cost_still_priced_at_grant(self):
        """Callable costs are evaluated at the grant slot, not at
        submit: work queued at the same instant is included."""
        eng = Engine()
        env = SimEnv(eng)
        pool = env.make_pool("p", 1)
        rows = []
        done = []

        def seal():
            return 0.1 * len(rows)

        def go():
            pool.submit(lambda: done.append(eng.now), cost=seal)
            rows.extend([1, 2, 3])  # same-instant appends must be priced

        eng.call_later(1.0, go)
        eng.run()
        assert done == [pytest.approx(1.3)]
        assert pool.busy_time == pytest.approx(0.3)


class TestGcPause:
    def test_run_restores_collector_state(self):
        eng = Engine()
        eng.call_later(1.0, lambda: None)
        assert gc.isenabled()
        eng.run()
        assert gc.isenabled()

    def test_run_pauses_collection_while_draining(self):
        eng = Engine()
        seen = []
        eng.call_later(1.0, lambda: seen.append(gc.isenabled()))
        eng.run()
        assert seen == [False]

    def test_disabled_collector_stays_disabled(self):
        eng = Engine()
        eng.call_later(1.0, lambda: None)
        gc.disable()
        try:
            eng.run()
            assert not gc.isenabled()
        finally:
            gc.enable()


def test_repro_env_switches_are_exactly_the_documented_three():
    """One implementation per hot path: the only ``REPRO_*`` variables
    the source reads are modes (sanitizer, shard count, postmortem
    directory), each named in the README — a revert switch cannot come
    back undocumented."""
    root = pathlib.Path(__file__).resolve().parent.parent
    found = set()
    for path in (root / "src").rglob("*.py"):
        found.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert found == {"REPRO_SANITIZE", "REPRO_SHARDS", "REPRO_POSTMORTEM_DIR"}
    readme = (root / "README.md").read_text()
    assert all(name in readme for name in found)


class TestRealEnvTimerCompaction:
    def test_cancelled_timers_are_compacted(self):
        env = RealEnv()
        try:
            handles = [env.call_later(60.0, lambda: None) for _ in range(300)]
            assert len(env._heap) == 300
            for h in handles:
                h.cancel()
            # Cancellation alone marks; compaction runs on the next
            # scheduling once the cancelled share passes the threshold.
            env.call_later(60.0, lambda: None)
            assert len(env._heap) < 300
        finally:
            env.shutdown()
