"""Tests for the execution environments (SimEnv and RealEnv)."""

import sys
import threading
import time

import pytest

from repro.core.env import RealEnv, SimEnv, _Lane
from repro.sim.engine import Engine
from repro.sim.resources import CpuCore


@pytest.fixture
def sim():
    eng = Engine()
    return eng, SimEnv(eng)


class TestSimEnv:
    def test_now_tracks_engine(self, sim):
        eng, env = sim
        eng.call_later(5.0, lambda: None)
        eng.run()
        assert env.now() == 5.0

    def test_call_later(self, sim):
        eng, env = sim
        hits = []
        env.call_later(2.0, lambda: hits.append(env.now()))
        eng.run()
        assert hits == [2.0]

    def test_call_later_cancel(self, sim):
        eng, env = sim
        hits = []
        h = env.call_later(2.0, lambda: hits.append(1))
        h.cancel()
        eng.run()
        assert hits == []

    def test_call_every_async_period(self, sim):
        eng, env = sim
        hits = []
        env.call_every(1.0, lambda: hits.append(env.now()))
        eng.run(until=4.5)
        assert hits == [1.0, 2.0, 3.0, 4.0]

    def test_call_every_cancel_stops(self, sim):
        eng, env = sim
        hits = []
        h = env.call_every(1.0, lambda: hits.append(env.now()))
        eng.call_later(2.5, h.cancel)
        eng.run(until=10.0)
        assert hits == [1.0, 2.0]

    def test_call_every_synchronous_alignment(self, sim):
        eng, env = sim
        hits = []
        # Start at t=0.7; synchronous with offset 0.2 must fire at
        # 1.2, 2.2, 3.2 ...
        eng.call_later(0.7, lambda: env.call_every(
            1.0, lambda: hits.append(round(env.now(), 6)),
            synchronous=True, offset=0.2))
        eng.run(until=3.5)
        assert hits == [1.2, 2.2, 3.2]

    def test_call_every_rejects_nonpositive(self, sim):
        _, env = sim
        with pytest.raises(ValueError):
            env.call_every(0.0, lambda: None)

    def test_pool_cost_advances_time_and_charges_core(self, sim):
        eng, env = sim
        core = CpuCore()
        pool = env.make_pool("p", 1)
        done = []
        pool.submit(lambda: done.append(env.now()), cost=0.25, core=core,
                    tag="x")
        eng.run()
        assert done == [0.25]
        assert core.busy_total == pytest.approx(0.25)
        assert core.records()[0].tag == "x"

    def test_pool_on_start_runs_at_grant(self, sim):
        eng, env = sim
        pool = env.make_pool("p", 1)
        events = []
        pool.submit(lambda: events.append(("end", env.now())), cost=0.5,
                    on_start=lambda: events.append(("start", env.now())))
        eng.run()
        assert events == [("start", 0.0), ("end", 0.5)]

    def test_pool_capacity_serializes(self, sim):
        eng, env = sim
        pool = env.make_pool("p", 1)
        ends = []
        pool.submit(lambda: ends.append(env.now()), cost=1.0)
        pool.submit(lambda: ends.append(env.now()), cost=1.0)
        eng.run()
        assert ends == [1.0, 2.0]
        assert pool.tasks_run == 2
        assert pool.busy_time == pytest.approx(2.0)

    def test_null_lock_reentrant(self, sim):
        _, env = sim
        lock = env.make_lock()
        with lock:
            with lock:
                pass


class TestRealEnv:
    def test_call_later_fires(self):
        env = RealEnv()
        try:
            fired = threading.Event()
            env.call_later(0.05, fired.set)
            assert fired.wait(2.0)
        finally:
            env.shutdown()

    def test_cancel_prevents_fire(self):
        env = RealEnv()
        try:
            hits = []
            h = env.call_later(0.2, lambda: hits.append(1))
            h.cancel()
            time.sleep(0.4)
            assert hits == []
        finally:
            env.shutdown()

    def test_call_every_fires_repeatedly(self):
        env = RealEnv()
        try:
            count = {"n": 0}
            done = threading.Event()

            def tick():
                count["n"] += 1
                if count["n"] >= 3:
                    done.set()

            h = env.call_every(0.05, tick)
            assert done.wait(3.0)
            h.cancel()
        finally:
            env.shutdown()

    def test_pool_runs_tasks(self):
        env = RealEnv()
        try:
            pool = env.make_pool("w", 2)
            done = threading.Event()
            order = []
            pool.submit(lambda: order.append("task") or done.set(),
                        on_start=lambda: order.append("start"))
            assert done.wait(2.0)
            assert order == ["start", "task"]
        finally:
            env.shutdown()

    def test_lock_is_real(self):
        env = RealEnv()
        try:
            lock = env.make_lock()
            assert lock.acquire()
            lock.release()
        finally:
            env.shutdown()

    def test_now_monotone(self):
        env = RealEnv()
        try:
            a = env.now()
            time.sleep(0.01)
            assert env.now() > a
        finally:
            env.shutdown()


def _wait(predicate, timeout=10.0, poll=0.005):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(poll)
    return True


def _drain(env):
    """Return once the timer thread has finished every firing begun so
    far: it runs one item at a time, so a one-shot due now runs after."""
    done = threading.Event()
    env.call_later(0.0, done.set)
    assert done.wait(10.0)


def _live_lanes(env):
    return [e for e in env._heap
            if isinstance(e[2], _Lane) and not e[2].cancelled]


@pytest.fixture
def real():
    env = RealEnv()
    yield env
    env.shutdown()


class TestRealEnvCancel:
    def test_cancel_after_fire_counts_no_dead_entry(self, real):
        # Regression: a cancel after the callable ran still counted a
        # dead heap entry.  100 such cancels wrapped once past the
        # 64-entry compaction threshold and left _ncancelled == 36 over
        # an empty heap.
        hits = []
        handles = [real.call_later(0.0, lambda: hits.append(1))
                   for _ in range(100)]
        assert _wait(lambda: len(hits) == 100)
        assert all(h.fired for h in handles)
        for h in handles:
            h.cancel()
        assert real._heap == [] and real._ncancelled == 0

    def test_cancel_before_fire_is_counted_once(self, real):
        h = real.call_later(60.0, lambda: None)
        h.cancel()
        h.cancel()
        assert real._ncancelled == 1 and not h.fired


class TestRealEnvLanes:
    """``call_every`` timers ride lanes: one heap entry per schedule."""

    def test_same_phase_synchronous_timers_share_one_entry(self, real):
        hits = []
        with real._cv:  # register atomically w.r.t. the timer thread
            handles = [real.call_every(0.02, lambda i=i: hits.append(i),
                                       synchronous=True)
                       for i in range(5)]
        assert len(_live_lanes(real)) == 1
        other = real.call_every(0.02, lambda: None, synchronous=True,
                                offset=0.01)
        lone = real.call_every(0.02, lambda: None)  # asynchronous
        assert len(_live_lanes(real)) == 3
        assert _wait(lambda: len(hits) >= 15)
        for h in handles + [other, lone]:
            h.cancel()
        assert _live_lanes(real) == []
        n = len(hits) // 5 * 5
        # Registration order within every firing, no member skipped.
        assert hits[:n] == [0, 1, 2, 3, 4] * (n // 5)

    def test_member_cancelled_by_an_earlier_member_does_not_fire(self, real):
        hits = []
        handles = {}

        def first():
            hits.append("a")
            handles["b"].cancel()

        with real._cv:
            handles["a"] = real.call_every(0.01, first, synchronous=True)
            handles["b"] = real.call_every(0.01, lambda: hits.append("b"),
                                           synchronous=True)
        assert _wait(lambda: len(hits) >= 3)
        handles["a"].cancel()
        assert "b" not in hits

    def test_member_added_during_a_firing_first_fires_next_instant(self, real):
        log = []
        firing = [0]
        handles = []

        def witness():
            firing[0] += 1
            log.append(("w", firing[0]))
            if firing[0] == 1:
                handles.append(real.call_every(
                    0.01, lambda: log.append(("late", firing[0])),
                    synchronous=True))

        handles.append(real.call_every(0.01, witness, synchronous=True))
        assert _wait(lambda: sum(name == "late" for name, _ in log) >= 3)
        for h in handles:
            h.cancel()
        late = [k for name, k in log if name == "late"]
        assert late[:3] == [2, 3, 4]
        assert len(_live_lanes(real)) == 0

    def test_raising_member_does_not_silence_its_siblings(self, real, capsys):
        hits = []

        def boom():
            raise ZeroDivisionError("member failure")

        with real._cv:
            handles = [real.call_every(0.01, boom, synchronous=True),
                       real.call_every(0.01, lambda: hits.append(1),
                                       synchronous=True)]
        assert _wait(lambda: len(hits) >= 3)
        for h in handles:
            h.cancel()
        assert "member failure" in capsys.readouterr().err

    def test_ticks_count_member_firings(self, real):
        counts = [0, 0, 0]

        def bump(i):
            counts[i] += 1

        handles = [real.call_every(0.01, lambda i=i: bump(i),
                                   synchronous=i < 2) for i in range(3)]
        one_shot = []
        real.call_later(0.0, lambda: one_shot.append(1))
        assert _wait(lambda: min(counts) >= 3 and one_shot)
        for h in handles:
            h.cancel()
        _drain(real)
        assert real.timer_fastpath_ticks() == sum(counts)

    def test_concurrent_join_leave_keeps_each_window_contiguous(self, real):
        # Members join and leave from three threads while their lane
        # fires.  The witness, registered first, numbers every firing;
        # a member's firings between its join and its leave must be
        # consecutive numbers: none lost, none repeated.
        firing = [0]
        windows: list[list[int]] = []
        witness = real.call_every(
            0.003, lambda: firing.__setitem__(0, firing[0] + 1),
            synchronous=True)

        def member(ks):
            return lambda: ks.append(firing[0])

        def churn(seed):
            live = []
            for rnd in range(seed, seed + 40):
                ks: list[int] = []
                windows.append(ks)
                live.append(real.call_every(0.003, member(ks),
                                            synchronous=True))
                time.sleep(0.001 * (rnd % 5))
                if len(live) > 4:
                    live.pop(rnd % len(live)).cancel()
            for h in live:
                h.cancel()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(k,))
                       for k in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(switch)
        witness.cancel()
        assert not any(t.is_alive() for t in threads)
        assert sum(map(len, windows)) > 0
        for ks in filter(None, windows):
            assert ks == list(range(ks[0], ks[0] + len(ks)))
        assert _live_lanes(real) == []

    def test_concurrent_start_stop_neither_loses_nor_duplicates(
            self, real, monkeypatch):
        # Samplers start and stop on a second thread while their lane
        # fires.  The witness, registered first, numbers every firing:
        # no instance fires twice in one firing, and every firing
        # reaches the worker pool (sampled, or skipped as an overrun).
        from repro.core import Ldmsd

        fired: dict[str, list[int]] = {}
        firing = [0]
        submit = Ldmsd._submit_sample

        def counted(self, plugin, cost):
            fired.setdefault(plugin.instance, []).append(firing[0])
            submit(self, plugin, cost)

        monkeypatch.setattr(Ldmsd, "_submit_sample", counted)
        witness = real.call_every(
            0.004, lambda: firing.__setitem__(0, firing[0] + 1),
            synchronous=True)
        d = Ldmsd("n0", env=real, workers=1, transports={})
        plugins = [d.load_sampler("synthetic", instance=f"n0/s{i}",
                                  component_id=i + 1, num_metrics=4)
                   for i in range(12)]
        errors = []

        def churn():
            try:
                for rnd in range(30):
                    for i, p in enumerate(plugins):
                        if (rnd + i) % 3 == 0:
                            d.start_sampler(p.instance, interval=0.004,
                                            offset=0.0)
                    time.sleep(0.002 + 0.001 * (rnd % 4))
                    for i, p in enumerate(plugins):
                        if (rnd + i) % 3 == 0:
                            d.stop_sampler(p.instance)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        t = threading.Thread(target=churn)
        t.start()
        t.join(30.0)
        witness.cancel()
        assert not errors and not t.is_alive()
        _drain(real)
        # Every firing reached the pool: sampled or counted as overrun.
        overruns = lambda: d.stats()["obs"]["counters"]["sampler.overruns"]  # noqa: E731
        total = sum(len(v) for v in fired.values())
        assert _wait(lambda: sum(p.samples_taken for p in plugins)
                     + overruns() == total)
        d.shutdown()
        assert total > 0
        for inst, ks in fired.items():
            assert len(ks) == len(set(ks)), inst
        assert _live_lanes(real) == []


class TestRealDaemonLanes:
    def test_sock_loopback_topology_holds_two_periodic_entries(self):
        # The ledger's sock_loopback world: 2 x 32 synchronous samplers
        # at (0.02, 0) and 2 producers at (0.02, 0.01).  One timer entry
        # per cadence: 2, not 66; none once everything has stopped.
        from repro.core import Ldmsd
        from repro.transport.sock import SockTransport

        env = RealEnv()
        daemons = []
        try:
            ports = []
            for s in range(2):
                d = Ldmsd(f"s{s}", env=env,
                          transports={"sock": SockTransport()}, mem="4MB",
                          workers=1, conn_threads=1, flush_threads=1)
                daemons.append(d)
                for j in range(32):
                    d.load_sampler("synthetic", instance=f"s{s}/syn{j}",
                                   component_id=32 * s + j + 1,
                                   num_metrics=8)
                    d.start_sampler(f"s{s}/syn{j}", interval=0.02,
                                    offset=0.0)
                ports.append(d.listen("sock", ("127.0.0.1", 0)).port)
            agg = Ldmsd("agg", env=env, transports={"sock": SockTransport()},
                        mem="8MB", workers=2, conn_threads=2, flush_threads=2)
            daemons.append(agg)
            st = agg.add_store("memory")
            for s in range(2):
                agg.add_producer(f"s{s}", "sock", ("127.0.0.1", ports[s]),
                                 interval=0.02, offset=0.01)
            assert _wait(lambda: all(p._timer is not None
                                     for p in agg.producers.values()))
            lanes = _live_lanes(env)
            assert sorted((e[2].interval, e[2].offset, len(e[2].members))
                          for e in lanes) == [(0.02, 0.0, 64), (0.02, 0.01, 2)]
            assert _wait(lambda: len(st.rows) >= 64)
            ticks = env.timer_fastpath_ticks()
            assert ticks >= 64
            for s in range(2):
                for j in range(32):
                    daemons[s].stop_sampler(f"s{s}/syn{j}")
                agg.remove_producer(f"s{s}")
            assert _live_lanes(env) == []
            # A dead lane leaves the heap at its instant.
            assert _wait(lambda: not any(isinstance(e[2], _Lane)
                                         for e in env._heap), timeout=1.0)
        finally:
            for d in daemons:
                d.shutdown()
            env.shutdown()

    def test_ldmsd_self_reports_real_timer_ticks(self):
        from repro.core import Ldmsd

        env = RealEnv()
        d = Ldmsd("n0", env=env, workers=1, transports={})
        try:
            d.load_sampler("ldmsd_self", instance="n0/ldmsd_self",
                           component_id=1)
            d.start_sampler("n0/ldmsd_self", interval=0.01)
            mset = d.get_set("n0/ldmsd_self")
            assert _wait(lambda: mset.get("timer_fastpath_ticks") >= 3)
            # The health block renders it.
            from repro import obs

            assert "timer_ticks=0" not in obs.render(mset.as_dict())
        finally:
            d.shutdown()
            env.shutdown()
