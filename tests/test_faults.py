"""Fault injection, the failover watchdog, and the hardened
reconnect/lookup paths (paper §IV-B).

The regression tests here pin four bugs the fault subsystem exposed:
a lost LOOKUP_REPLY wedging an updater in LOOKUP_PENDING forever, the
dead ``stopped`` flag in ``advertise()`` (plus the served-endpoint
leak), DIR_REPLY never pruning deleted sets, and ``stats.stored``
counting records the store layer never accepted.
"""

import pytest

import repro.plugins  # noqa: F401
from repro.core import Ldmsd, SimEnv
from repro.core import wire
from repro.core.aggregator import SetState
from repro.faults import FaultEvent, FaultInjector, FaultPlan, Watchdog
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport
from repro.util.errors import ConfigError, StoreError


@pytest.fixture
def world():
    eng = Engine()
    return eng, SimEnv(eng), SimFabric(eng)


def daemon(world, name, xprt="rdma", node_id=None):
    _eng, env, fabric = world
    return Ldmsd(name, env=env,
                 transports={xprt: SimTransport(fabric, xprt,
                                                node_id=node_id or name)})


def sampler_agg_pair(world, interval=1.0, **producer_kwargs):
    """One synthetic sampler + one discovery-mode aggregator w/ store."""
    samp = daemon(world, "s0")
    samp.load_sampler("synthetic", instance="s0/syn", component_id=1,
                      num_metrics=4)
    samp.start_sampler("s0/syn", interval=interval)
    samp.listen("rdma", "s0:411")
    agg = daemon(world, "agg")
    st = agg.add_store("memory")
    agg.add_producer("s0", "rdma", "s0:411", interval=interval,
                     **producer_kwargs)
    return samp, agg, st


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultEvent(at=1.0, kind="meteor", target=("x",))

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            FaultEvent(at=-1.0, kind="crash", target=("x",))

    def test_events_stay_sorted(self):
        plan = FaultPlan().crash("d", 9.0).link_down("a", "b", 1.0, duration=2.0)
        assert [e.at for e in plan.events] == [1.0, 3.0, 9.0]

    def test_transient_faults_append_recovery(self):
        plan = FaultPlan().store_failure("d", 2.0, duration=3.0)
        assert [e.kind for e in plan.events] == ["store_fail", "store_heal"]
        assert plan.events[1].at == 5.0

    def test_random_plan_deterministic(self):
        kw = dict(daemons=("d0", "d1"), links=((0, "svc0"),), stores=("d1",))
        assert FaultPlan.random(3, **kw).events == FaultPlan.random(3, **kw).events
        assert FaultPlan.random(3, **kw).events != FaultPlan.random(4, **kw).events

    def test_random_plan_needs_targets(self):
        with pytest.raises(ConfigError):
            FaultPlan.random(1)


class TestFabricFaults:
    def test_blocked_link_blackholes_and_fails_reads(self, world):
        eng, _, fabric = world
        samp, agg, st = sampler_agg_pair(world)
        eng.run(until=5.0)
        rows_up = len(st.rows)
        assert rows_up > 0
        fabric.faults.block("s0", "agg")
        eng.run(until=10.0)
        # Reads fail with a completion (no wedge) and nothing is stored.
        prod = agg.producers["s0"]
        assert fabric.faults.reads_failed > 0
        assert prod.stats.updates_failed > 0
        assert not any(u.in_flight for u in prod.updaters.values())
        blocked_rows = len(st.rows)
        fabric.faults.unblock("s0", "agg")
        eng.run(until=20.0)
        assert len(st.rows) > blocked_rows  # collection resumed

    def test_slow_link_adds_latency(self, world):
        eng, _, fabric = world
        samp, agg, st = sampler_agg_pair(world)
        eng.run(until=5.0)
        base = agg.obs.histogram("update.rtt").quantile(0.5)
        fabric.faults.set_latency("s0", "agg", 0.05)
        eng.run(until=10.0)
        assert agg.obs.histogram("update.rtt").max >= 0.05

    def test_filter_retires_itself(self, world):
        eng, _, fabric = world
        calls = {"n": 0}

        def eat_two(src, dst, frame):
            calls["n"] += 1
            if calls["n"] > 2:
                fabric.faults.remove_filter(eat_two)
                return False
            return True

        fabric.faults.add_filter(eat_two)
        samp, agg, st = sampler_agg_pair(world)
        eng.run(until=10.0)
        assert fabric.faults.frames_dropped == 2
        assert not fabric.faults.active  # filter gone, fast path restored
        assert len(st.rows) > 0


class TestLookupTimeout:
    """Satellite 1: a lost LOOKUP_REPLY must not wedge the updater."""

    def test_dropped_lookup_reply_recovers(self, world):
        eng, env, fabric = world
        samp, agg, st = sampler_agg_pair(world, interval=1.0)
        inj = FaultInjector(env, daemons={"agg": agg}, fabric=fabric)
        # Eat exactly the first LOOKUP_REPLY travelling sampler -> agg.
        inj.arm(FaultPlan().drop_frames(
            "s0", "agg", at=0.0, msg_type=wire.MsgType.LOOKUP_REPLY, count=1))
        eng.run(until=15.0)
        assert fabric.faults.frames_dropped == 1
        prod = agg.producers["s0"]
        # The timeout reset the updater and the retry succeeded: without
        # it the set stays LOOKUP_PENDING forever and nothing is stored.
        assert prod.stats.lookups_timed_out == 1
        upd = prod.updaters["s0/syn"]
        assert upd.state is SetState.READY
        assert len(st.rows) > 0

    def test_pending_lookup_survives_within_timeout(self, world):
        eng, _, _fabric = world
        samp, agg, st = sampler_agg_pair(world, interval=1.0,
                                         lookup_timeout=30.0)
        eng.run(until=10.0)
        assert agg.producers["s0"].stats.lookups_timed_out == 0
        assert len(st.rows) > 0


class TestAdvertiseLifecycle:
    """Satellite 2: stop_advertise works and endpoints are pruned."""

    def _pair(self, world, interval=1.0):
        agg = daemon(world, "agg")
        agg.listen("rdma", "agg:411")
        st = agg.add_store("memory")
        agg.add_producer("node0", "rdma", interval=interval, passive=True)
        samp = daemon(world, "node0")
        samp.load_sampler("synthetic", instance="node0/syn",
                          component_id=1, num_metrics=4)
        samp.start_sampler("node0/syn", interval=interval)
        return agg, samp, st

    def test_stop_advertise_stops_redialing(self, world):
        eng, _, _ = world
        agg, samp, st = self._pair(world)
        samp.advertise("rdma", "agg:411", reconnect_interval=0.5)
        eng.run(until=5.0)
        assert agg.producers["node0"].connected
        samp.stop_advertise("node0")
        eng.run(until=20.0)
        n = len(st.rows)
        eng.run(until=30.0)
        assert len(st.rows) == n  # no re-advertise, no new rows
        assert not agg.producers["node0"].connected
        assert samp._served_endpoints == []

    def test_stop_unknown_advertisement_rejected(self, world):
        samp = daemon(world, "node0")
        with pytest.raises(ConfigError):
            samp.stop_advertise("node0")

    def test_double_advertise_rejected(self, world):
        _eng, _, _ = world
        samp = daemon(world, "node0")
        samp.advertise("rdma", "agg:411")
        with pytest.raises(ConfigError):
            samp.advertise("rdma", "agg:411")

    def test_closed_endpoints_pruned_not_leaked(self, world):
        eng, _, _ = world
        agg, samp, st = self._pair(world)
        samp.advertise("rdma", "agg:411", reconnect_interval=0.25)
        for _ in range(4):
            eng.run(until=eng.now + 4.0)
            prod = agg.producers["node0"]
            if prod.endpoint is not None:
                prod.endpoint.close()
        eng.run(until=eng.now + 4.0)
        # One live advertised connection at most; closed ones removed.
        assert len([e for e in samp._served_endpoints if not e.closed]) <= 1
        assert len(samp._served_endpoints) <= 1


class TestDirPruning:
    """Satellite 3: sets the directory no longer lists are dropped."""

    def test_deleted_set_pruned(self, world):
        eng, _, _ = world
        samp = daemon(world, "s0")
        for inst in ("s0/a", "s0/b"):
            samp.load_sampler("synthetic", instance=inst, component_id=1,
                              num_metrics=2)
            samp.start_sampler(inst, interval=1.0)
        samp.listen("rdma", "s0:411")
        agg = daemon(world, "agg")
        agg.add_producer("s0", "rdma", "s0:411", interval=1.0, dir_refresh=3)
        # Stop mid-interval so no sample transaction is in flight on
        # the set when it is deleted.
        eng.run(until=5.3)
        prod = agg.producers["s0"]
        assert set(prod.updaters) == {"s0/a", "s0/b"}
        assert "s0/b" in agg._sets
        samp.stop_sampler("s0/b")
        samp.delete_set("s0/b")
        eng.run(until=15.0)
        assert set(prod.updaters) == {"s0/a"}
        assert prod.stats.sets_pruned == 1
        assert "s0/b" not in agg._sets  # mirror unregistered

    def test_explicit_sets_never_pruned(self, world):
        eng, _, _ = world
        samp = daemon(world, "s0")
        samp.load_sampler("synthetic", instance="s0/syn", component_id=1)
        samp.start_sampler("s0/syn", interval=1.0)
        samp.listen("rdma", "s0:411")
        agg = daemon(world, "agg")
        agg.add_producer("s0", "rdma", "s0:411", interval=1.0,
                         sets=("s0/syn", "s0/ghost"))
        eng.run(until=10.0)
        # "s0/ghost" never exists, but an explicit set list is config,
        # not discovery — it must stay and keep retrying lookup.
        assert "s0/ghost" in agg.producers["s0"].updaters


class TestStoredCounter:
    """Satellite 4: ``stored`` counts only records the store layer took."""

    def test_store_failure_not_counted_as_stored(self, world, monkeypatch):
        eng, _, _ = world
        samp, agg, st = sampler_agg_pair(world, interval=1.0)

        def boom(daemon, producer, mirror, trace=None, ts=None):
            raise StoreError("backend down")

        # Class-level patch: a daemon is a fixed-slot record.
        monkeypatch.setattr(type(agg), "_deliver_to_stores", boom)
        eng.run(until=10.0)
        prod = agg.producers["s0"]
        assert prod.stats.updates_completed > 0
        assert prod.stats.stored == 0
        assert agg.obs.counter("store.errors").value > 0

    def test_injected_store_failure_counts_failed(self, world):
        eng, env, fabric = world
        samp, agg, st = sampler_agg_pair(world, interval=1.0)
        inj = FaultInjector(env, daemons={"agg": agg}, fabric=fabric)
        inj.arm(FaultPlan().store_failure("agg", at=4.0, duration=4.0))
        eng.run(until=16.0)
        assert st.records_failed > 0
        assert agg.obs.counter("store.errors").value > 0
        assert agg.obs.counter("faults.injected").value == 1
        # Heal: writes succeed again afterwards.
        n_after_heal = st.records_stored
        eng.run(until=24.0)
        assert st.records_stored > n_after_heal


class TestWatchdog:
    def test_declares_dead_after_k_missed(self, world):
        eng, env, _ = world
        hb = {"t": 0.0}
        died = []
        wd = Watchdog(env, check_interval=1.0, k=3)
        wd.watch("x", lambda: hb["t"], lambda: died.append(env.now()))
        wd.start()

        def beat():
            hb["t"] = env.now()

        pulse = env.call_every(0.5, beat)
        eng.run(until=5.0)
        assert not died
        pulse.cancel()  # heartbeat stops "crashing" the target
        eng.run(until=20.0)
        assert len(died) == 1
        # Bound: dead within (k + 1) checks of the last heartbeat.
        assert died[0] - 5.0 <= (3 + 1) * 1.0 + 1e-9
        assert [e.kind for e in wd.events] == ["dead"]

    def test_recovery_demotes(self, world):
        eng, env, _ = world
        hb = {"t": 0.0, "alive": True}
        log = []
        wd = Watchdog(env, check_interval=1.0, k=2)
        wd.watch("x", lambda: hb["t"],
                 lambda: log.append("dead"), lambda: log.append("recovered"))
        wd.start()
        env.call_every(0.5, lambda: hb.update(t=env.now()) if hb["alive"] else None)
        env.call_later(5.0, lambda: hb.update(alive=False))
        env.call_later(12.0, lambda: hb.update(alive=True))
        eng.run(until=20.0)
        assert log == ["dead", "recovered"]
        assert wd.targets["x"].deaths == 1
        assert wd.targets["x"].recoveries == 1

    def test_first_check_is_baseline(self, world):
        eng, env, _ = world
        died = []
        wd = Watchdog(env, check_interval=1.0, k=1)
        # Heartbeat frozen at 0 from the start: the baseline check must
        # not itself count as a miss at t=1.
        wd.watch("x", lambda: 0.0, lambda: died.append(env.now()))
        wd.start()
        eng.run(until=1.5)
        assert not died
        eng.run(until=3.0)
        assert died  # second check counts the miss

    def test_parameter_validation(self, world):
        _, env, _ = world
        with pytest.raises(ConfigError):
            Watchdog(env, check_interval=0.0)
        with pytest.raises(ConfigError):
            Watchdog(env, check_interval=1.0, k=0)
        wd = Watchdog(env, check_interval=1.0)
        wd.watch("x", lambda: 0.0, lambda: None)
        with pytest.raises(ConfigError):
            wd.watch("x", lambda: 0.0, lambda: None)


class TestFaultInjector:
    def test_crash_stops_daemon(self, world):
        eng, env, fabric = world
        samp, agg, st = sampler_agg_pair(world)
        inj = FaultInjector(env, daemons={"s0": samp, "agg": agg},
                            fabric=fabric)
        inj.arm(FaultPlan().crash("agg", at=5.0))
        eng.run(until=10.0)
        assert agg._shutdown
        assert inj.log and inj.log[0] == (5.0, "crash(agg)")

    def test_restart_needs_factory(self, world):
        _eng, env, fabric = world
        inj = FaultInjector(env, fabric=fabric)
        with pytest.raises(ConfigError):
            inj.arm(FaultPlan().crash("d", 1.0, restart_after=1.0))

    def test_link_faults_need_fabric(self, world):
        _eng, env, _ = world
        inj = FaultInjector(env)
        with pytest.raises(ConfigError):
            inj.arm(FaultPlan().link_down("a", "b", 1.0))

    def test_partition_and_heal(self, world):
        eng, env, fabric = world
        samp, agg, st = sampler_agg_pair(world)
        inj = FaultInjector(env, daemons={"agg": agg}, fabric=fabric)
        inj.arm(FaultPlan().partition(["s0"], ["agg"], at=3.0, duration=5.0))
        eng.run(until=3.5)
        assert fabric.faults.blocked("s0", "agg")
        eng.run(until=9.0)
        assert not fabric.faults.blocked("s0", "agg")
        rows_at_heal = len(st.rows)
        eng.run(until=15.0)
        assert len(st.rows) > rows_at_heal

    def test_disarm_cancels_pending(self, world):
        eng, env, fabric = world
        samp, agg, st = sampler_agg_pair(world)
        inj = FaultInjector(env, daemons={"agg": agg}, fabric=fabric)
        inj.arm(FaultPlan().crash("agg", at=8.0))
        eng.run(until=4.0)
        inj.disarm()
        eng.run(until=12.0)
        assert not agg._shutdown
        assert inj.log == []


class TestSeededSmoke:
    """CI's seeded random-plan smoke: fixed seed, clean shutdown,
    identical injection log across runs."""

    def _run(self, seed):
        eng = Engine()
        env = SimEnv(eng)
        fabric = SimFabric(eng)
        world = (eng, env, fabric)
        samp, agg, st = sampler_agg_pair(world, interval=1.0)
        inj = FaultInjector(env, daemons={"s0": samp, "agg": agg},
                            fabric=fabric)
        plan = FaultPlan.random(seed, links=(("s0", "agg"),),
                                stores=("agg",), t0=2.0, t1=25.0,
                                n_events=5)
        inj.arm(plan)
        eng.run(until=40.0)
        samp.shutdown()
        agg.shutdown()
        return inj.log, len(st.rows)

    def test_seeded_plan_smoke_deterministic(self):
        log1, rows1 = self._run(42)
        log2, rows2 = self._run(42)
        assert log1 == log2
        assert rows1 == rows2
        assert len(log1) >= 5  # all events (plus heals) applied
