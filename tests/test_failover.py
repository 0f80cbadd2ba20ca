"""Failover end-to-end (§IV-B) and reconnect backoff.

The e2e test reproduces the Blue Waters fast-failover scenario: the
Fig. 3 standby topology, one first-level aggregator killed mid-run, the
external watchdog promoting the neighbour's standby producers, and the
stored CSV showing a bounded collection gap for the victim's nodes.
"""

import csv
import os
from dataclasses import replace

import pytest

import repro.plugins  # noqa: F401
from repro.cluster.machine import blue_waters
from repro.core import Ldmsd, SimEnv
from repro.experiments.failover import passed, run_failover
from repro.faults import FaultPlan
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport


@pytest.fixture
def world():
    eng = Engine()
    return eng, SimEnv(eng), SimFabric(eng)


class TestReconnectBackoff:
    def _producer(self, world, **kwargs):
        _eng, env, fabric = world
        agg = Ldmsd("agg", env=env,
                    transports={"rdma": SimTransport(fabric, "rdma",
                                                     node_id="agg")})
        return agg, agg.add_producer("s0", "rdma", "s0:411", interval=1.0,
                                     **kwargs)

    def test_delay_grows_and_caps(self, world):
        _agg, p = self._producer(world, reconnect_interval=2.0,
                                 reconnect_max=60.0)
        delays = []
        for attempt in range(12):
            p.dialer.attempts = attempt
            delays.append(p.dialer.delay())
        # Exponential envelope: each raw delay doubles until the cap.
        for i, d in enumerate(delays):
            raw = min(2.0 * 2 ** i, 60.0)
            assert 0.75 * raw <= d <= raw  # jitter shaves at most 25%
        assert delays[0] < 2.0 + 1e-9
        assert max(delays) <= 60.0

    def test_jitter_deterministic_per_producer(self, world):
        _agg, p = self._producer(world)
        p.dialer.attempts = 3
        assert p.dialer.delay() == p.dialer.delay()
        # A fresh producer with the same name sees the same schedule...
        eng2 = Engine()
        env2 = SimEnv(eng2)
        fabric2 = SimFabric(eng2)
        agg2 = Ldmsd("agg", env=env2,
                     transports={"rdma": SimTransport(fabric2, "rdma",
                                                      node_id="agg")})
        q = agg2.add_producer("s0", "rdma", "s0:411", interval=1.0)
        q.dialer.attempts = 3
        assert q.dialer.delay() == p.dialer.delay()
        # ...while a differently named producer is decorrelated.
        r = agg2.add_producer("s1", "rdma", "s1:411", interval=1.0)
        r.dialer.attempts = 3
        assert r.dialer.delay() != p.dialer.delay()

    def test_attempts_reset_on_success(self, world):
        eng, env, fabric = world
        agg, p = self._producer(world, reconnect_interval=0.1,
                                reconnect_max=1.0)
        eng.run(until=3.0)  # nothing listening: attempts accumulate
        assert p.dialer.attempts >= 3
        assert not p.connected
        samp = Ldmsd("s0", env=env,
                     transports={"rdma": SimTransport(fabric, "rdma",
                                                      node_id="s0")})
        samp.load_sampler("synthetic", instance="s0/syn", component_id=1)
        samp.start_sampler("s0/syn", interval=1.0)
        samp.listen("rdma", "s0:411")
        eng.run(until=8.0)
        assert p.connected
        assert p.dialer.attempts == 0

    def test_tick_does_not_bypass_backoff(self, world):
        eng, _env, fabric = world
        agg, p = self._producer(world, reconnect_interval=4.0,
                                reconnect_max=60.0)
        x = agg.transports["rdma"]
        eng.run(until=20.0)
        # With base 4s and doubling, at most ~4 attempts fit in 20s.
        # The 1s update tick must not add one connect per tick (~20).
        assert fabric.engine.now == 20.0
        assert p.dialer.attempts <= 5


class TestFailoverE2E:
    def test_kill_promotes_within_bound_and_loss_is_bounded(self):
        r = run_failover(n_nodes=8, fanin=4, interval=1.0, k=2,
                         kill_at=15.0, duration=45.0, seed=1)
        assert r.promotions > 0
        assert r.within_bound
        assert r.promote_latency <= r.latency_bound + 1e-9
        # Loss per set is bounded by detection + one interval to resume.
        n_sets = 4  # victim group: one bw_custom set per node
        per_set = r.samples_lost / n_sets
        assert per_set <= (r.k + 2)
        assert r.rows_victim_group > 0
        # The observability plane explains the failure: a valid Chrome
        # trace with 4-hop causal chains, and a postmortem whose window
        # covers the kill.
        assert r.trace_valid and r.postmortem_ok
        assert r.chains_4hop > 0
        # ...and the module's exit status says so: any NO fails it.
        assert passed({"run": r, "deterministic": True})
        assert not passed({"run": r, "deterministic": False})
        for bad in ({"trace_valid": False}, {"postmortem_ok": False},
                    {"chains_4hop": 0}, {"within_bound": False}):
            assert not passed({"run": replace(r, **bad),
                               "deterministic": True}), bad

    def test_same_seed_identical(self):
        a = run_failover(n_nodes=8, fanin=4, interval=1.0, k=2,
                         kill_at=15.0, duration=40.0, seed=7)
        b = run_failover(n_nodes=8, fanin=4, interval=1.0, k=2,
                         kill_at=15.0, duration=40.0, seed=7)
        assert a.key() == b.key()

    def test_csv_shows_bounded_gap(self, tmp_path):
        """Fig. 3 with store_csv: the on-disk record of the victim's
        node group has a bounded hole around the kill."""
        interval, k, kill_at = 1.0, 2, 12.0
        m = blue_waters(8, seed=3)
        dep = m.deploy_ldms(interval=interval, collect_interval=interval,
                            fanin=4, second_level=False, standby=True,
                            store="store_csv",
                            store_kwargs={"path": str(tmp_path)})
        wd = m.attach_watchdog(dep, check_interval=interval, k=k)
        victim = dep.level1[-1]
        inj = m.fault_injector(dep)
        inj.arm(FaultPlan().crash(victim.name, kill_at))
        m.run(until=40.0)
        dep.shutdown()  # flush CSV buffers

        # Victim group = nodes 4..7 (fanin 4, victim is agg1).
        group = {f"n{i}" for i in range(4, 8)}
        times: dict[str, list[float]] = {}
        path = os.path.join(str(tmp_path), "bw_custom.csv")
        with open(path, encoding="utf-8") as fh:
            for row in csv.reader(fh):
                if not row or row[0] == "Time":
                    continue  # headers (one per store instance)
                t, producer = float(row[0]), row[1]
                node = producer.removeprefix("standby-")
                if node in group:
                    times.setdefault(node, []).append(t)
        assert set(times) == group
        for node, ts in times.items():
            ts.sort()
            # Rows exist on both sides of the kill...
            assert ts[0] < kill_at < ts[-1]
            # ...and the hole is bounded by detection + one interval.
            max_gap = max(b - a for a, b in zip(ts, ts[1:]))
            assert max_gap <= (k + 2) * interval + 1e-6
        assert wd.events and wd.events[0].kind == "dead"
