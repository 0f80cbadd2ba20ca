"""Sharded-parallel DES: conservative windows, byte-identity, toggles.

The contract under test (ROADMAP 3b): partitioning the cluster across
shard engines — in-process or across forked workers — must leave every
observable output byte-identical to the single-engine run restricted to
that shard's daemons: stored rows, CSV bytes, freshness, refusal
counters.  Windows are synchronized conservatively with lookahead
``min(base_latency, connect_latency / 2)``; zero-lookahead partitions
are rejected loudly at partition time.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

import repro.plugins  # noqa: F401
from repro.core import Ldmsd, SimEnv, sanitize
from repro.experiments.bw_day import run_day, run_day_sharded
from repro.experiments.fanin import run_point, sweep_transport
from repro.cluster.machine import Machine, blue_waters, plan_shards, shard_deploy
from repro.network.fattree import FatTree
from repro.sim.engine import Engine
from repro.sim.fleet import HsnFleetTrace, RateFleet
from repro.sim.shard import (
    RUNTIME,
    maybe_parallel,
    run_parallel,
    run_windowed,
    run_windowed_mp,
    runtime_snapshot,
    shards_default,
)
from repro.network.torus import GeminiTorus
from repro.transport.base import get_transport_profile
from repro.transport.simfabric import (
    ShardGateway,
    SimFabric,
    SimTransport,
    lookahead_of,
)
from repro.util.errors import ConfigError, SimulationError, TransportError

# Big latencies so byte-identity runs take few windows.
PROFILE = replace(get_transport_profile("sock"), base_latency=0.02,
                  connect_latency=0.2, per_byte=1e-9)


@pytest.fixture(autouse=True)
def _reset_shard_runtime():
    """The windowed drivers account into the process-global RUNTIME;
    keep each test hermetic."""
    RUNTIME.reset()
    yield
    RUNTIME.reset()


class World:
    def __init__(self, shard_id=None, nshards=2, lookahead=None, arena=True):
        self.engine = Engine()
        self.env = SimEnv(self.engine, arena=arena)
        self.fabric = SimFabric(self.engine)
        self.gateway = None
        if shard_id is not None:
            self.gateway = ShardGateway(
                self.fabric, shard_id, nshards,
                lookahead_of(PROFILE) if lookahead is None else lookahead)


def _build_samplers(world, n, profile=PROFILE):
    daemons = []
    for i in range(n):
        x = SimTransport(world.fabric, profile, node_id=i)
        d = Ldmsd(f"n{i}", env=world.env, transports={"sock": x}, mem="64kB")
        d.load_sampler("synthetic", instance=f"n{i}/syn", component_id=i + 1,
                       num_metrics=4)
        d.start_sampler(f"n{i}/syn", interval=1.0)
        d.listen("sock", f"n{i}:411")
        daemons.append(d)
    return daemons


def _build_agg(world, n, profile=PROFILE, store="memory", **store_kwargs):
    agg = Ldmsd("agg", env=world.env,
                transports={"sock": SimTransport(world.fabric, profile,
                                                 node_id="agg")})
    st = agg.add_store(store, **store_kwargs)
    for i in range(n):
        agg.add_producer(f"n{i}", "sock", f"n{i}:411", interval=1.0,
                         sets=(f"n{i}/syn",))
    return agg, st


def _rows(store):
    return [(r.timestamp, r.producer, r.set_name,
             tuple(r.values.items()) if hasattr(r.values, "items")
             else tuple(r.values))
            for r in store.rows]


def _unsharded(n, duration, profile=PROFILE, arena=True, **store_kwargs):
    w = World(arena=arena)
    _build_samplers(w, n, profile)
    agg, store = _build_agg(w, n, profile, **store_kwargs)
    w.engine.run(until=duration)
    return w, agg, store


def _sharded(n, duration, profile=PROFILE, arena=True, **store_kwargs):
    """Samplers on shard 0, aggregator on shard 1, windowed in-process."""
    w0 = World(shard_id=0, arena=arena,
               lookahead=lookahead_of(profile))
    w1 = World(shard_id=1, arena=arena,
               lookahead=lookahead_of(profile))
    _build_samplers(w0, n, profile)
    for i in range(n):
        w1.gateway.add_route(f"n{i}:411", 0)
    agg, store = _build_agg(w1, n, profile, **store_kwargs)
    nwin = run_windowed([w0, w1], duration)
    return (w0, w1), agg, store, nwin


class TestLookahead:
    def test_profile_lookaheads(self):
        assert lookahead_of(get_transport_profile("sock")) == pytest.approx(40e-6)
        assert lookahead_of(get_transport_profile("rdma")) == pytest.approx(4e-6)
        assert lookahead_of(get_transport_profile("local")) == 0.0

    def test_zero_lookahead_gateway_rejected(self):
        w = World()
        with pytest.raises(ConfigError, match="zero lookahead"):
            ShardGateway(w.fabric, 0, 2, 0.0)

    def test_local_xprt_partition_rejected(self):
        with pytest.raises(ConfigError, match="lookahead"):
            plan_shards(16, 2, 4, l2_xprt="local")

    def test_torus_partition_rejected(self):
        with pytest.raises(ConfigError, match="torus"):
            plan_shards(16, 2, 4, network=blue_waters(16).network)
        with pytest.raises(ConfigError, match="torus"):
            Machine("bw", 16, network=GeminiTorus(dims=(2, 2, 2)),
                    node_indices=range(8))


class TestWindows:
    def test_run_window_accounting(self):
        eng = Engine()
        fired = []
        eng.call_at(0.5, fired.append, 1)
        n = eng.run_window(1.0)
        assert n == 1 and fired == [1]
        assert eng.windows_run == 1
        assert eng.now == 1.0 and eng.horizon == 1.0

    def test_emit_below_lookahead_rejected(self):
        w = World(shard_id=0, lookahead=0.5)
        with pytest.raises(TransportError, match="lookahead"):
            w.gateway.emit(1, "frame", 0.25, ("c", b"x"))

    def test_frame_exactly_on_window_edge_is_processed(self):
        # deliver_at == W_1: ingested at the barrier before window 1 and
        # processed because run deadlines are inclusive.
        w0 = World(shard_id=0, lookahead=0.5)
        w1 = World(shard_id=1, lookahead=0.5)
        w0.gateway.emit(1, "frame", 0.5, (("nope", 0), b"x"))
        nwin = run_windowed([w0, w1], 0.5)
        assert nwin == 1
        assert w1.engine.events_processed == 1
        assert w1.engine.now == 0.5

    def test_out_of_sync_engines_rejected(self):
        w0 = World(shard_id=0, lookahead=0.5)
        w1 = World(shard_id=1, lookahead=0.5)
        w0.engine.run(until=1.0)
        with pytest.raises(SimulationError, match="out of sync"):
            run_windowed([w0, w1], 2.0)

    def test_unknown_destination_shard_rejected(self):
        w0 = World(shard_id=0, lookahead=0.5)
        w1 = World(shard_id=1, lookahead=0.5)
        w0.gateway.emit(5, "frame", 1.0, (("c", 0), b"x"))
        with pytest.raises(SimulationError, match="unknown shard"):
            run_windowed([w0, w1], 0.5)


class TestByteIdentity:
    N = 4
    DUR = 30.0

    @pytest.mark.parametrize("arena", [True, False])
    def test_windowed_rows_and_freshness_match(self, arena):
        _, agg0, store0 = _unsharded(self.N, self.DUR, arena=arena)
        _, agg1, store1, nwin = _sharded(self.N, self.DUR, arena=arena)
        assert _rows(store0) == _rows(store1)
        assert len(store1.rows) > 0
        assert agg0.freshness.fleet(self.DUR) == agg1.freshness.fleet(self.DUR)
        assert nwin > 1  # actually windowed, not one big free-run

    def test_windowed_rows_match_under_sanitizer(self):
        prev = sanitize.configure("raise")
        try:
            _, _, store0 = _unsharded(self.N, self.DUR)
            _, _, store1, _ = _sharded(self.N, self.DUR)
            assert _rows(store0) == _rows(store1)
        finally:
            sanitize.configure(prev)

    def test_csv_bytes_match(self, tmp_path):
        def read_dir(p):
            return b"".join((p / name).read_bytes()
                            for name in sorted(os.listdir(p)))

        p0 = tmp_path / "unsharded"
        p0.mkdir()
        _, _, store0 = _unsharded(self.N, self.DUR, store="store_csv",
                                  path=str(p0))
        store0.close()
        p1 = tmp_path / "sharded"
        p1.mkdir()
        _, _, store1, _ = _sharded(self.N, self.DUR, store="store_csv",
                                   path=str(p1))
        store1.close()
        assert read_dir(p0) == read_dir(p1)
        assert read_dir(p0)

    def test_mp_workers_match_unsharded(self):
        _, agg0, store0 = _unsharded(self.N, self.DUR)
        rows0 = _rows(store0)
        n = self.N

        def build(shard_id):
            w = World(shard_id=shard_id)
            if shard_id == 0:
                _build_samplers(w, n)
                w.agg = w.store = None
            else:
                for i in range(n):
                    w.gateway.add_route(f"n{i}:411", 0)
                w.agg, w.store = _build_agg(w, n)
            return w

        def finish(w):
            snap = runtime_snapshot()
            if w.store is None:
                return (None, snap)
            return (_rows(w.store), snap)

        res = run_windowed_mp(build, finish, 2, self.DUR)
        rows_by_shard = [r[0] for r in res]
        assert rows_by_shard[0] is None
        assert rows_by_shard[1] == rows0
        for shard_id, (_, snap) in enumerate(res):
            assert snap["shards"] == 2 and snap["shard_id"] == shard_id
            assert snap["shard_windows"] > 1
            assert snap["shard_lookahead_ns"] == int(lookahead_of(PROFILE) * 1e9)
        # the aggregator shard emitted lookups/updates across the boundary
        assert res[1][1]["cross_shard_frames"] > 0

    def test_refusals_match_unsharded(self):
        # More samplers than the aggregator transport accepts: the
        # refusal count, surviving connections, and stored rows must all
        # match the single-engine run.
        tight = replace(PROFILE, max_connections=3)
        n, dur = 5, 10.0
        w, agg0, store0 = _unsharded(n, dur, profile=tight)
        agg0_x = agg0.transports["sock"]
        _, agg1, store1, _ = _sharded(n, dur, profile=tight)
        agg1_x = agg1.transports["sock"]
        assert agg0_x.refused_connections == agg1_x.refused_connections > 0
        c0 = sum(1 for p in agg0.producers.values() if p.connected)
        c1 = sum(1 for p in agg1.producers.values() if p.connected)
        assert c0 == c1 == 3
        assert _rows(store0) == _rows(store1)


class TestShardsToggle:
    def test_shards_default_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert shards_default() == 0
        for raw, want in (("0", 0), ("1", 0), ("2", 2), ("8", 8)):
            monkeypatch.setenv("REPRO_SHARDS", raw)
            assert shards_default() == want
        monkeypatch.setenv("REPRO_SHARDS", "nope")
        with pytest.raises(ConfigError):
            shards_default()
        monkeypatch.setenv("REPRO_SHARDS", "-2")
        with pytest.raises(ConfigError):
            shards_default()

    def test_sweep_identical_across_shard_counts(self):
        """REPRO_SHARDS=0/2/4 under the sanitizer: same points, same
        per-point row digests (forked workers inherit the mode)."""
        prev = sanitize.configure("raise")
        try:
            sizes = [4, 6, 9]

            def job(n):
                pt, info = run_point(n, "sock", interval=1.0, duration=5.0,
                                     scale=1024, digest=True)
                return pt, info["digest"]

            inline = [job(n) for n in sizes]
            for nshards in (2, 4):
                assert run_parallel(job, sizes, nshards) == inline
        finally:
            sanitize.configure(prev)

    def test_sweep_transport_respects_env_toggle(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "2")
        sharded = sweep_transport("sock", sizes=[4, 6], interval=1.0,
                                  duration=5.0, scale=1024)
        monkeypatch.setenv("REPRO_SHARDS", "0")
        inline = sweep_transport("sock", sizes=[4, 6], interval=1.0,
                                 duration=5.0, scale=1024)
        assert sharded == inline


class TestParallelRunner:
    def test_results_in_payload_order(self):
        res = run_parallel(lambda x: x * 10, list(range(7)), 3)
        assert res == [x * 10 for x in range(7)]

    def test_worker_error_propagates(self):
        def boom(x):
            if x == 2:
                raise ValueError("shard job exploded")
            return x

        with pytest.raises(SimulationError, match="shard job exploded"):
            run_parallel(boom, [1, 2, 3], 2)

    def test_maybe_parallel_inline_when_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "0")
        calls = []

        def job(x):
            calls.append(x)
            return x

        assert maybe_parallel(job, [1, 2, 3]) == [1, 2, 3]
        assert calls == [1, 2, 3]  # ran inline, in order


class TestFleetSlices:
    def test_hsn_trace_slices_are_bit_identical(self):
        torus = GeminiTorus(dims=(4, 4, 4))
        t = HsnFleetTrace(torus, sample_interval=60.0)
        t.add_flow_window(30.0, 290.0, 0, 9, 2e9)
        t.add_flow_window(120.0, 240.0, 4, 20, 3e9)
        full = t.run(600.0)
        for s0, s1 in ((0, 3), (3, 7), (7, 10)):
            part = t.run(600.0, sample_range=(s0, s1))
            assert np.array_equal(part.times, full.times[s0:s1])
            for d in ("X+", "Y+"):
                assert np.array_equal(part.stall_pct[d], full.stall_pct[d][s0:s1])
                assert np.array_equal(part.bw_pct[d], full.bw_pct[d][s0:s1])

    def test_hsn_bad_slice_rejected(self):
        t = HsnFleetTrace(GeminiTorus(dims=(4, 4, 4)))
        with pytest.raises(SimulationError, match="sample_range"):
            t.run(600.0, sample_range=(5, 99))

    def test_rate_fleet_slice_burns_jitter_stream(self):
        def fleet():
            f = RateFleet(8, sample_interval=10.0, seed=7)
            f.base_rate = 3.0
            f.add_rate_window(20.0, 70.0, [1, 3], 5.0)
            return f

        times, deltas = fleet().run(100.0)
        t_s, d_s = fleet().run(100.0, sample_range=(4, 8))
        assert np.array_equal(times[4:8], t_s)
        assert np.array_equal(deltas[4:8], d_s)

    def test_run_day_sharded_matches_single_process(self):
        kw = dict(dims=(4, 4, 4), sample_interval=3600.0, background_jobs=4)
        r0, _ = run_day(**kw)
        r1, _ = run_day_sharded(nshards=3, **kw)
        assert np.array_equal(r0.times, r1.times)
        for d in ("X+", "Y+"):
            assert np.array_equal(r0.stall_pct[d], r1.stall_pct[d])
            assert np.array_equal(r0.bw_pct[d], r1.bw_pct[d])

    def test_run_day_env_toggle_routes_to_sharded(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "2")
        kw = dict(dims=(4, 4, 4), sample_interval=3600.0, background_jobs=4)
        r_sharded, _ = run_day(**kw)
        monkeypatch.setenv("REPRO_SHARDS", "0")
        r_plain, _ = run_day(**kw)
        assert np.array_equal(r_sharded.stall_pct["X+"], r_plain.stall_pct["X+"])


class TestSelfMetrics:
    def test_counters_live_after_windowed_run(self):
        (w0, w1), agg, _, nwin = _sharded(4, 10.0)
        snap = runtime_snapshot()
        assert snap["shards"] == 2
        assert snap["shard_windows"] == nwin
        assert snap["cross_shard_frames"] > 0
        assert snap["shard_lookahead_ns"] == int(lookahead_of(PROFILE) * 1e9)
        # the stats() block mirrors the runtime snapshot, schema-stable
        assert agg.stats()["shard"] == snap

    def test_ldmsd_self_row_carries_shard_plane(self):
        from repro.obs.selfmetrics import SELF_METRIC_NAMES, collect

        (w0, w1), agg, _, _ = _sharded(4, 10.0)
        row = dict(zip(SELF_METRIC_NAMES, collect(agg)))
        assert row["shard_windows"] > 0
        assert row["cross_shard_frames"] > 0
        assert row["shard_lookahead_ns"] == int(lookahead_of(PROFILE) * 1e9)
        assert row["shard_barrier_wait_ns"] == 0  # in-process: no barrier

    def test_schema_stable_zeros_when_off(self):
        from repro.obs.selfmetrics import SELF_METRIC_NAMES, collect

        w, agg, _ = _unsharded(2, 5.0)
        row = dict(zip(SELF_METRIC_NAMES, collect(agg)))
        assert (row["shard_windows"], row["shard_barrier_wait_ns"],
                row["cross_shard_frames"], row["shard_lookahead_ns"]) == (0, 0, 0, 0)
        assert agg.stats()["shard"] == {
            "shards": 0, "shard_id": 0, "shard_windows": 0,
            "shard_barrier_wait_ns": 0, "cross_shard_frames": 0,
            "shard_lookahead_ns": 0}


class TestMachinePartition:
    N, FANIN = 16, 4

    def _tree(self):
        return FatTree(n_nodes=self.N, radix=18, uplinks=9)

    def test_plan_contiguous_and_complete(self):
        plan = plan_shards(self.N, 2, self.FANIN, network=self._tree())
        assert plan.nshards == 2
        assert plan.groups == ((0, 1), (2, 3))
        all_nodes = sorted(i for shard in plan.nodes for i in shard)
        assert all_nodes == list(range(self.N))
        assert plan.lookahead > 0

    def test_plan_clamps_to_group_count(self):
        plan = plan_shards(self.N, 99, self.FANIN)
        assert plan.nshards == 4  # one shard per fan-in group

    def test_shard_deploy_matches_unsharded(self):
        kw = dict(plugins=[("meminfo", {})], interval=0.5, xprt="rdma",
                  fanin=self.FANIN)
        m = Machine("m", self.N, network=self._tree(), seed=3)
        dep = m.deploy_ldms(second_level=True, store="memory", **kw)
        m.run(2.0)
        rows0 = _rows(dep.store)

        plan = plan_shards(self.N, 2, self.FANIN, network=self._tree())
        machines, deps = [], []
        for s in range(plan.nshards):
            ms = Machine("m", self.N, network=self._tree(), seed=3,
                         node_indices=plan.nodes[s])
            deps.append(shard_deploy(ms, plan, s, store="memory", **kw))
            machines.append(ms)
        run_windowed(machines, 2.0, lookahead=plan.lookahead)
        assert rows0 == _rows(deps[0].store)
        assert len(rows0) > 0
        # non-L2 shards host no store
        assert deps[1].stores == []
