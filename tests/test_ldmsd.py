"""Integration tests for ldmsd: sampling, aggregation, stores, failover.

All tests here but one run in the simulator (SimEnv + SimFabric) for
determinism; the exception is a sampler overrunning a real two-worker
pool (``RealEnv``, no sockets).  Real-socket operation is covered in
test_transports.py and test_integration_real.py.
"""

import sys
import time

import pytest

import repro.plugins  # noqa: F401  (registers plugins)
from repro.core import Ldmsd, SimEnv
from repro.core.env import RealEnv
from repro.core.metric import MetricType
from repro.core.metric_set import set_template
from repro.core.sampler import SamplerPlugin, sampler_registry, register_sampler
from repro.plugins.samplers.synthetic import SyntheticSampler
from repro.sim import Engine
from repro.transport import SimFabric, SimTransport
from repro.util.errors import ConfigError

if "ticker" not in sampler_registry:

    @register_sampler("ticker")
    class TickerSampler(SamplerPlugin):
        """Counts sampling events; used throughout these tests."""

        def config(self, instance, component_id=0, **kw):
            super().config(instance, component_id)
            self.set = self.create_set(
                instance, "ticker", set_template(["count"], MetricType.U64))
            self.n = 0

        def do_sample(self, now):
            self.n += 1
            self.set.set_value("count", self.n)


if "blocking" not in sampler_registry:

    @register_sampler("blocking")
    class BlockingSampler(SamplerPlugin):
        """Sleeps inside ``do_sample``: a slow host or a stalled read."""

        def config(self, instance, component_id=0, **kw):
            super().config(instance, component_id)
            self.set = self.create_set(
                instance, "blocking", set_template(["count"], MetricType.U64))

        def do_sample(self, now):
            time.sleep(0.002)
            self.set.set_value("count", self.samples_taken + 1)


if "escaper" not in sampler_registry:

    @register_sampler("escaper")
    class EscaperSampler(SamplerPlugin):
        """Publishes a set whose schema names a file outside a store's
        directory (built with the producer-side check patched out)."""

        def config(self, instance, component_id=0, **kw):
            super().config(instance, component_id)
            self.set = self.create_set(
                instance, "../escaped", set_template(["count"], MetricType.U64))

        def do_sample(self, now):
            self.set.set_value("count", self.samples_taken + 1)


@pytest.fixture
def world():
    eng = Engine()
    return eng, SimEnv(eng), SimFabric(eng)


def make_sampler(world, name="n0", xprt="rdma", interval=1.0):
    eng, env, fabric = world
    d = Ldmsd(name, env=env,
              transports={xprt: SimTransport(fabric, xprt, node_id=name)})
    d.load_sampler("ticker", instance=f"{name}/ticker", component_id=1)
    d.start_sampler(f"{name}/ticker", interval=interval)
    d.listen(xprt, f"{name}:411")
    return d


def make_agg(world, name="agg", xprt="rdma"):
    eng, env, fabric = world
    return Ldmsd(name, env=env,
                 transports={xprt: SimTransport(fabric, xprt, node_id=name),
                             "sock": SimTransport(fabric, "sock", node_id=name)})


class TestSampling:
    def test_periodic_sampling_updates_set(self, world):
        eng, env, fabric = world
        d = make_sampler(world)
        eng.run(until=5.5)
        assert d.get_set("n0/ticker").get("count") == 5

    def test_stop_sampler_halts(self, world):
        eng, env, fabric = world
        d = make_sampler(world)
        eng.run(until=3.5)
        d.stop_sampler("n0/ticker")
        eng.run(until=10.0)
        assert d.get_set("n0/ticker").get("count") == 3

    def test_restart_with_new_interval(self, world):
        """The sampling frequency 'can be changed on the fly' (§IV-A)."""
        eng, env, fabric = world
        d = make_sampler(world, interval=1.0)
        eng.run(until=2.5)
        d.stop_sampler("n0/ticker")
        d.start_sampler("n0/ticker", interval=0.25)
        eng.run(until=3.6)  # fires at 2.75, 3.0, 3.25, 3.5 (+sample cost)
        assert d.get_set("n0/ticker").get("count") == 2 + 4

    def test_synchronous_sampling_aligned(self, world):
        eng, env, fabric = world
        d = Ldmsd("n0", env=env,
                  transports={"rdma": SimTransport(fabric, "rdma")})
        d.load_sampler("ticker", instance="t", component_id=1)
        eng.run(until=0.4)  # start mid-second
        d.start_sampler("t", interval=1.0, offset=0.0)
        eng.run(until=1.05)
        s = d.get_set("t")
        # First synchronous fire lands at the 1.0 wall boundary.
        assert s.get("count") == 1
        assert abs(s.timestamp - 1.0) < 0.01

    def test_duplicate_instance_rejected(self, world):
        d = make_sampler(world)
        with pytest.raises(ConfigError):
            d.load_sampler("ticker", instance="n0/ticker", component_id=1)

    def test_unknown_plugin_rejected(self, world):
        d = make_sampler(world)
        with pytest.raises(ConfigError):
            d.load_sampler("does_not_exist", instance="x")

    def test_start_unknown_instance_rejected(self, world):
        d = make_sampler(world)
        with pytest.raises(ConfigError):
            d.start_sampler("nope", interval=1.0)

    def test_double_start_rejected(self, world):
        d = make_sampler(world)
        with pytest.raises(ConfigError):
            d.start_sampler("n0/ticker", interval=2.0)

    def test_multiple_plugins_independent(self, world):
        eng, env, fabric = world
        d = make_sampler(world)
        d.load_sampler("ticker", instance="n0/ticker2", component_id=1)
        d.start_sampler("n0/ticker2", interval=0.5)
        eng.run(until=4.2)
        assert d.get_set("n0/ticker").get("count") == 4
        assert d.get_set("n0/ticker2").get("count") == 8


class TestSamplerOverrun:
    """A firing whose set is still inside the previous sample's
    transaction is skipped and counted in ``sampler.overruns``.  It used
    to raise ``ReproError: nested transaction`` out of ``Engine.run``
    (arena on and off) and out of a ``RealEnv`` pool worker."""

    @staticmethod
    def _start_counted(d, env, instance, interval):
        """``start_sampler`` with every timer firing counted."""
        fired = []
        call_every = env.call_every

        def counted(interval, fn, *args, **kwargs):
            def fire():
                fired.append(env.now())
                fn()
            return call_every(interval, fire, *args, **kwargs)

        env.call_every = counted
        try:
            d.start_sampler(instance, interval=interval)
        finally:
            del env.call_every
        return fired

    @staticmethod
    def _overruns(d):
        return d.stats()["obs"]["counters"]["sampler.overruns"]

    @staticmethod
    def _sim_sampler(env, fabric):
        d = Ldmsd("n0", env=env, workers=2, transports={
            "rdma": SimTransport(fabric, "rdma", node_id="n0")})
        plugin = d.load_sampler("synthetic", instance="n0/syn",
                                component_id=1, num_metrics=10)
        return d, plugin

    @staticmethod
    def _sampling(cohort, monkeypatch):
        """The reference (``scalar``) runs every synthetic sampler on the
        per-instance path, as for a sampler that cannot vectorize."""
        if not cohort:
            monkeypatch.setattr(SyntheticSampler, "cohort_key",
                                lambda self: None)

    @pytest.mark.parametrize("cohort", [True, False], ids=["arena", "scalar"])
    def test_interval_shorter_than_the_sample_skips_and_counts(
            self, cohort, monkeypatch):
        self._sampling(cohort, monkeypatch)
        eng = Engine()
        env = SimEnv(eng)
        fabric = SimFabric(eng)
        d, plugin = self._sim_sampler(env, fabric)
        cost = plugin.sample_cost
        fired = self._start_counted(d, env, "n0/syn", cost / 2)
        d.listen("rdma", "n0:411")
        agg = make_agg((eng, env, fabric))
        st = agg.add_store("memory")
        agg.add_producer("n0", "rdma", "n0:411", interval=7 * cost)
        eng.run(until=10 * cost)  # raised here
        eng.run(until=4000 * cost)
        d.stop_sampler("n0/syn")
        eng.run(until=eng.now + 10 * cost)  # granted firings drain
        overruns = self._overruns(d)
        assert overruns > 0 and plugin.samples_taken > 0
        assert plugin.samples_taken + overruns == len(fired)
        mset = d.get_set("n0/syn")
        assert mset.is_consistent
        assert mset.get("metric_0") == plugin.samples_taken
        # Every stored sample is one whole transaction: the counter
        # pattern's row at a single tick, each tick stored at most once.
        assert st.rows
        ticks = [r.values[0] for r in st.rows]
        for r in st.rows:
            assert r.values == tuple(r.values[0] * (i + 1) for i in range(10))
        assert ticks == sorted(set(ticks)) and ticks[0] >= 1

    @pytest.mark.parametrize("cohort", [True, False], ids=["arena", "scalar"])
    def test_late_granted_sample_overlapping_the_next_tick(
            self, cohort, monkeypatch):
        # Both workers are held past the 1.0 tick, so that firing queues
        # and is granted at 2.0 - cost/2; its transaction is still open
        # when the 2.0 tick finds the second worker free.  With cohorts
        # on, the 2.0 tick is a cohort sweep.
        self._sampling(cohort, monkeypatch)
        eng = Engine()
        env = SimEnv(eng)
        d, plugin = self._sim_sampler(env, SimFabric(eng))
        d.start_sampler("n0/syn", interval=1.0)
        cost = plugin.sample_cost
        pool = d.worker_pool

        def hold(until):
            pool.submit(lambda: None, cost=until - eng.now)

        eng.call_at(0.5, hold, 2.0 - cost / 2)
        eng.call_at(0.5, hold, 2.0 - cost / 4)
        eng.run(until=5.5)
        assert self._overruns(d) == 1
        assert plugin.samples_taken == 4  # five firings, one skipped
        mset = d.get_set("n0/syn")
        assert mset.is_consistent and mset.get("metric_0") == 4
        assert mset.timestamp == pytest.approx(5.0 + cost)

    def test_blocking_sampler_on_a_real_two_worker_pool(self, capsys):
        env = RealEnv()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave begin/finish lock sections
        try:
            d = Ldmsd("n0", env=env, workers=2, transports={})
            plugin = d.load_sampler("blocking", instance="n0/blk",
                                    component_id=1)
            fired = self._start_counted(d, env, "n0/blk", 0.0005)
            time.sleep(0.1)
            d.stop_sampler("n0/blk")
            deadline = time.monotonic() + 10.0
            while (plugin.samples_taken + self._overruns(d) < len(fired)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert len(fired) > 10
            assert plugin.samples_taken + self._overruns(d) == len(fired)
            assert d.get_set("n0/blk").is_consistent
            d.shutdown()
        finally:
            sys.setswitchinterval(switch)
            env.shutdown()
        assert "Traceback" not in capsys.readouterr().err


class TestAggregation:
    def test_explicit_set_list(self, world):
        eng, env, fabric = world
        make_sampler(world)
        agg = make_agg(world)
        st = agg.add_store("memory", schema="ticker")
        agg.add_producer("n0", "rdma", "n0:411", interval=1.0,
                         sets=("n0/ticker",))
        eng.run(until=10.0)
        assert len(st.rows) >= 8
        assert st.rows[-1].values[0] >= 8

    def test_dir_discovery(self, world):
        eng, env, fabric = world
        make_sampler(world)
        agg = make_agg(world)
        st = agg.add_store("memory")
        agg.add_producer("n0", "rdma", "n0:411", interval=1.0)  # sets=()
        eng.run(until=10.0)
        assert {r.set_name for r in st.rows} == {"n0/ticker"}

    def test_stale_data_not_stored(self, world):
        """A set whose DGN did not advance is skipped (§IV-A)."""
        eng, env, fabric = world
        make_sampler(world, interval=10.0)  # slow sampler
        agg = make_agg(world)
        st = agg.add_store("memory")
        agg.add_producer("n0", "rdma", "n0:411", interval=1.0)  # fast pull
        eng.run(until=30.0)
        stats = agg.producers["n0"].stats
        assert stats.skipped_stale > 0
        # Stored rows == distinct samples seen, no duplicates.
        counts = [r.values[0] for r in st.rows]
        assert counts == sorted(set(counts))

    def test_aggregator_of_aggregators(self, world):
        eng, env, fabric = world
        make_sampler(world)
        l1 = make_agg(world, "l1")
        l1.add_producer("n0", "rdma", "n0:411", interval=1.0)
        l1.listen("sock", "l1:411")
        l2 = make_agg(world, "l2")
        st = l2.add_store("memory")
        l2.add_producer("l1", "sock", "l1:411", interval=1.0)
        eng.run(until=15.0)
        assert len(st.rows) >= 5
        assert st.rows[-1].set_name == "n0/ticker"

    def test_reconnects_keep_one_region_per_set(self, world):
        # Each time l1 loses its sampler it drops the mirror, and l2's
        # next lookup of the same set name used to get a fresh region
        # id: one more name and one more registered reader per reconnect.
        eng, env, fabric = world
        make_sampler(world)
        l1 = make_agg(world, "l1")
        l1.add_producer("n0", "rdma", "n0:411", interval=1.0)
        l1.listen("sock", "l1:411")
        l2 = make_agg(world, "l2")
        st = l2.add_store("memory")
        l2.add_producer("l1", "sock", "l1:411", interval=1.0)
        closed = 0
        for k in range(1, 9):
            eng.run(until=10.0 * k)
            ep = l1.producers["n0"].endpoint
            if ep is not None:
                ep.close()
                closed += 1
        eng.run(until=95.0)
        assert closed == 8
        assert l1.producers["n0"].stats.lookups_failed == 0
        assert l1._region_names == ["n0/ticker"]
        served = l1._served_endpoints
        assert len(served) == 1
        assert list(served[0]._regions) == [1]
        # l2 kept storing through every reconnect.
        assert st.rows[-1].timestamp > 90.0

    def test_multiple_producers_same_target(self, world):
        """Multiple connections between one aggregator and one target
        support different per-set frequencies (§IV-B)."""
        eng, env, fabric = world
        d = make_sampler(world)
        d.load_sampler("ticker", instance="n0/slow", component_id=1)
        d.start_sampler("n0/slow", interval=5.0)
        agg = make_agg(world)
        st = agg.add_store("memory")
        agg.add_producer("fast", "rdma", "n0:411", interval=1.0,
                         sets=("n0/ticker",))
        agg.add_producer("slow", "rdma", "n0:411", interval=5.0,
                         sets=("n0/slow",))
        eng.run(until=20.0)
        fast = [r for r in st.rows if r.set_name == "n0/ticker"]
        slow = [r for r in st.rows if r.set_name == "n0/slow"]
        assert len(fast) > 2.5 * len(slow)

    def test_producer_duplicate_name_rejected(self, world):
        agg = make_agg(world)
        agg.add_producer("p", "rdma", "n0:411", interval=1.0)
        with pytest.raises(ConfigError):
            agg.add_producer("p", "rdma", "n0:411", interval=1.0)

    def test_lookup_retried_until_set_appears(self, world):
        """Fig. 2 {a}/{b}: failed lookups repeat on the update loop."""
        eng, env, fabric = world
        d = Ldmsd("n0", env=env,
                  transports={"rdma": SimTransport(fabric, "rdma", node_id="n0")})
        d.listen("rdma", "n0:411")
        agg = make_agg(world)
        st = agg.add_store("memory")
        agg.add_producer("n0", "rdma", "n0:411", interval=1.0,
                         sets=("n0/ticker",))
        eng.run(until=5.0)
        assert agg.producers["n0"].stats.lookups_failed > 0
        # Now the plugin appears (on-the-fly configuration).
        d.load_sampler("ticker", instance="n0/ticker", component_id=1)
        d.start_sampler("n0/ticker", interval=1.0)
        eng.run(until=15.0)
        assert len(st.rows) > 0


class TestFailover:
    def test_standby_does_not_pull(self, world):
        eng, env, fabric = world
        make_sampler(world)
        agg = make_agg(world)
        st = agg.add_store("memory")
        agg.add_producer("n0", "rdma", "n0:411", interval=1.0, standby=True)
        eng.run(until=10.0)
        assert agg.producers["n0"].stats.updates_issued == 0
        assert agg.producers["n0"].connected  # connection is maintained

    def test_standby_activation_starts_pulls(self, world):
        eng, env, fabric = world
        make_sampler(world)
        agg = make_agg(world)
        st = agg.add_store("memory")
        agg.add_producer("n0", "rdma", "n0:411", interval=1.0, standby=True)
        eng.run(until=5.0)
        agg.activate_standby("n0")  # external watchdog decision (§IV-B)
        eng.run(until=15.0)
        assert len(st.rows) >= 8

    def test_failover_bounded_loss(self, world):
        """Primary dies at t=10; standby activated at t=12; data loss is
        bounded by the failover window."""
        eng, env, fabric = world
        make_sampler(world)
        primary = make_agg(world, "primary")
        sp = primary.add_store("memory")
        primary.add_producer("n0", "rdma", "n0:411", interval=1.0)
        backup = make_agg(world, "backup")
        sb = backup.add_store("memory")
        backup.add_producer("n0", "rdma", "n0:411", interval=1.0, standby=True)
        eng.call_later(10.0, primary.shutdown)
        eng.call_later(12.0, lambda: backup.activate_standby("n0"))
        eng.run(until=30.0)
        counts = sorted({int(r.values[0]) for r in sp.rows}
                        | {int(r.values[0]) for r in sb.rows})
        # Samples are 1..29; at most ~3 may be missing around the gap.
        missing = set(range(counts[0], counts[-1] + 1)) - set(counts)
        assert len(missing) <= 3

    def test_reconnect_after_listener_restart(self, world):
        eng, env, fabric = world
        d = make_sampler(world)
        agg = make_agg(world)
        st = agg.add_store("memory")
        agg.add_producer("n0", "rdma", "n0:411", interval=1.0,
                         reconnect_interval=0.5)
        eng.run(until=5.0)
        n_before = len(st.rows)
        # Kill every served connection (sampler "reboot").
        for ep in list(d._served_endpoints):
            ep.close()
        eng.run(until=15.0)
        assert len(st.rows) > n_before + 5


class TestStorePolicies:
    def test_schema_filter(self, world):
        eng, env, fabric = world
        d = make_sampler(world)
        d.load_sampler("synthetic", instance="n0/syn", component_id=1,
                       num_metrics=3)
        d.start_sampler("n0/syn", interval=1.0)
        agg = make_agg(world)
        st_tick = agg.add_store("memory", schema="ticker")
        st_syn = agg.add_store("memory", schema="synthetic")
        agg.add_producer("n0", "rdma", "n0:411", interval=1.0)
        eng.run(until=5.0)
        assert {r.schema for r in st_tick.rows} == {"ticker"}
        assert {r.schema for r in st_syn.rows} == {"synthetic"}

    def test_metric_projection(self, world):
        eng, env, fabric = world
        d = make_sampler(world)
        d.load_sampler("synthetic", instance="n0/syn", component_id=1,
                       num_metrics=5)
        d.start_sampler("n0/syn", interval=1.0)
        agg = make_agg(world)
        st = agg.add_store("memory", schema="synthetic",
                           metrics=("metric_0", "metric_3"))
        agg.add_producer("n0", "rdma", "n0:411", interval=1.0)
        eng.run(until=5.0)
        assert st.rows
        assert all(r.names == ("metric_0", "metric_3") for r in st.rows)

    def test_producer_filter(self, world):
        eng, env, fabric = world
        make_sampler(world, "n0")
        make_sampler(world, "n1")
        agg = make_agg(world)
        st = agg.add_store("memory", producers=("n1",))
        agg.add_producer("n0", "rdma", "n0:411", interval=1.0)
        agg.add_producer("n1", "rdma", "n1:411", interval=1.0)
        eng.run(until=5.0)
        assert st.rows
        assert {r.producer for r in st.rows} == {"n1"}

    def test_schema_cannot_name_a_file_outside_the_store_path(
            self, world, tmp_path, monkeypatch):
        # A set whose schema is ``../escaped`` made store_csv write
        # ``escaped.csv`` beside its directory.  The producer side
        # refuses to create one; a mirror refuses one arriving in a
        # LOOKUP reply (from a sampler built without the check), and
        # the producer's other sets are still stored.
        from repro.core import metric_set
        from repro.core.memory import Arena
        from repro.core.metric_set import MetricSet

        for bad in ("../escaped", "a/b", ".", "..", "x\x00y"):
            with pytest.raises(ValueError, match="bad schema name"):
                MetricSet.create("n0/bad", bad, [("a", MetricType.U64, 1)],
                                 Arena(4096))
        eng, env, fabric = world
        d = make_sampler(world)
        with monkeypatch.context() as m:
            m.setattr(metric_set, "schema_name_ok", lambda schema: True)
            d.load_sampler("escaper", instance="n0/esc", component_id=1)
        d.start_sampler("n0/esc", interval=1.0)
        out = tmp_path / "store"
        agg = make_agg(world)
        agg.add_store("store_csv", path=str(out))
        agg.add_producer("n0", "rdma", "n0:411", interval=1.0,
                         sets=("n0/ticker", "n0/esc"))
        eng.run(until=10.0)
        agg.shutdown()
        assert [p.name for p in tmp_path.iterdir()] == ["store"]
        assert sorted(p.name for p in out.iterdir()) == ["ticker.csv"]
        assert len((out / "ticker.csv").read_text().splitlines()) > 5


class TestFootprint:
    def test_sampler_memory_under_2mb(self, world):
        """Paper §IV-D: samplers need <2 MB of metric-set memory."""
        eng, env, fabric = world
        d = make_sampler(world)
        d.load_sampler("synthetic", instance="n0/big", component_id=1,
                       num_metrics=467)
        eng.run(until=2.0)
        assert d.arena.used < 2 * 1024 * 1024

    def test_stats_report_reserved_and_committed_arena(self, world):
        """§IV-D "how light am I": the -m region is reserved, a set's
        accounting is what it always was, and only touched bytes are
        backed — under SimEnv the data chunk lives in the set pool and
        the metadata chunk is stamped on LOOKUP, so nothing is."""
        eng, env, fabric = world
        d = Ldmsd("n0", env=env, mem="2MB",
                  transports={"sock": SimTransport(fabric, "sock", node_id=0)})
        assert d.stats()["arena_committed"] == 0
        d.load_sampler("synthetic", instance="n0/syn", component_id=1,
                       num_metrics=10)
        st = d.stats()
        assert st["arena_size"] == 2 * 1024 * 1024
        assert st["arena_used"] == st["arena_peak"] == 1088  # 984 + 104
        assert st["arena_committed"] == 0
        d.delete_set("n0/syn")
        assert d.stats()["arena_committed"] == d.stats()["arena_used"] == 0

    def test_real_env_commits_the_data_chunk_alone(self):
        """Without a set pool the data chunk is arena-backed: of the
        set's 1,088 reserved bytes only its 104-byte data chunk is."""
        env = RealEnv()
        try:
            d = Ldmsd("n0", env=env, mem="2MB", transports={})
            d.load_sampler("synthetic", instance="n0/syn", component_id=1,
                           num_metrics=10)
            st = d.stats()
            assert st["arena_used"] == st["arena_peak"] == 1088
            assert st["arena_committed"] == 104
            mset = d.get_set("n0/syn")
            assert len(mset.meta_bytes()) == mset.meta_size == 982
            assert d.stats()["arena_committed"] == 104  # LOOKUP commits nothing
            d.delete_set("n0/syn")
            assert d.stats()["arena_committed"] == d.stats()["arena_used"] == 0
            d.shutdown()
        finally:
            env.shutdown()

    def test_update_pulls_only_data_chunk(self, world):
        eng, env, fabric = world
        d = make_sampler(world)
        d.load_sampler("synthetic", instance="n0/syn", component_id=1,
                       num_metrics=100)
        d.start_sampler("n0/syn", interval=1.0)
        agg = make_agg(world)
        agg.add_producer("n0", "rdma", "n0:411", interval=1.0,
                         sets=("n0/syn",))
        eng.run(until=10.0)
        ep = agg.producers["n0"].endpoint
        mset = d.get_set("n0/syn")
        n_updates = agg.producers["n0"].stats.updates_completed
        assert n_updates > 0
        # One-sided reads moved ~data_size per update, not total_size.
        per_update = ep.rdma_bytes_read / n_updates
        assert per_update == pytest.approx(mset.data_size, rel=0.01)
        assert per_update < 0.2 * mset.total_size
