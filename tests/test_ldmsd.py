"""Integration tests for ldmsd: sampling, aggregation, stores, failover.

All tests here run in the simulator (SimEnv + SimFabric) for
determinism; real-socket operation is covered in test_transport_sock.py.
"""

import pytest

import repro.plugins  # noqa: F401  (registers plugins)
from repro.core import Ldmsd, SimEnv
from repro.core.metric import MetricType
from repro.core.sampler import SamplerPlugin, sampler_registry, register_sampler
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
                instance, "ticker", [("count", MetricType.U64)]
            )
            self.n = 0

        def do_sample(self, now):
            self.n += 1
            self.set.set_value("count", self.n)


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
        backed — under SimEnv the data chunk lives in the set pool, so
        the 10-metric set commits its 984-byte metadata chunk alone."""
        eng, env, fabric = world
        d = Ldmsd("n0", env=env, mem="2MB",
                  transports={"sock": SimTransport(fabric, "sock", node_id=0)})
        assert d.stats()["arena_committed"] == 0
        d.load_sampler("synthetic", instance="n0/syn", component_id=1,
                       num_metrics=10)
        st = d.stats()
        assert st["arena_size"] == 2 * 1024 * 1024
        assert st["arena_used"] == st["arena_peak"] == 1088  # 984 + 104
        assert 0 < st["arena_committed"] <= 4096
        d.delete_set("n0/syn")
        assert d.stats()["arena_committed"] == d.stats()["arena_used"] == 0

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
