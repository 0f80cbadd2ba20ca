"""Failure-injection tests: dead targets, memory pressure, overload,
torn reads under adversarial timing."""

import pytest

import repro.plugins  # noqa: F401
from repro.core import Ldmsd, SimEnv
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport


@pytest.fixture
def world():
    eng = Engine()
    return eng, SimEnv(eng), SimFabric(eng)


def sampler(world, name, metrics=8, interval=1.0):
    eng, env, fabric = world
    d = Ldmsd(name, env=env,
              transports={"rdma": SimTransport(fabric, "rdma", node_id=name)})
    d.load_sampler("synthetic", instance=f"{name}/syn", component_id=1,
                   num_metrics=metrics)
    d.start_sampler(f"{name}/syn", interval=interval)
    d.listen("rdma", f"{name}:411")
    return d


def aggregator(world, name="agg", **kw):
    eng, env, fabric = world
    return Ldmsd(name, env=env,
                 transports={"rdma": SimTransport(fabric, "rdma",
                                                  node_id=name)}, **kw)


class TestDeadAndSlowTargets:
    def test_dead_targets_do_not_block_live_ones(self, world):
        """§IV-B: problem nodes must not starve collection."""
        eng, env, fabric = world
        live = [sampler(world, f"live{i}") for i in range(4)]
        agg = aggregator(world, conn_threads=1)  # single connection thread
        st = agg.add_store("memory")
        # 20 producers point at hosts that will never exist.
        for i in range(20):
            agg.add_producer(f"ghost{i}", "rdma", f"ghost{i}:411",
                             interval=1.0, reconnect_interval=0.5)
        for i in range(4):
            agg.add_producer(f"live{i}", "rdma", f"live{i}:411",
                             interval=1.0)
        eng.run(until=15.0)
        per_live = {}
        for r in st.rows:
            per_live[r.set_name] = per_live.get(r.set_name, 0) + 1
        assert len(per_live) == 4
        assert all(v >= 10 for v in per_live.values())

    def test_target_dying_mid_run_is_bypassed(self, world):
        eng, env, fabric = world
        s0 = sampler(world, "s0")
        s1 = sampler(world, "s1")
        agg = aggregator(world)
        st = agg.add_store("memory")
        agg.add_producer("s0", "rdma", "s0:411", interval=1.0)
        agg.add_producer("s1", "rdma", "s1:411", interval=1.0)
        eng.call_later(5.0, s1.shutdown)
        eng.run(until=20.0)
        s0_rows = [r for r in st.rows if r.set_name == "s0/syn"]
        s1_rows = [r for r in st.rows if r.set_name == "s1/syn"]
        assert len(s0_rows) >= 17  # unaffected
        assert len(s1_rows) <= 6  # stopped at death

    def test_set_deleted_under_aggregator(self, world):
        """Producer deletes the set mid-collection; the aggregator
        counts failures and recovers when it reappears."""
        eng, env, fabric = world
        s0 = sampler(world, "s0")
        agg = aggregator(world)
        st = agg.add_store("memory")
        agg.add_producer("s0", "rdma", "s0:411", interval=1.0,
                         sets=("s0/syn",))
        eng.run(until=5.0)

        def remove():
            s0.term_sampler("s0/syn")

        eng.call_later(0.5, remove)  # at t=5.5 (relative to now=5.0)
        eng.run(until=10.0)
        stats = agg.producers["s0"].stats
        assert stats.updates_failed > 0 or stats.lookups_failed > 0
        # Reload the plugin: collection resumes.
        def reload():
            s0.load_sampler("synthetic", instance="s0/syn", component_id=1,
                            num_metrics=8)
            s0.start_sampler("s0/syn", interval=1.0)

        eng.call_later(0.5, reload)  # at t=10.5
        n_before = len(st.rows)
        eng.run(until=20.0)
        assert len(st.rows) > n_before + 3


class TestMemoryPressure:
    def test_aggregator_arena_exhaustion_is_graceful(self, world):
        eng, env, fabric = world
        # Each 400-metric set needs ~35 kB of mirror memory; a 64 kB
        # aggregator arena fits one set but not four.
        for i in range(4):
            sampler(world, f"s{i}", metrics=400)
        agg = aggregator(world, mem="64kB")
        st = agg.add_store("memory")
        for i in range(4):
            agg.add_producer(f"s{i}", "rdma", f"s{i}:411", interval=1.0)
        eng.run(until=10.0)
        # Some sets collect; the rest fail lookups without crashing.
        collected = {r.set_name for r in st.rows}
        assert 1 <= len(collected) < 4
        failed = sum(p.stats.lookups_failed for p in agg.producers.values())
        assert failed > 0

    def test_sampler_arena_exhaustion_rejects_new_sets(self, world):
        eng, env, fabric = world
        d = Ldmsd("tiny", env=env, mem="16kB",
                  transports={"rdma": SimTransport(fabric, "rdma")})
        d.load_sampler("synthetic", instance="a", component_id=1,
                       num_metrics=100)
        from repro.util.errors import OutOfMemory

        with pytest.raises(OutOfMemory):
            d.load_sampler("synthetic", instance="b", component_id=1,
                           num_metrics=500)
        # The first set still works.
        d.sampler_plugins()["a"].sample(0.0)


class TestOverload:
    def test_slow_update_pipeline_bypasses(self, world):
        """When update processing cannot keep up, in-flight sets are
        bypassed, not queued without bound (§IV-E)."""
        eng, env, fabric = world
        for i in range(4):
            sampler(world, f"s{i}", interval=0.1)
        agg = aggregator(world, workers=1)
        agg.update_cpu_cost = 0.5  # pathological: 0.5 s per completion
        st = agg.add_store("memory")
        for i in range(4):
            agg.add_producer(f"s{i}", "rdma", f"s{i}:411", interval=0.1)
        eng.run(until=20.0)
        skipped = sum(p.stats.skipped_busy for p in agg.producers.values())
        assert skipped > 0
        # The system is still live and storing.
        assert len(st.rows) > 10


class TestTornReads:
    def test_slow_sampler_produces_inconsistent_reads(self, world):
        """A sampler whose sampling takes a large fraction of the
        collection period gets torn reads, which are skipped."""
        eng, env, fabric = world
        d = Ldmsd("slow", env=env,
                  transports={"rdma": SimTransport(fabric, "rdma",
                                                   node_id="slow")})
        plug = d.load_sampler("synthetic", instance="slow/syn",
                              component_id=1, num_metrics=8)
        # Force a long sampling busy window: half the sampling period.
        type(plug).sample_cost = property(lambda self: 0.5)
        try:
            d.start_sampler("slow/syn", interval=1.0)
            d.listen("rdma", "slow:411")
            agg = aggregator(world)
            st = agg.add_store("memory")
            agg.add_producer("slow", "rdma", "slow:411", interval=0.25)
            eng.run(until=30.0)
            stats = agg.producers["slow"].stats
            assert stats.skipped_inconsistent > 0
            # And no stored row ever came from a torn read: counters in
            # a consistent sample are monotone multiples.
            for r in st.rows:
                base = r.values[0]
                assert list(r.values) == [base * (i + 1)
                                          for i in range(len(r.values))]
        finally:
            # Undo the class-level patch for other tests.
            del type(plug).sample_cost
