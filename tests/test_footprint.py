"""A footprint budget that cannot rot (ROADMAP 1c, DESIGN "Footprint").

A producer should cost what its data costs.  ``tracemalloc`` — exact and
machine-independent, unlike RSS — prices the ``fanin_knee`` topology at
two sizes; the slope is the bytes one more sampler daemon plus its
producer on the aggregator add.  The second half pins *how* the budget
is met: a daemon holds instruments only for the roles it has taken,
while every read surface still lists the full schema.
"""

import gc
import importlib.util
import os
import tracemalloc

import repro.plugins  # noqa: F401  (registers plugins)
from repro.core import Ldmsd, SimEnv
from repro.sim import Engine
from repro.transport import SimFabric, SimTransport

_spec = importlib.util.spec_from_file_location(
    "audit_footprint", os.path.join(os.path.dirname(__file__), os.pardir,
                                    "benchmarks", "audit_footprint.py"))
audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(audit)  # the one builder of the knee topology

#: Bytes per sampler + producer pair.  ~34,000 before arenas committed
#: on touch, sets shared their layout and daemons bound state by role;
#: ~14,600 since.
SLOPE_BUDGET = 17_000

#: What ``stats()["obs"]`` lists on a daemon that has done nothing yet.
IDLE_COUNTERS = [
    "arena.fallback_sets", "arena.rows_vectorized", "arena.sweeps",
    "sampler.overruns", "sampler.samples", "serve.dir_req",
    "serve.lookup_req", "serve.query_req", "set.create_failed", "store.errors",
    "store.flush_rows_batched", "store.no_match", "wire.malformed_frames",
]
IDLE_HISTOGRAMS = [
    "pipeline.sample_to_store", "sample.duration", "serve.query",
    "store.flush", "store.flush_batch_rows",
]
ZERO_SUMMARY = {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


def _traced_bytes(n: int) -> int:
    """Bytes live after building the knee topology at ``n`` producers
    and running it to the first stored sample of every producer."""
    audit.build(8)  # layout / schema caches and lazy imports: not per producer
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        world = audit.build(n)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    del world
    return live


def test_bytes_per_producer_pair_within_budget():
    slope = (_traced_bytes(512) - _traced_bytes(128)) / 384
    assert slope <= SLOPE_BUDGET, f"{slope:,.0f} B per sampler + producer pair"


def test_event_heap_at_a_slice_boundary_does_not_grow_with_producers():
    # Every producer tick and both sampler cohorts share the 5 s
    # interval, so they ride one engine lane: between slices the heap
    # holds its head alone (it used to hold every pending tick: n + 2).
    sizes = []
    for n in (512, 2048):
        _samplers, agg = audit.build(n)
        eng = agg.env.engine
        for _ in range(2):
            eng.run(until=eng.now + audit.INTERVAL)
            sizes.append(len(eng._heap))
        assert len(eng._lanes[audit.INTERVAL].keys) == n + 2
        del _samplers, agg, eng
    assert sizes == [1, 1, 1, 1]


def _bound(daemon) -> set[str]:
    obs = daemon.obs
    return set(obs._counters) | set(obs._gauges) | set(obs._histograms)


def _role_scoped(names: set[str]) -> set[str]:
    return {n for n in names
            if n.startswith(("store.", "serve.query", "pipeline.", "arena."))}


class TestRoleScopedInstruments:
    def _daemon(self, name="d0"):
        eng = Engine()
        env = SimEnv(eng)
        fabric = SimFabric(eng)
        d = Ldmsd(name, env=env, transports={
            "sock": SimTransport(fabric, "sock", node_id=name)})
        return eng, d

    def test_idle_daemon_lists_full_schema_but_holds_no_instrument(self):
        _eng, d = self._daemon()
        assert _bound(d) == set()
        snap = d.stats()["obs"]
        assert list(snap["counters"]) == IDLE_COUNTERS
        assert set(snap["counters"].values()) == {0}
        assert list(snap["histograms"]) == IDLE_HISTOGRAMS
        assert all(h == ZERO_SUMMARY for h in snap["histograms"].values())
        assert snap["gauges"] == {}
        assert _bound(d) == set()  # reading bound nothing either

    def test_sampler_only_daemon_binds_no_store_query_or_arena_state(self):
        eng, d = self._daemon()
        d.load_sampler("synthetic", instance="d0/syn", component_id=1,
                       num_metrics=10)
        d.listen("sock", "d0:411")
        assert _role_scoped(_bound(d)) == set()
        assert d._conn_pool is None and d._flush_pool is None

    def test_roles_bind_their_instruments(self):
        eng, d = self._daemon("agg")
        d.add_store("memory")
        assert {"store.flush", "store.flush_batch_rows",
                "store.flush_rows_batched", "store.no_match",
                "pipeline.sample_to_store"} <= _bound(d)
        assert "serve.query" not in _bound(d)
        d.add_producer("n0", "sock", "n0:411", interval=1.0, sets=("n0/syn",))
        assert {"lookup.rtt", "update.rtt"} <= _bound(d)
        assert d._conn_pool is not None and d._flush_pool is None
        assert set(IDLE_COUNTERS) < set(d.stats()["obs"]["counters"])
