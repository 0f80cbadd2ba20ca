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
import sys
import tracemalloc

import pytest

import repro.plugins  # noqa: F401  (registers plugins)
from repro.core import Ldmsd, SimEnv, sanitize
from repro.core.memory import Arena
from repro.core.metric import MetricType
from repro.core.metric_set import MetricSet, set_template
from repro.core.set_arena import SetArenaPool
from repro.sim import Engine
from repro.transport import SimFabric, SimTransport

_spec = importlib.util.spec_from_file_location(
    "audit_footprint", os.path.join(os.path.dirname(__file__), os.pardir,
                                    "benchmarks", "audit_footprint.py"))
audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(audit)  # the one builder of the knee topology

#: Bytes per sampler + producer pair.  ~34,000 before arenas committed
#: on touch, sets shared their layout and daemons bound state by role;
#: ~14,000 since, and 11,994 since the metadata chunk is stamped on
#: LOOKUP instead of committed per set.  The budget is that slope + 10 %.
SLOPE_BUDGET = 13_200

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


#: Python calls one stored 10-metric set costs at the knee, in a steady
#: interval of the 256-producer topology: 90.27 before the pull path
#: built each record once (tuple record, no re-routing in the store, no
#: lock frames, one object per pull); 71.35 since (DESIGN.md "Full-scale
#: fan-in fast path").  The 10 % headroom covers library versions.
CALLS_PER_SET = 71.35


@pytest.mark.skipif(sanitize.enabled(), reason="the sanitizer adds calls")
def test_python_calls_per_stored_set_at_the_knee():
    calls = audit.calls_per_stored_set(256)
    assert calls <= CALLS_PER_SET * 1.10, f"{calls:.2f} Python calls per stored set"


#: Python calls one set costs to set up, at any width: a mirror of a
#: layout already seen (``from_meta``: stamp, compare, ``_build`` and
#: its arena and set-pool calls) and a set instantiated from a compiled
#: template.  A per-metric Python step anywhere on either path shows as
#: a count that grows from 10 to 194 metrics.
CALLS_PER_MIRROR = 12
CALLS_PER_INSTANCE = 11


def _calls_per_set_up(card: int) -> tuple[float, float]:
    """``sys.setprofile`` ``"call"`` events per ``from_meta`` of a known
    layout and per ``instantiate``, each averaged over 16 sets."""
    names = tuple(f"metric_{i:03d}" for i in range(card))
    template = set_template(names, MetricType.U64)
    arena, pool = Arena(1 << 24), SetArenaPool()
    meta = MetricSet.instantiate("n0/syn", "synthetic", template, 1, arena,
                                 1, pool).meta_bytes()
    MetricSet.from_meta(meta, arena, pool=pool)  # the layout is known now
    calls = 0

    def count(_frame, event, _arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    def per_set(make) -> float:
        nonlocal calls
        calls = 0
        sys.setprofile(count)
        try:
            for i in range(16):
                make(i)
        finally:
            sys.setprofile(None)
        return calls / 16

    return (per_set(lambda i: MetricSet.from_meta(meta, arena, pool=pool)) - 1,
            per_set(lambda i: MetricSet.instantiate(
                f"n{i + 1}/syn", "synthetic", template, i + 1, arena, 1,
                pool)) - 1)


@pytest.mark.skipif(sanitize.enabled(), reason="the sanitizer adds calls")
def test_python_calls_per_set_up_do_not_grow_with_metrics():
    narrow, wide = _calls_per_set_up(10), _calls_per_set_up(194)
    assert narrow == wide, f"10 metrics: {narrow}, 194 metrics: {wide}"
    mirror, instance = wide
    assert mirror <= CALLS_PER_MIRROR * 1.10, f"{mirror} calls per mirror"
    assert instance <= CALLS_PER_INSTANCE * 1.10, f"{instance} calls per set"


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
