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
import json
import os
import sys
import tracemalloc
import types

import pytest

import repro.plugins  # noqa: F401  (registers plugins)
from repro.core import Ldmsd, SimEnv, sanitize
from repro.core.memory import Arena
from repro.core.metric import MetricType
from repro.core.metric_set import MetricSet, set_template
from repro.core.sampler import sampler_registry
from repro.core.set_arena import SampleCohort, SetArenaPool
from repro.nodefs import GpcdrModel, HostModel
from repro.sim import Engine
from repro.transport import SimFabric, SimTransport

_spec = importlib.util.spec_from_file_location(
    "audit_footprint", os.path.join(os.path.dirname(__file__), os.pardir,
                                    "benchmarks", "audit_footprint.py"))
audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(audit)  # the one builder of the knee topology

#: The per-layer cost ledger (``benchmarks/check_costs.py``): its totals
#: are what the gates below measure, on the CPython it was counted on.
with open(os.path.join(os.path.dirname(__file__), os.pardir,
                       "BENCH_costs.json"), encoding="utf-8") as _f:
    COSTS = json.load(_f)
COSTS_APPLY = COSTS["python"] == "%d.%d" % sys.version_info[:2]


def _ledger(unit: str, *kinds: str) -> float:
    return sum(COSTS["units"][unit]["total"][k] for k in kinds)


#: Bytes per sampler + producer pair.  ~34,000 before arenas committed
#: on touch, sets shared their layout and daemons bound state by role;
#: ~14,000 since, 11,994 since the metadata chunk is stamped on LOOKUP
#: instead of committed per set, 10,634 (10,490 measured later) since a
#: daemon holds no aggregator, store or advertise state before it takes
#: that role and endpoints share the clock and add to counters
#: directly, 9,610 since a daemon reads the counts its pipeline
#: keeps instead of holding counters and a sample histogram of its own,
#: and 9,255 since its span ring also holds the events a separate
#: flight recorder (and a registry of every daemon) held.
#: The budget is that slope + 10 %.
SLOPE_BUDGET = 10_180

#: Bound-method objects one more sampler + producer pair holds: the
#: callbacks each end of the connection installs (served endpoint
#: message and close, traced-read hook, serve setup; the producer's
#: message, close, bind and tick).  14 while each endpoint bound the
#: clock and four counter ``inc`` methods of its own.
METHODS_PER_PAIR = 8

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


def _bound_methods(n: int) -> int:
    """Bound-method objects alive with the knee built at ``n``."""
    world = audit.build(n)
    gc.collect()
    count = sum(type(o) is types.MethodType for o in gc.get_objects())
    del world
    return count


def test_bound_methods_per_producer_pair_within_budget():
    audit.build(8)  # lazy imports and caches: not per producer
    per_pair = (_bound_methods(512) - _bound_methods(128)) / 384
    assert per_pair <= METHODS_PER_PAIR, f"{per_pair:.2f} bound methods per pair"


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
#: fan-in fast path"); 64.30 since the DES clock and the endpoints'
#: counter updates run no Python frame; 60.24 since a cohort sweep
#: observes nothing per member and a flush observes once per batch;
#: 59.32 since a flush logs no flight-recorder event.
#: The 10 % headroom covers library versions.
CALLS_PER_SET = 59.32


@pytest.mark.skipif(sanitize.enabled(), reason="the sanitizer adds calls")
def test_python_calls_per_stored_set_at_the_knee():
    calls = audit.calls_per_stored_set(256)
    assert calls <= CALLS_PER_SET * 1.10, f"{calls:.2f} Python calls per stored set"
    if COSTS_APPLY:
        assert round(calls, 4) == COSTS["units"]["stored_set"]["python_calls"]


#: Python calls one set costs to set up, at any width: a mirror of a
#: layout already seen (``from_meta``: stamp, compare, ``_build`` and
#: its arena and set-pool calls) and a set instantiated from a compiled
#: template.  A per-metric Python step anywhere on either path shows as
#: a count that grows from 10 to 194 metrics.
CALLS_PER_MIRROR = 12
CALLS_PER_INSTANCE = 11


def _calls_per_set_up(card: int) -> tuple[float, float]:
    """``"call"`` events per ``from_meta`` of a known layout and per
    ``instantiate``, each averaged over 16 sets."""
    names = tuple(f"metric_{i:03d}" for i in range(card))
    template = set_template(names, MetricType.U64)
    arena, pool = Arena(1 << 24), SetArenaPool()
    meta = MetricSet.instantiate("n0/syn", "synthetic", template, 1, arena,
                                 1, pool).meta_bytes()
    MetricSet.from_meta(meta, arena, pool=pool)  # the layout is known now

    def per_set(make) -> float:
        def run() -> None:
            for i in range(16):
                make(i)
        return audit.count_events(run) / 16

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


# -- cost per hot-path event ----------------------------------------------
#
# §IV-E's "lightweight" is a per-event cost: a sampler tick reads its
# input and writes one row, a cohort sweep writes each arena block with
# one numpy op per column, a flush and a torn update pay no work beyond
# their bookkeeping.  Each gate counts what the ``repro`` package does
# itself on one such event (``audit.count_events(..., repro_only=True)``:
# library internals and comprehension frames left out, so library and
# Python versions do not move the count).  A name lookup, a layout
# rebuilt, a ``getattr``, a ``print`` or a ``sleep`` on the path adds a
# call; a per-row loop adds lines per member.  The budgets are exact
# counts: a change that moves one re-pins it on purpose.

#: ``repro`` calls (Python and C) in one steady ``do_sample`` tick of
#: each sampler plugin on a synthetic host.  Every tick also writes its
#: row with exactly one ``MetricSet.set_values`` and no per-metric
#: ``set_value``.
CALLS_PER_TICK = {
    "bw_custom": 862, "ethernet": 86, "gpcdr": 258, "infiniband": 46,
    "jobid": 9, "ldmsd_self": 85, "lnet": 36, "loadavg": 20,
    "lustre": 58, "meminfo": 124, "nfs": 46, "procstat": 400,
    "synthetic": 7,
}

#: ``repro`` lines one more member adds to a cohort sweep's finish
#: (``SampleCohort._finish``): the per-member transaction bookkeeping.
#: 25 while each member observed its duration and counted its sample
#: and its row through three registry calls.
LINES_PER_COHORT_MEMBER = 18

#: ``repro`` calls one non-exemplar ``Ldmsd._flush_rows`` makes: per
#: batch, and per row in it.  14 + 6 per row while each row observed
#: its own flush latency; 16 + 4 while each batch logged a flight event.
FLUSH_CALLS_PER_BATCH = 13
FLUSH_CALLS_PER_ROW = 4

#: ``repro`` calls of one torn (inconsistent) update's completion.
TORN_UPDATE_CALLS = 9


def _costs(*events):
    return lambda run: audit.count_events(run, events, repro_only=True)


@pytest.mark.skipif(sanitize.enabled(), reason="the sanitizer adds calls")
def test_sampler_tick_calls_within_budget():
    calls = _costs("call", "c_call")
    clock = {"t": 0.0}
    host = HostModel("n0", clock=lambda: clock["t"], seed=2)
    GpcdrModel(clock=lambda: clock["t"], fs=host.fs)
    eng = Engine()
    d = Ldmsd("n0", env=SimEnv(eng), fs=host.fs,
              transports={"rdma": SimTransport(SimFabric(eng), "rdma")})
    shipped = sorted(n for n, cls in sampler_registry.items()
                     if cls.__module__.startswith("repro.plugins."))
    assert shipped == sorted(CALLS_PER_TICK)
    over = {}
    for name in shipped:
        p = d.load_sampler(name, instance=f"n0/{name}", component_id=1)
        ticks = []
        for t in (1.0, 2.0, 3.0):  # the first tick fills lazy caches
            clock["t"] = t
            ticks.append(calls(lambda: p.do_sample(t)))
        assert ticks[1] == ticks[2], f"{name}: ticks cost {ticks}"
        writes = [audit.count_events(lambda: p.do_sample(4.0), of=write)
                  for write in (MetricSet.set_values, MetricSet.set_value)]
        assert writes == [1, 0], f"{name}: set_values, set_value calls"
        if ticks[2] > CALLS_PER_TICK[name]:
            over[name] = (ticks[2], CALLS_PER_TICK[name])
        if COSTS_APPLY:
            assert ticks[2] == _ledger(f"tick.{name}", "calls", "c_calls")
    assert over == {}, "calls per tick (measured, budget)"


def _knee(n: int, monkeypatch, cls, method: str, events) -> list:
    """Build the knee at ``n`` producers and count ``events`` in every
    ``cls.method`` call of the next interval, with no update traced as
    an exemplar; returns ``(call args, count)`` pairs."""
    _samplers, agg = audit.build(n)
    agg.spans.sample_every = 1 << 30
    count = _costs(*events)
    real = getattr(cls, method)
    seen = []

    def counted(self, *args):
        seen.append((args, count(lambda: real(self, *args))))

    eng = agg.env.engine
    with monkeypatch.context() as m:
        m.setattr(cls, method, counted)
        eng.run(until=eng.now + audit.INTERVAL)
    return seen


@pytest.mark.skipif(sanitize.enabled(), reason="the sanitizer adds lines")
def test_cohort_sweep_lines_grow_only_by_member_bookkeeping(monkeypatch):
    lines = []
    for n in (16, 32):
        (_args, count), *_ = _knee(n, monkeypatch, SampleCohort, "_finish",
                                   ("line",))
        lines.append(count)
    per_member = (lines[1] - lines[0]) / 8  # two cohorts of n / 2
    assert per_member <= LINES_PER_COHORT_MEMBER, f"{per_member} lines per member"
    if COSTS_APPLY:
        assert per_member == _ledger("cohort_member", "lines")


@pytest.mark.skipif(sanitize.enabled(), reason="the sanitizer adds calls")
def test_flush_calls_within_budget(monkeypatch):
    flushes = _knee(32, monkeypatch, Ldmsd, "_flush_rows", ("call", "c_call"))
    plain = {len(rows): c for (_store, rows), c in flushes
             if all(r.span is None for r in rows)}
    assert {1, 2} <= set(plain)  # both a batch and a row term are seen
    if COSTS_APPLY:
        first = {}
        for (_store, rows), c in flushes:  # check_costs takes the first
            if all(r.span is None for r in rows):
                first.setdefault(len(rows), c)
        assert [first[k] for k in (1, 2)] == [
            _ledger(f"flush_batch.rows{k}", "calls", "c_calls") for k in (1, 2)]
    over = {n: c for n, c in plain.items()
            if c > FLUSH_CALLS_PER_BATCH + FLUSH_CALLS_PER_ROW * n}
    assert over == {}, "calls per flush, by rows in it"


@pytest.mark.skipif(sanitize.enabled(), reason="the sanitizer adds calls")
def test_torn_update_costs_what_a_stale_one_does():
    _samplers, agg = audit.build(8)
    prod = agg.producers["n0"]
    upd = prod.updaters["n0/syn"]
    stale = upd.mirror.data_bytes()  # the DGN the mirror already holds
    header = bytearray(stale)
    header[12] = 0  # consistent flag, after the MGN and DGN
    torn = bytes(header)
    calls = _costs("call", "c_call")
    now = agg.env.engine.now
    before = (prod.stats.skipped_inconsistent, prod.stats.skipped_stale)
    torn_calls = calls(lambda: prod._complete_update(upd, torn, now))
    stale_calls = calls(lambda: prod._complete_update(upd, stale, now))
    assert (prod.stats.skipped_inconsistent, prod.stats.skipped_stale) == (
        before[0] + 1, before[1] + 1)
    assert torn_calls == stale_calls
    assert torn_calls <= TORN_UPDATE_CALLS
    if COSTS_APPLY:
        assert torn_calls == _ledger("torn_update", "calls", "c_calls")


def _bound(daemon) -> set[str]:
    obs = daemon.obs
    return set(obs._counters) | set(obs._histograms)


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
        assert set(snap) == {"counters", "histograms"}
        assert _bound(d) == set()  # reading bound nothing either

    def test_sampler_only_daemon_binds_no_store_query_or_arena_state(self):
        eng, d = self._daemon()
        d.load_sampler("synthetic", instance="d0/syn", component_id=1,
                       num_metrics=10)
        d.listen("sock", "d0:411")
        assert _role_scoped(_bound(d)) == set()
        assert d._conn_pool is None and d._flush_pool is None
        # No aggregator, store or advertise state of its own: every
        # daemon that has not taken those roles shares one read-only empty.
        _eng, other = self._daemon("d1")
        for attr in ("producers", "freshness", "stores", "_flush_batches",
                     "_advertisements"):
            assert getattr(d, attr) is getattr(other, attr), attr
        assert not d.producers and not d.stores

    def test_serving_daemon_lists_read_counters_without_binding_them(self):
        eng, d = self._daemon()
        agg = Ldmsd("agg", env=d.env, transports={
            "sock": SimTransport(d.transports["sock"].fabric, "sock",
                                 node_id="agg")})
        d.load_sampler("synthetic", instance="d0/syn", component_id=1,
                       num_metrics=10)
        d.start_sampler("d0/syn", interval=1.0)
        d.listen("sock", "d0:411")
        agg.add_producer("d0", "sock", "d0:411", interval=1.0,
                         sets=("d0/syn",))
        eng.run(until=3.0)
        reads = {"transport.rdma_reads", "transport.rdma_bytes"}
        # Derived: read from the endpoint's own fields, bound nowhere.
        ep = agg.producers["d0"].endpoint
        counters = agg.stats()["obs"]["counters"]
        assert counters["transport.rdma_reads"] == ep.rdma_reads > 0
        assert counters["transport.rdma_bytes"] == ep.rdma_bytes_read
        assert counters["update.skipped_stale"] == (
            agg.producers["d0"].stats.skipped_stale)
        assert not reads & _bound(agg)
        # The sampler only samples and serves: it lists the read
        # counters, zeroed, beside the frames its endpoint received, and
        # holds no instrument but its cohort's sweep count.
        counters = d.stats()["obs"]["counters"]
        assert {c: counters[c] for c in reads} == dict.fromkeys(reads, 0)
        served, = d._served_endpoints
        assert counters["transport.frames_rx"] == served.frames_received > 0
        assert counters["sampler.samples"] == (
            counters["arena.rows_vectorized"]) == (
            d.sampler_plugins()["d0/syn"].samples_taken) > 0
        # sample.duration: bound by the read, which observed the rows.
        assert _bound(d) == {"arena.sweeps", "sample.duration"}

    def test_roles_bind_their_instruments(self):
        eng, d = self._daemon("agg")
        d.add_store("memory")
        assert {"store.flush", "store.flush_batch_rows", "store.no_match",
                "pipeline.sample_to_store"} <= _bound(d)
        assert "store.flush_rows_batched" not in _bound(d)  # stores' rows
        assert "serve.query" not in _bound(d)
        d.add_producer("n0", "sock", "n0:411", interval=1.0, sets=("n0/syn",))
        assert {"lookup.rtt", "update.rtt"} <= _bound(d)
        _eng, idle = self._daemon("d1")
        for attr in ("producers", "freshness", "stores", "_flush_batches"):
            assert getattr(d, attr) is not getattr(idle, attr), attr
        assert list(d.producers) == ["n0"] and len(d.stores) == 1
        assert d._conn_pool is not None and d._flush_pool is None
        assert set(IDLE_COUNTERS) < set(d.stats()["obs"]["counters"])

    def test_reading_every_surface_binds_nothing(self):
        from repro.core.control import ControlChannel

        eng, d = self._daemon()
        agg = Ldmsd("agg", env=d.env, transports={
            "sock": SimTransport(d.transports["sock"].fabric, "sock",
                                 node_id="agg")})
        d.load_sampler("synthetic", instance="d0/syn", component_id=1,
                       num_metrics=10)
        d.start_sampler("d0/syn", interval=1.0)  # a cohort member
        d.load_sampler("synthetic", instance="d0/rnd", component_id=1,
                       num_metrics=4, pattern="random")
        d.start_sampler("d0/rnd", interval=1.0)  # scalar firings
        d.listen("sock", "d0:411")
        agg.add_store("memory")
        agg.add_producer("d0", "sock", "d0:411", interval=1.0)
        selves = [x.load_sampler("ldmsd_self", instance=f"{x.name}/self",
                                 component_id=9) for x in (d, agg)]
        channels = [ControlChannel(x) for x in (d, agg)]
        eng.run(until=3.5)
        roles = [_bound(x) for x in (d, agg)]
        for x, ctl, self_plugin in zip((d, agg), channels, selves):
            x.stats()
            assert ctl.handle("prof").startswith("0 ")
            assert ctl.handle("stats").startswith("0 ")
            for t in (4.0, 5.0, 6.0):
                self_plugin.do_sample(t)
        assert [_bound(x) for x in (d, agg)] == roles
        assert {"query.requests", "lookup.rtt"}.isdisjoint(roles[0])
