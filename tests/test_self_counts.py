"""One count table: ``ldmsd_self``, ``stats`` and ``prof`` read it alike.

Each ``ldmsd_self`` column is a count or a gauge read from one key of
the daemon's count table (``Ldmsd.health()``).  A count never falls: a
removed producer, a terminated sampler or a dropped connection leaves
what it counted behind.  The row agrees with the registry the ``stats``
verb lists, and reading any surface binds no instrument.
"""

import dataclasses

import pytest

import repro.plugins  # noqa: F401  (registers plugins)
from repro.core import Ldmsd, SimEnv
from repro.core.control import ControlChannel
from repro.obs.selfmetrics import COUNT_COLUMNS, SELF_METRIC_NAMES, collect
from repro.plugins.samplers.ldmsd_self import LdmsdSelfSampler
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport


def _daemon(env, fabric, name, **kw):
    return Ldmsd(name, env=env, transports={
        "sock": SimTransport(fabric, "sock", node_id=name)}, **kw)


def _sampler(env, fabric, i, pattern="counter"):
    d = _daemon(env, fabric, f"n{i}", mem="64kB")
    d.load_sampler("synthetic", instance=f"n{i}/syn", component_id=i + 1,
                   num_metrics=6, pattern=pattern)
    d.start_sampler(f"n{i}/syn", interval=1.0)
    d.listen("sock", f"n{i}:411")
    return d


@pytest.fixture
def rows(monkeypatch):
    """Every ``ldmsd_self`` sample taken, with the registry counters
    ``stats()`` listed at that moment."""
    seen = []
    real = LdmsdSelfSampler.do_sample

    def do_sample(self, now):
        row = dict(zip(SELF_METRIC_NAMES, collect(self.daemon)))
        seen.append((self.instance, row,
                     self.daemon.stats()["obs"]["counters"]))
        real(self, now)

    monkeypatch.setattr(LdmsdSelfSampler, "do_sample", do_sample)
    return seen


def test_no_count_falls_and_every_surface_agrees(rows):
    eng = Engine()
    env = SimEnv(eng)
    fabric = SimFabric(eng)
    samplers = [_sampler(env, fabric, i, "counter" if i % 2 else "constant")
                for i in range(5)]
    samplers[2].load_sampler("ldmsd_self", instance="n2/self", component_id=3)
    samplers[2].start_sampler("n2/self", interval=0.5)

    agg = _daemon(env, fabric, "agg", mem="1MB", workers=2)
    agg.add_store("memory", schema="synthetic")
    for d in samplers[:4]:  # pulled twice per sample: half are stale
        agg.add_producer(d.name, "sock", f"{d.name}:411", interval=0.5)
    agg.add_producer("n4", "sock", "n4:411", interval=0.5, standby=True)
    agg.load_sampler("synthetic", instance="agg/syn", component_id=90,
                     num_metrics=4, pattern="random")  # scalar firings
    agg.start_sampler("agg/syn", interval=0.5)
    agg.load_sampler("ldmsd_self", instance="agg/self", component_id=99)
    agg.start_sampler("agg/self", interval=0.7)
    ctl = ControlChannel(agg)

    eng.run(until=3.3)
    n0 = dataclasses.asdict(agg.producers["n0"].stats)
    agg.remove_producer("n0")
    agg.activate_standby("n4")
    eng.run(until=4.6)
    agg.producers["n1"].endpoint.close()  # redialled after backoff
    syn_samples = agg.sampler_plugins()["agg/syn"].samples_taken
    assert ctl.handle("term name=agg/syn") == "0 terminated agg/syn"
    eng.run(until=7.2)
    agg.producers["n4"].deactivate()
    eng.run(until=12.0)

    last = {}
    for instance, row, counters in rows:
        prev = last.get(instance)
        if prev is not None:
            fell = {c: (prev[c], row[c]) for c in COUNT_COLUMNS
                    if row[c] < prev[c]}
            assert fell == {}, f"{instance}: counts fell"
        last[instance] = row
        assert row["samples"] == row["sample_count"] == (
            counters["sampler.samples"])
        for column, name in (("updates_failed", "update.failed"),
                             ("skipped_stale", "update.skipped_stale"),
                             ("skipped_inconsistent",
                              "update.skipped_inconsistent"),
                             ("skipped_busy", "update.skipped_busy")):
            assert row[column] == counters.get(name, 0), (instance, column)
    assert {i for i, _, _ in rows} == {"agg/self", "n2/self"}
    # What the removed producer and the terminated sampler counted is
    # still in the row.
    end = dict(zip(SELF_METRIC_NAMES, collect(agg)))
    live = [p.stats for p in agg.producers.values()]
    for column, field in (("updates_issued", "updates_issued"),
                          ("skipped_stale", "skipped_stale"),
                          ("updates_stored", "stored")):
        assert end[column] == n0[field] + sum(
            getattr(st, field) for st in live) > n0[field] > 0
    assert end["samples"] == syn_samples + (
        agg.sampler_plugins()["agg/self"].samples_taken)
    assert end["freshness_producers"] == 3  # n0 removed, n4 disarmed
    assert agg.producers["n1"].connected  # the closed endpoint redialled
