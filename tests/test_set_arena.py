"""Determinism and mechanics of the columnar set-arena data plane.

The cohort sweep is a pure performance mechanism: it must produce
byte-for-byte the same stored output as the reference world, where
every synthetic sampler runs the per-instance path (``cohort_key()``
patched to None, as for any sampler that cannot vectorize), with and
without the runtime sanitizer — and the cohort's single sweep event
must slot into the engine's equal-time FIFO exactly where the
per-member timers fire.  A delivered row is decoded once, however many
stores it feeds.
"""

import contextlib
import os

import pytest

import repro.plugins  # noqa: F401
from repro.core import Ldmsd, SimEnv, sanitize
from repro.core.metric_set import MetricSet
from repro.core.set_arena import SetArenaPool
from repro.plugins.samplers.synthetic import SyntheticSampler
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport


def _read_csv_dir(path: str) -> bytes:
    blobs = []
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            blobs.append(f.read())
    return b"".join(blobs)


@contextlib.contextmanager
def _sampling(cohort: bool):
    """Cohort sweeps (as in production), or the per-instance reference."""
    with pytest.MonkeyPatch.context() as mp:
        if not cohort:
            mp.setattr(SyntheticSampler, "cohort_key", lambda self: None)
        yield


def _fanin_world(csv_path: str, n: int = 16, per: int = 1):
    """A small sock fan-in: ``n`` sampler daemons of ``per`` same-layout
    sets each (``per > 1`` makes the aggregator's fetch a coalesced
    read)."""
    eng = Engine()
    env = SimEnv(eng)
    fabric = SimFabric(eng)
    samplers = []
    sets = [[f"n{i}/syn{k or ''}" for k in range(per)] for i in range(n)]
    for i in range(n):
        x = SimTransport(fabric, "sock", node_id=i)
        d = Ldmsd(f"n{i}", env=env, transports={"sock": x}, mem="8kB")
        for inst in sets[i]:
            d.load_sampler("synthetic", instance=inst, component_id=i + 1,
                           num_metrics=4)
            d.start_sampler(inst, interval=1.0)
        d.listen("sock", f"n{i}:411")
        samplers.append(d)
    agg = Ldmsd("agg", env=env,
                transports={"sock": SimTransport(fabric, "sock",
                                                 node_id="agg")})
    store = agg.add_store("store_csv", path=csv_path)
    for i in range(n):
        agg.add_producer(f"n{i}", "sock", f"n{i}:411", interval=1.0,
                         sets=tuple(sets[i]))
    return eng, env, samplers, agg, store


def _assert_cohort_transparent(tmp_path) -> None:
    """CSV bytes equal with cohort sweeps and per-instance sampling, for
    both fetch routes: 16 one-set producers (single reads) and one
    producer holding eight same-layout sets (coalesced read)."""
    for n, per in ((16, 1), (1, 8)):
        outputs = {}
        for cohort in (True, False):
            path = tmp_path / f"{n}x{per}_{cohort}"
            path.mkdir()
            with _sampling(cohort):
                eng, _, _, agg, store = _fanin_world(str(path), n, per)
                eng.run(until=10.0)
            store.close()
            coalesced = sum(p.stats.updates_coalesced
                            for p in agg.producers.values())
            assert (coalesced > 0) == (per > 1)
            outputs[cohort] = _read_csv_dir(str(path))
        assert outputs[True] == outputs[False]
        assert outputs[True]  # non-empty: rows actually flushed


class TestArenaTransparency:
    """Acceptance: cohort and per-instance runs are byte-identical."""

    def test_fanin_csv_identical_arena_on_and_off(self, tmp_path):
        _assert_cohort_transparent(tmp_path)

    def test_fanin_csv_identical_under_sanitizer(self, tmp_path):
        """Cohort commits keep the shadow CRC discipline: same bytes,
        zero violations, with REPRO_SANITIZE=1."""
        prev = sanitize.configure("raise")
        try:
            _assert_cohort_transparent(tmp_path)
        finally:
            sanitize.configure(prev)

    def test_logical_event_count_invariant(self, tmp_path):
        """processed + vectorized is the cohort-invariant logical event
        count (what BENCH_fanin.json reports as events)."""
        totals = {}
        for cohort in (True, False):
            with _sampling(cohort):
                eng, _, _, _, _ = _fanin_world(str(tmp_path / f"e{cohort}"))
                eng.run(until=10.0)
            totals[cohort] = eng.events_processed + eng.vectorized_events
            if cohort:
                assert eng.vectorized_events > 0
            else:
                assert eng.vectorized_events == 0
        assert totals[True] == totals[False]


class TestCohortMechanics:
    def test_same_phase_samplers_share_one_cohort(self, tmp_path):
        eng, env, samplers, agg, _ = _fanin_world(
            str(tmp_path / "c"), n=8)
        eng.run(until=5.0)
        # All 8 same-phase synthetic samplers ride one arena: one sweep
        # per tick, 8 vectorized rows per sweep, attributed to the first
        # member's daemon.
        pool = env.set_arena_pool
        assert isinstance(pool, SetArenaPool)
        stats = pool.stats()
        assert stats["rows"] >= 8
        sweeps = sum(d.obs.counter("arena.sweeps").value for d in samplers)
        rows = sum(d.obs.counter("arena.rows_vectorized").value
                   for d in samplers)
        assert sweeps >= 4
        assert rows >= 8 * sweeps

    def test_stop_sampler_leaves_cohort_cleanly(self, tmp_path):
        eng, env, samplers, agg, _ = _fanin_world(
            str(tmp_path / "s"), n=4)
        eng.call_later(3.5, samplers[0].stop_sampler, "n0/syn")
        eng.run(until=8.0)
        # The survivors keep sampling after the membership change.
        assert samplers[0]._plugins["n0/syn"].samples_taken <= 4
        assert samplers[1]._plugins["n1/syn"].samples_taken >= 7

    def test_scalar_api_still_works_on_arena_rows(self, tmp_path):
        """Individually-allocated MetricSet semantics survive: per-set
        transactions and reads hit the same arena-backed bytes."""
        eng, env, samplers, _, _ = _fanin_world(str(tmp_path / "a"), n=2)
        eng.run(until=3.0)
        mset = samplers[0].get_set("n0/syn")
        assert mset._ab is not None
        vals = mset.values_tuple()
        assert len(vals) == 4
        assert mset.data_bytes() == bytes(mset._data)


class TestEqualTimeFifoWithCohort:
    def test_sweep_fires_in_schedule_order_at_equal_time(self, tmp_path):
        """A callback scheduled before start_sampler sees the pre-sweep
        state at the shared instant; one scheduled after sees the open
        transaction — the cohort timer occupies exactly the FIFO slot
        the per-member timers had."""
        eng = Engine()
        env = SimEnv(eng)
        d = Ldmsd("n0", env=env, transports={})
        seen = {}
        d.load_sampler("synthetic", instance="n0/syn", component_id=1,
                       num_metrics=4)
        mset_holder = {}

        def before():
            m = mset_holder["m"]
            seen["before"] = (m._in_transaction, m.dgn)

        def after():
            m = mset_holder["m"]
            seen["after"] = (m._in_transaction, m.dgn)

        eng.call_later(1.0, before)
        d.start_sampler("n0/syn", interval=1.0)
        mset_holder["m"] = d.get_set("n0/syn")
        eng.call_later(1.0, after)
        eng.run(until=1.5)
        # before() fired ahead of the sweep (transaction not yet open),
        # after() fired behind it (transaction open, DGN not yet bumped
        # -- values land at the cost horizon).
        assert seen["before"] == (False, 0)
        assert seen["after"][0] is True
        assert mset_holder["m"].dgn > 0  # finish ran by t=1.5


class TestOneDecodePerRow:
    def test_stores_sharing_a_row_share_its_record(self, tmp_path,
                                                   monkeypatch):
        """A row routed to several stores is decoded once: the first
        flush to drain it builds the record and the other stores keep
        that very object."""
        decodes = []
        decode = MetricSet.snapshot_values

        def spy(mset, data):
            decodes.append(data)
            return decode(mset, data)

        monkeypatch.setattr(MetricSet, "snapshot_values", spy)
        eng, _, _, agg, _ = _fanin_world(str(tmp_path), n=4)
        a, b = agg.add_store("memory"), agg.add_store("memory")
        eng.run(until=10.0)
        assert len(a.rows) == len(b.rows) > 0
        assert all(x is y for x, y in zip(a.rows, b.rows))
        assert len(decodes) == len(a.rows)
        agg.shutdown()
