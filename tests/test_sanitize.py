"""Tests for the REPRO_SANITIZE runtime sanitizer (repro.core.sanitize).

Each test seeds a deliberate discipline violation — a torn write behind
the API's back, a DGN regression, metadata mutation, an inconsistent
read — and asserts the diagnostic fires (raise mode) or counts into a
telemetry registry (count mode) while sanctioned traffic stays silent.
"""

from __future__ import annotations

import struct

import pytest

from repro.core import sanitize
from repro.core.memory import Arena
from repro.core.metric import MetricType
from repro.core.metric_set import MetricSet
from repro.obs.registry import Telemetry


@pytest.fixture
def raise_mode():
    prev = sanitize.configure("raise")
    yield
    sanitize.configure(prev)


@pytest.fixture
def count_mode():
    prev = sanitize.configure("count")
    yield
    sanitize.configure(prev)


def make_set(name="node1/fix", n=3):
    arena = Arena(1 << 20)
    return MetricSet.create(
        name, "fix", [(f"m{i}", MetricType.U64, 1) for i in range(n)], arena
    )


def torn_poke(mset, value=0xDEAD):
    """Write a value byte-for-byte into the data chunk, skipping the API
    (and therefore the DGN bump) — the §IV-B violation."""
    struct.pack_into("<Q", mset._data, mset._compiled.offsets[0], value)


class TestRaiseMode:
    def test_sanctioned_traffic_is_silent(self, raise_mode):
        s = make_set()
        s.set_all([1, 2, 3], timestamp=1.0)
        s.begin_transaction()
        s.set_value("m0", 9)
        s.set_values([4, 5, 6])
        s.end_transaction(2.0)
        assert s.values() == [4, 5, 6]
        assert s.data_bytes()  # publish checkpoint passes

    def test_torn_write_detected_at_publish(self, raise_mode):
        s = make_set()
        s.set_all([1, 2, 3], timestamp=1.0)
        torn_poke(s)
        with pytest.raises(sanitize.SanitizerError, match="torn_write"):
            s.data_bytes()

    def test_torn_write_detected_at_next_transaction(self, raise_mode):
        s = make_set()
        s.set_all([1, 2, 3], timestamp=1.0)
        torn_poke(s)
        with pytest.raises(sanitize.SanitizerError, match="torn_write"):
            s.begin_transaction()

    def test_metadata_mutation_detected(self, raise_mode):
        # No set holds writable metadata: the chunk is stamped on LOOKUP.
        # What can still go wrong is a stray commit of the reservation...
        s = make_set()
        s.set_all([1, 2, 3], timestamp=1.0)
        s.arena.view(s._meta_off, s.meta_size)
        with pytest.raises(sanitize.SanitizerError,
                           match=r"meta_mutation.*reservation committed"):
            s.data_bytes()
        # ...or a stamped chunk that changes during the set's life.
        s = make_set()
        s.set_all([1, 2, 3], timestamp=1.0)
        s.mgn += 1
        with pytest.raises(sanitize.SanitizerError,
                           match=r"meta_mutation.*chunk changed"):
            s.data_bytes()

    def test_dgn_regression_detected_on_apply(self, raise_mode):
        s = make_set()
        s.set_all([1, 2, 3], timestamp=1.0)
        old = s.data_bytes()
        s.set_all([4, 5, 6], timestamp=2.0)
        fresh = s.data_bytes()
        mirror = MetricSet.from_meta(s.meta_bytes(), Arena(1 << 20))
        mirror.apply_data(fresh)
        with pytest.raises(sanitize.SanitizerError, match="dgn_regression"):
            mirror.apply_data(old)

    def test_inconsistent_apply_detected(self, raise_mode):
        s = make_set()
        s.set_all([1, 2, 3], timestamp=1.0)
        s.begin_transaction()
        s.set_values([7, 8, 9])
        torn = bytes(s._data)  # raw mid-transaction fetch
        s.end_transaction(2.0)
        mirror = MetricSet.from_meta(s.meta_bytes(), Arena(1 << 20))
        with pytest.raises(sanitize.SanitizerError, match="inconsistent_apply"):
            mirror.apply_data(torn)

    def test_inconsistent_mirror_read_detected(self, raise_mode):
        s = make_set()
        s.set_all([1, 2, 3], timestamp=1.0)
        # A fresh mirror has never had data applied: flag is clear.
        mirror = MetricSet.from_meta(s.meta_bytes(), Arena(1 << 20))
        with pytest.raises(sanitize.SanitizerError, match="inconsistent_read"):
            mirror.values_tuple()
        mirror.apply_data(s.data_bytes())
        assert mirror.values() == [1, 2, 3]  # consistent now: silent

    def test_producer_side_reads_unchecked(self, raise_mode):
        # A producer may read its own set mid-transaction.
        s = make_set()
        s.set_all([1, 2, 3], timestamp=1.0)
        s.begin_transaction()
        s.set_value("m0", 5)
        assert s.get("m0") == 5
        s.end_transaction(2.0)


class TestCountMode:
    def test_violations_count_into_registered_registry(self, count_mode):
        obs = Telemetry()
        sanitize.register_registry(obs)
        s = make_set("node2/fix")
        s.set_all([1, 2, 3], timestamp=1.0)
        torn_poke(s)
        data = s.data_bytes()  # no raise in count mode
        assert len(data) == s.data_size
        assert obs.counter("sanitizer.torn_write").value == 1
        assert obs.counter("sanitizer.violations").value == 1

    def test_register_registry_idempotent(self, count_mode):
        obs = Telemetry()
        sanitize.register_registry(obs)
        sanitize.register_registry(obs)
        s = make_set("node3/fix")
        s.set_all([1, 2, 3], timestamp=1.0)
        torn_poke(s)
        s.data_bytes()
        assert obs.counter("sanitizer.violations").value == 1


class TestDisabled:
    def test_no_shadow_when_off(self):
        prev = sanitize.configure("off")
        try:
            s = make_set("node4/fix")
            assert s._shadow is None
            s.set_all([1, 2, 3], timestamp=1.0)
            torn_poke(s)
            s.data_bytes()  # no checks, no raise
        finally:
            sanitize.configure(prev)

    def test_mode_parsing(self):
        assert sanitize._parse_mode("") == "off"
        assert sanitize._parse_mode("0") == "off"
        assert sanitize._parse_mode("1") == "raise"
        assert sanitize._parse_mode("raise") == "raise"
        assert sanitize._parse_mode("count") == "count"
        assert sanitize._parse_mode("obs") == "count"
        with pytest.raises(ValueError):
            sanitize._parse_mode("loudly")


class TestPipelineUnderSanitizer:
    def test_sim_pipeline_runs_clean(self, raise_mode):
        """A small sample->transport->store DES run stays violation-free."""
        import repro.plugins  # noqa: F401  (register plugins)
        from repro.core import Ldmsd, SimEnv
        from repro.sim.engine import Engine
        from repro.transport.simfabric import SimFabric, SimTransport

        engine = Engine()
        fabric = SimFabric(engine)
        env = SimEnv(engine)
        samp = Ldmsd("samp", env=env,
                     transports={"sock": SimTransport(fabric, "sock",
                                                      node_id="samp")})
        aggr = Ldmsd("aggr", env=env,
                     transports={"sock": SimTransport(fabric, "sock",
                                                      node_id="aggr")})
        samp.load_sampler("synthetic", instance="samp/synth",
                          num_metrics=8, pattern="counter")
        samp.start_sampler("samp/synth", interval=1.0)
        samp.listen("sock", "samp:411")
        store = aggr.add_store("memory")
        aggr.add_producer("samp", "sock", "samp:411", interval=1.0,
                          sets=("samp/synth",))
        engine.run(until=10.0)
        assert store.records_stored > 0
        samp.shutdown()
        aggr.shutdown()
