"""Regression tests for the schema-compiled fast paths.

The compiled whole-row pack/unpack, the DGN shadow, the aggregator's
peek-before-copy early-out, and the CSV formatter compilation must all
be *behaviourally invisible*: byte-for-byte wire compatibility with the
per-metric reference path, identical generation-number and consistency
semantics, and no dropped samples.
"""

import struct
import time

import pytest
from hypothesis import given, strategies as st

import repro.plugins  # noqa: F401
from repro.core import Ldmsd, SimEnv, sanitize
from repro.core.memory import Arena
from repro.core.metric import MetricDesc, MetricType
from repro.core.metric_set import MetricSet, SchemaMismatch
from repro.core.store import StoreRecord
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport

ALL_TYPES = list(MetricType)


def _wait_for(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


#: A representative in-range value per type.
SAMPLE_VALUES = {
    MetricType.U8: 200,
    MetricType.S8: -100,
    MetricType.U16: 60_000,
    MetricType.S16: -30_000,
    MetricType.U32: 4_000_000_000,
    MetricType.S32: -2_000_000_000,
    MetricType.U64: 2**64 - 7,
    MetricType.S64: -(2**62),
    MetricType.F32: 1.5,
    MetricType.F64: 3.141592653589793,
}


def reference_data_chunk(mset, values, dgn, consistent, timestamp):
    """The seed implementation's data chunk, reconstructed per metric:
    header packed field-by-field, each value clamped then packed at its
    descriptor offset, pad bytes left zero (the arena zero-fills)."""
    buf = bytearray(mset.data_size)
    struct.pack_into("<IQB3xd", buf, 0, mset.mgn, dgn, consistent, timestamp)
    for d, v in zip(mset.descs, values):
        struct.pack_into("<" + d.mtype.struct_code, buf, d.data_offset,
                         d.mtype.clamp(v))
    return bytes(buf)


@pytest.fixture
def arena():
    return Arena(1 << 20)


class TestWireCompatibility:
    """Acceptance: compiled-path bytes == seed per-metric-path bytes."""

    @pytest.mark.parametrize("mtype", ALL_TYPES, ids=lambda t: t.name)
    def test_single_metric_every_type(self, arena, mtype):
        s = MetricSet.create("n/t", "t", [("m", mtype, 1)], arena)
        v = SAMPLE_VALUES[mtype]
        s.set_all([v], timestamp=2.5)
        assert s.data_bytes() == reference_data_chunk(s, [v], dgn=1,
                                                      consistent=1,
                                                      timestamp=2.5)

    def test_mixed_types_with_pad_bytes(self, arena):
        # U8 then U64 forces a 7-byte alignment hole; U16 after F32 etc.
        metrics = [("a", MetricType.U8, 1), ("b", MetricType.U64, 1),
                   ("c", MetricType.U16, 1), ("d", MetricType.F32, 1),
                   ("e", MetricType.S8, 1), ("f", MetricType.F64, 1)]
        s = MetricSet.create("n/mix", "mix", metrics, arena)
        values = [7, 2**63, 999, 0.25, -5, -1.75]
        s.set_all(values, timestamp=10.0)
        assert s.data_bytes() == reference_data_chunk(
            s, values, dgn=len(values), consistent=1, timestamp=10.0)

    def test_out_of_range_values_clamp_like_seed(self, arena):
        s = MetricSet.create(
            "n/c", "c",
            [("u8", MetricType.U8, 0), ("s16", MetricType.S16, 0),
             ("u64", MetricType.U64, 0)], arena)
        values = [300, 40_000, -1]  # all out of range -> C-like wrap
        s.set_all(values, timestamp=0.0)
        assert s.values() == [300 % 256, (40_000 + 2**15) % 2**16 - 2**15,
                              2**64 - 1]
        assert s.data_bytes() == reference_data_chunk(
            s, values, dgn=3, consistent=1, timestamp=0.0)

    def test_float_value_in_int_metric_truncates_like_seed(self, arena):
        s = MetricSet.create("n/f", "f", [("m", MetricType.U64, 0)], arena)
        s.set_all([3.9], timestamp=0.0)
        assert s.get("m") == 3  # int() truncation, as clamp() always did

    def test_set_value_matches_set_values(self, arena):
        metrics = [(f"m{i}", MetricType.U64, 0) for i in range(8)]
        a = MetricSet.create("n/a", "x", metrics, arena)
        b = MetricSet.create("n/b", "x", metrics, arena)
        values = list(range(100, 108))
        a.set_all(values, timestamp=1.0)
        b.begin_transaction()
        for i, v in enumerate(values):
            b.set_value(i, v)
        b.end_transaction(1.0)
        # Same data bytes except the set-name-independent chunk is all
        # there is: DGN, flag, ts, values all match.
        assert a.data_bytes() == b.data_bytes()

    @given(st.lists(st.integers(min_value=-(2**70), max_value=2**70),
                    min_size=1, max_size=30))
    def test_any_u64_row_matches_reference(self, values):
        arena = Arena(1 << 20)
        s = MetricSet.create(
            "n/h", "h",
            [(f"m{i}", MetricType.U64, 0) for i in range(len(values))], arena)
        s.set_all(values, timestamp=4.0)
        assert s.data_bytes() == reference_data_chunk(
            s, values, dgn=len(values), consistent=1, timestamp=4.0)


class TestGenerationSemantics:
    def test_dgn_shadow_tracks_buffer(self, arena):
        s = MetricSet.create("n/g", "g",
                             [("a", MetricType.U64, 0),
                              ("b", MetricType.U64, 0)], arena)
        s.set_all([1, 2], timestamp=1.0)
        assert s.dgn == 2
        s.begin_transaction()
        s.set_value("a", 5)
        s.end_transaction(2.0)
        assert s.dgn == 3
        # Buffer and shadow agree.
        assert struct.unpack_from("<Q", s.data_bytes(), 4)[0] == 3

    def test_torn_read_semantics_survive_bulk_path(self, arena):
        s = MetricSet.create("n/t", "t",
                             [("a", MetricType.U64, 0),
                              ("b", MetricType.U64, 0)], arena)
        s.set_all([1, 2], timestamp=1.0)
        s.begin_transaction()
        s.set_values([8, 9])
        torn = s.data_bytes()  # mid-transaction raw read via the bulk path
        s.end_transaction(2.0)
        mirror = MetricSet.from_meta(s.meta_bytes(), Arena(1 << 20))
        if sanitize.mode() == "raise":
            # Under REPRO_SANITIZE the torn install itself is flagged.
            with pytest.raises(sanitize.SanitizerError):
                mirror.apply_data(torn)
        else:
            mirror.apply_data(torn)
            assert not mirror.is_consistent  # consumer must discard
        mirror.apply_data(s.data_bytes())
        assert mirror.is_consistent
        assert mirror.values() == [8, 9]

    def test_mirror_set_value_after_apply_continues_dgn(self, arena):
        s = MetricSet.create("n/m", "m", [("a", MetricType.U64, 0)], arena)
        s.set_all([1], timestamp=1.0)
        mirror = MetricSet.from_meta(s.meta_bytes(), Arena(1 << 20))
        mirror.apply_data(s.data_bytes())
        mirror.begin_transaction()
        mirror.set_value("a", 2)  # shadow must have synced to 1
        mirror.end_transaction(2.0)
        assert mirror.dgn == 2


class TestPeekAndMirrorDecode:
    def test_peek_matches_install(self, arena):
        s = MetricSet.create("n/p", "p", [("a", MetricType.U64, 0)], arena)
        s.set_all([42], timestamp=1.0)
        mirror = MetricSet.from_meta(s.meta_bytes(), Arena(1 << 20))
        raw = s.data_bytes()
        dgn, consistent = mirror.peek_data_header(raw)
        assert (dgn, consistent) == (1, True)
        mirror.apply_data(raw)
        assert mirror.dgn == 1 and mirror.is_consistent

    def test_peek_rejects_wrong_size(self, arena):
        mirror = MetricSet.from_meta(
            MetricSet.create("n/p", "p", [("a", MetricType.U64, 0)],
                             arena).meta_bytes(), Arena(1 << 20))
        with pytest.raises(ValueError):
            mirror.peek_data_header(b"tiny")

    def test_peek_rejects_mgn_mismatch(self, arena):
        s = MetricSet.create("n/p", "p", [("a", MetricType.U64, 0)], arena)
        s2 = MetricSet.create("n/q", "p", [("a", MetricType.U64, 0)], arena,
                              mgn=2)
        s2.set_all([1], timestamp=1.0)
        mirror = MetricSet.from_meta(s.meta_bytes(), Arena(1 << 20))
        with pytest.raises(SchemaMismatch):
            mirror.peek_data_header(s2.data_bytes())

    def test_skip_early_out_never_drops_a_changed_sample(self, arena):
        """Drive the exact aggregator decision sequence (peek -> skip or
        install) against a producer that only sometimes samples: every
        DGN advance is stored exactly once, every stale/torn fetch is
        skipped without a copy."""
        s = MetricSet.create(
            "n/e", "e",
            [("a", MetricType.U64, 0), ("b", MetricType.U64, 0)], arena)
        mirror = MetricSet.from_meta(s.meta_bytes(), Arena(1 << 20))
        last_dgn = None
        stored = []
        changes = 0
        for k in range(60):
            if k % 3 == 0:  # producer samples on some ticks only
                s.set_all([k, 2 * k], timestamp=float(k))
                changes += 1
            raw = s.data_bytes()
            dgn, consistent = mirror.peek_data_header(raw)
            if not consistent:
                continue
            if last_dgn is not None and dgn == last_dgn:
                continue  # the early-out: no apply_data, no copy
            mirror.apply_data(raw)
            last_dgn = dgn
            stored.append(mirror.values())
        assert len(stored) == changes
        assert stored[-1] == [57, 114]

    @pytest.mark.parametrize("mtype", ALL_TYPES, ids=lambda t: t.name)
    def test_from_meta_mirror_decodes_identically(self, arena, mtype):
        s = MetricSet.create("n/d", "d",
                             [("x", mtype, 3), ("y", mtype, 3)], arena)
        v = SAMPLE_VALUES[mtype]
        s.set_all([v, v], timestamp=9.0)
        mirror = MetricSet.from_meta(s.meta_bytes(), Arena(1 << 20))
        mirror.apply_data(s.data_bytes())
        assert mirror.values() == s.values()
        assert mirror.values_tuple() == s.values_tuple()
        assert mirror.snapshot_values(s.data_bytes()) == s.values_tuple()
        assert mirror.as_dict() == s.as_dict()
        assert mirror.dgn == s.dgn
        assert mirror.timestamp == s.timestamp

    def test_unordered_foreign_layout_falls_back(self):
        """A mirror built from metadata whose descriptors are not in
        offset order cannot use the whole-row Struct but must still
        read/write correctly via the per-metric path."""
        from repro.core.metric_set import (
            _DATA_HDR_SIZE, _META_HDR_FMT, _META_HDR_SIZE,
        )

        descs = [(b"hi", 0, int(MetricType.U64), _DATA_HDR_SIZE + 8),
                 (b"lo", 0, int(MetricType.U64), _DATA_HDR_SIZE)]
        meta_size = _META_HDR_SIZE + len(descs) * MetricDesc.WIRE_SIZE
        meta = struct.pack(_META_HDR_FMT, b"LDMS", meta_size,
                           _DATA_HDR_SIZE + 16, len(descs), 1, b"n/w", b"w")
        meta += b"".join(struct.pack(MetricDesc.WIRE_FMT, *d) for d in descs)
        s = MetricSet.from_meta(meta, Arena(1 << 20))
        assert s._compiled.row_struct is None
        s.set_all([111, 222], timestamp=0.0)
        assert s.values() == [111, 222]
        assert s.get("hi") == 111 and s.get("lo") == 222
        assert s.dgn == 2


class TestAggregatorEarlyOut:
    """Acceptance: when the DGN has not advanced, no StoreRecord is
    emitted and no data copy occurs (_install is never called)."""

    def _world(self):
        eng = Engine()
        env = SimEnv(eng)
        fabric = SimFabric(eng)
        samp = Ldmsd("s0", env=env,
                     transports={"rdma": SimTransport(fabric, "rdma",
                                                      node_id="s0")})
        self.plugin = samp.load_sampler("synthetic", instance="s0/syn",
                                        component_id=1, num_metrics=4)
        # Slow sampler (2 s) vs fast puller (0.25 s): most pulls are stale.
        samp.start_sampler("s0/syn", interval=2.0)
        samp.listen("rdma", "s0:411")
        agg = Ldmsd("agg", env=env,
                    transports={"rdma": SimTransport(fabric, "rdma",
                                                     node_id="agg")})
        return eng, samp, agg

    def test_stale_pulls_skip_copy_and_store(self, monkeypatch):
        eng, samp, agg = self._world()
        store = agg.add_store("memory")
        installs = []
        orig = MetricSet._install

        def counting_install(self, raw, dgn, consistent):
            installs.append(self.name)
            return orig(self, raw, dgn, consistent)

        monkeypatch.setattr(MetricSet, "_install", counting_install)
        agg.add_producer("s0", "rdma", "s0:411", interval=0.25,
                         sets=("s0/syn",))
        eng.run(until=20.0)
        st = agg.producers["s0"].stats
        assert st.skipped_stale > 0
        assert st.stored > 0
        # No copy on stale fetches: installs == stored, not completed.
        agg_installs = [n for n in installs if n == "s0/syn"]
        assert len(agg_installs) == st.stored
        assert st.updates_completed > st.stored
        # And exactly the stored records reached the store.
        assert len(store.rows) == st.stored

    def test_no_changed_sample_dropped_end_to_end(self):
        eng, samp, agg = self._world()
        store = agg.add_store("memory")
        agg.add_producer("s0", "rdma", "s0:411", interval=0.25,
                         sets=("s0/syn",))
        eng.run(until=20.0)
        st = agg.producers["s0"].stats
        # Every sample the producer took while we were connected must be
        # collected (puller is 8x faster); allow edge-of-window slack.
        assert st.stored >= self.plugin.samples_taken - 2
        dgns = [r.timestamp for r in store.rows]
        assert len(set(dgns)) == len(dgns)  # all distinct collections

    @pytest.mark.parametrize("xprt", ["des", "sock"])
    def test_staged_rows_pin_the_delivered_bytes(self, monkeypatch, xprt):
        # A delivery stages the read's bytes and decodes them at the
        # flush drain: the mirror changing in between must not change
        # the row, in the DES and on real sockets alike.
        delivered = []
        staged_types = set()
        deliver = Ldmsd._deliver_to_stores

        def deliver_then_clobber(daemon, producer, mirror, span, ts, data):
            staged_types.add(type(data))
            delivered.append(mirror.values_tuple())
            deliver(daemon, producer, mirror, span, ts, data)
            off = mirror._compiled.first_offset
            mirror._data[off:] = bytes(len(mirror._data) - off)
            if mirror._shadow is not None:
                sanitize.commit(mirror)

        monkeypatch.setattr(Ldmsd, "_deliver_to_stores", deliver_then_clobber)
        if xprt == "des":
            eng, samp, agg = self._world()
            store = agg.add_store("memory")
            agg.add_producer("s0", "rdma", "s0:411", interval=0.25,
                             sets=("s0/syn",))
            eng.run(until=10.0)
            mirror = agg.producers["s0"].updaters["s0/syn"].mirror
            assert mirror._ab is not None
        else:
            samp, agg = Ldmsd("s0"), Ldmsd("agg")
            try:
                samp.load_sampler("synthetic", instance="s0/syn",
                                  component_id=1, num_metrics=4)
                samp.start_sampler("s0/syn", interval=0.05)
                port = samp.listen("sock", ("127.0.0.1", 0)).port
                store = agg.add_store("memory")
                agg.add_producer("s0", "sock", ("127.0.0.1", port),
                                 interval=0.05)
                assert _wait_for(lambda: len(store.rows) >= 5)
                agg.remove_producer("s0")
                assert _wait_for(lambda: len(store.rows) == len(delivered))
            finally:
                agg.shutdown()
                samp.shutdown()
        assert staged_types == {bytes}
        assert any(any(v) for v in delivered)
        assert [r.values for r in store.rows] == delivered


class TestCsvFormatterCompilation:
    def test_compiled_rows_match_seed_formatting(self, tmp_path, arena):
        from repro.plugins.stores.csv_store import CsvStore

        s = MetricSet.create("n0/mix", "mix",
                             [("i", MetricType.U64, 1),
                              ("f", MetricType.F64, 1),
                              ("g", MetricType.F32, 1)], arena)
        s.set_all([123456789, 0.123456789, 2.5], timestamp=3.0)
        rec = StoreRecord.from_set(s, "n0")
        assert rec.mtypes == (MetricType.U64, MetricType.F64, MetricType.F32)
        store = CsvStore()
        store.config(path=str(tmp_path), buffer_lines=1)
        store.submit(rec)
        store.close()
        lines = (tmp_path / "mix.csv").read_text().splitlines()
        assert lines[0] == "Time,Producer,CompId,i,f,g"
        # Seed formatting: ints via str(), floats via %.6g.
        assert lines[1] == "3.000000,n0,1,123456789,0.123457,2.5"

    def test_records_without_mtypes_still_format(self, tmp_path):
        from repro.plugins.stores.csv_store import CsvStore

        store = CsvStore()
        store.config(path=str(tmp_path), buffer_lines=1)
        store.submit(StoreRecord(1.0, "n0", "n0/m", "m", ("a", "b"),
                                 (1, 1), (10, 2.25)))
        store.close()
        assert "10,2.25" in (tmp_path / "m.csv").read_text()

    def test_filtered_projects_mtypes(self, arena):
        s = MetricSet.create("n0/p", "p",
                             [("a", MetricType.U64, 1),
                              ("b", MetricType.F64, 1)], arena)
        s.set_all([1, 2.0], timestamp=0.0)
        rec = StoreRecord.from_set(s, "n0").filtered(["b"])
        assert rec.mtypes == (MetricType.F64,)
        assert rec.values == (2.0,)


class TestFrameDecoderCursor:
    def test_large_stream_random_chunking(self):
        import random

        from repro.core import wire

        rng = random.Random(7)
        frames_in = [(i % 9, i, bytes(rng.randrange(256)
                                      for _ in range(rng.randrange(0, 300))))
                     for i in range(200)]
        raw = b"".join(wire.encode_frame(m, r, p) for m, r, p in frames_in)
        dec = wire.FrameDecoder()
        out = []
        pos = 0
        while pos < len(raw):
            n = rng.randrange(1, 4096)
            out.extend(dec.feed(raw[pos:pos + n]))
            pos += n
        assert [(f.msg_type, f.request_id, f.payload) for f in out] == frames_in

    def test_buffer_fully_drains(self):
        from repro.core import wire

        dec = wire.FrameDecoder()
        for k in range(50):
            frames = dec.feed(wire.encode_frame(1, k, b"x" * 256))
            assert len(frames) == 1
        assert len(dec._buf) == 0 and dec._pos == 0
