"""The metadata chunk is stamped on LOOKUP, not held per set.

A set keeps its metadata reservation in the daemon's ``-m`` arena but
never commits it; ``meta_bytes()`` stamps the chunk from its layout's
one template.  These tests hold that stamp to the chunk the set was
built from: every chunk ``from_meta`` accepts comes back byte-identical,
every chunk it refuses leaves the arena and the set pool as they were,
and a chunk relayed sampler -> L1 -> L2 arrives unchanged.
"""

import struct

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.plugins  # noqa: F401  (registers plugins)
from repro.core import Ldmsd, SimEnv, metric_set
from repro.core.memory import Arena
from repro.core.metric import METRIC_NAME_LEN, MetricDesc, MetricType
from repro.core.metric_set import (
    _DATA_HDR_SIZE, _META_HDR_FMT, _META_HDR_SIZE, SET_NAME_LEN, MetricSet,
)
from repro.core.set_arena import SetArenaPool
from repro.sim.engine import Engine
from repro.transport import SimFabric, SimTransport
from repro.util.errors import OutOfMemory

U64 = MetricType.U64
TAGS = [int(t) for t in MetricType]


def chunk(name: bytes, schema: bytes, descs, data_size: int, mgn: int = 1,
          trailing: bytes = b"") -> bytes:
    """A metadata chunk whose header ``meta_size`` is its own length."""
    body = b"".join(struct.pack(MetricDesc.WIRE_FMT, *d) for d in descs)
    size = _META_HDR_SIZE + len(body) + len(trailing)
    return struct.pack(_META_HDR_FMT, b"LDMS", size, data_size, len(descs),
                       mgn, name, schema) + body + trailing


def footprint(arena, pool):
    return arena.used, len(arena._live), arena.committed, pool.stats()


def three_metric_chunk(trailing: bytes = b"") -> bytes:
    descs = [(f"m{i}".encode(), 1, int(U64), _DATA_HDR_SIZE + 8 * i)
             for i in range(3)]
    return chunk(b"n0/syn", b"syn", descs, _DATA_HDR_SIZE + 24,
                 trailing=trailing)


def padded(meta: bytes, extra: int = 16) -> bytes:
    """``meta`` with ``extra`` trailing bytes the header agrees with."""
    size = struct.unpack_from("<I", meta, 4)[0] + extra
    return meta[:4] + struct.pack("<I", size) + meta[8:] + bytes(extra)


# ---------------------------------------------------------------------------
# bugfix: a chunk that ends past its descriptor block is refused up front
# ---------------------------------------------------------------------------


class TestTrailingBytesLeakNothing:
    def test_from_meta_refuses_before_allocating(self):
        arena, pool = Arena(1 << 16), SetArenaPool()
        before = footprint(arena, pool)
        for _ in range(3):
            with pytest.raises(ValueError, match="descriptor block"):
                MetricSet.from_meta(three_metric_chunk(bytes(16)), arena,
                                    pool=pool)
            assert footprint(arena, pool) == before
        # The same chunk without its tail is a good mirror.
        MetricSet.from_meta(three_metric_chunk(), arena, pool=pool)

    def test_peer_answering_every_lookup_so_drains_nothing(self, monkeypatch):
        stamp = MetricSet.meta_bytes
        monkeypatch.setattr(MetricSet, "meta_bytes",
                            lambda self: padded(stamp(self)))
        eng = Engine()
        env = SimEnv(eng)
        fabric = SimFabric(eng)
        node = Ldmsd("n0", env=env, transports={
            "sock": SimTransport(fabric, "sock", node_id="n0")})
        node.load_sampler("synthetic", instance="n0/syn", component_id=1,
                          num_metrics=3)
        node.start_sampler("n0/syn", interval=1.0)
        node.listen("sock", "n0:411")
        agg = Ldmsd("agg", env=env, transports={
            "sock": SimTransport(fabric, "sock", node_id="agg")})
        store = agg.add_store("memory")
        prod = agg.add_producer("n0", "sock", "n0:411", interval=1.0,
                                sets=("n0/syn",))
        pool = agg.set_pool.stats()  # per environment: has the sampler row
        eng.run(until=30.0)
        served = node.stats()["obs"]["counters"]["serve.lookup_req"]
        counters = agg.stats()["obs"]["counters"]
        assert served >= 5  # the lookup was retried after each timeout
        assert counters["wire.malformed_frames"] == served
        assert agg.arena.used == len(agg.arena._live) == 0
        assert agg.set_pool.stats() == pool
        assert prod.updaters["n0/syn"].mirror is None
        assert not store.rows


# ---------------------------------------------------------------------------
# round-trip oracle
# ---------------------------------------------------------------------------


def _name_bytes(max_len: int):
    """Set/schema name fields: UTF-8 (inner NULs allowed), sometimes the
    full field width with no NUL at all, sometimes not UTF-8."""
    return st.one_of(
        st.text(alphabet="ab/\x00µ", max_size=12).map(str.encode),
        st.sampled_from([b"n" * (max_len - 1), b"n" * max_len,
                         b"a\x00b", b"\xff\xfe"]),
    )


@st.composite
def _descs(draw):
    """Well-formed descriptor blocks (unique names, known tags, offsets in
    the chunk, any component ids) half the time, hostile ones otherwise."""
    n = draw(st.integers(0, 6))
    comp = st.integers(0, 2**64 - 1)
    if draw(st.booleans()):
        wire_name = st.sampled_from([b"m%d", b"x\x00%d", b"%d" + b"n" * 60])
        tag = st.sampled_from(TAGS)
        off = st.integers(_DATA_HDR_SIZE, _DATA_HDR_SIZE + 56)
        return [(draw(wire_name) % i, draw(comp), draw(tag), draw(off))
                for i in range(n)]
    wire_name = st.one_of(
        st.sampled_from([b"a", b"b", b"c", b"d", b"e", b"f"]),
        st.binary(min_size=0, max_size=METRIC_NAME_LEN),
        st.sampled_from([b"x\x00y", b"m" * METRIC_NAME_LEN]),
    )
    tag = st.one_of(st.sampled_from(TAGS), st.integers(0, 255))
    off = st.integers(0, _DATA_HDR_SIZE + 64)
    return [(draw(wire_name), draw(comp), draw(tag), draw(off))
            for _ in range(n)]


@st.composite
def _chunks(draw):
    return chunk(
        draw(_name_bytes(SET_NAME_LEN), label="set name"),
        draw(_name_bytes(64), label="schema"),
        draw(_descs(), label="descriptors"),
        draw(st.integers(0, _DATA_HDR_SIZE + 80), label="data size"),
        mgn=draw(st.integers(0, 2**32 - 1), label="mgn"),
        trailing=draw(st.sampled_from([b"", b"", b"", bytes(16)]),
                      label="trailing"),
    )


def _mixed_set_chunk() -> bytes:
    """Every type once, naturally aligned, one component id per metric."""
    descs, off = [], _DATA_HDR_SIZE
    for i, t in enumerate(MetricType):
        off = (off + t.size - 1) & ~(t.size - 1)
        descs.append((b"m%d" % i, 7 + i, int(t), off))
        off += t.size
    return chunk(b"n" * (SET_NAME_LEN - 1), b"mixed", descs, off, mgn=3)


#: The foreign layout of test_fastpath's test_unordered_foreign_layout_falls_back.
UNORDERED = chunk(b"n/w", b"w",
                  [(b"hi", 0, int(U64), _DATA_HDR_SIZE + 8),
                   (b"lo", 0, int(U64), _DATA_HDR_SIZE)],
                  _DATA_HDR_SIZE + 16)


class TestRoundTripOracle:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(meta=_chunks())
    @example(meta=UNORDERED)
    @example(meta=_mixed_set_chunk())
    @example(meta=three_metric_chunk(bytes(16)))
    @example(meta=chunk(b"n" * SET_NAME_LEN, b"s",
                        [(b"a\x00b", 2**64 - 1, int(U64), _DATA_HDR_SIZE)],
                        _DATA_HDR_SIZE + 8))
    @example(meta=chunk(b"a\x00b", b"s\x00t", [], _DATA_HDR_SIZE))
    @example(meta=chunk(b"n/m", b"s",
                        [(b"m" * METRIC_NAME_LEN, 5, int(U64), _DATA_HDR_SIZE)],
                        _DATA_HDR_SIZE + 8))
    def test_accepted_chunks_come_back_and_refused_ones_leak_nothing(
            self, meta):
        for pool in (None, SetArenaPool()):
            arena = Arena(1 << 16)
            rows = pool and pool.stats()
            try:
                mirror = MetricSet.from_meta(meta, arena, pool=pool)
            except (ValueError, OutOfMemory):
                assert arena.used == len(arena._live) == arena.committed == 0
                assert (pool and pool.stats()) == rows
                continue
            assert mirror.meta_bytes() == meta
            assert len(mirror.descs) == mirror.card
            # A mirror of the mirror stamps the same chunk again.
            again = MetricSet.from_meta(mirror.meta_bytes(), Arena(1 << 16))
            assert again.meta_bytes() == meta
            mirror.delete()
            assert arena.used == arena.committed == 0

    @pytest.mark.parametrize("meta", [
        pytest.param(UNORDERED, id="unordered-foreign"),
        pytest.param(_mixed_set_chunk(), id="mixed-types-127-byte-name"),
        pytest.param(chunk(b"n" * SET_NAME_LEN, b"s",
                           [(b"a", 5, int(U64), _DATA_HDR_SIZE)],
                           _DATA_HDR_SIZE + 8), id="128-byte-name"),
        pytest.param(chunk(b"a\x00b", b"s",
                           [(b"x\x00y", 5, int(U64), _DATA_HDR_SIZE)],
                           _DATA_HDR_SIZE + 8), id="inner-NULs"),
    ])
    def test_named_layouts_round_trip(self, meta):
        mirror = MetricSet.from_meta(meta, Arena(1 << 16),
                                     pool=SetArenaPool())
        assert mirror.meta_bytes() == meta

    @pytest.mark.parametrize("data_size", [0, 1, _DATA_HDR_SIZE - 1])
    def test_data_chunk_shorter_than_its_header_is_refused(self, data_size):
        arena, pool = Arena(1 << 16), SetArenaPool()
        before = footprint(arena, pool)
        with pytest.raises(ValueError):
            MetricSet.from_meta(chunk(b"n/x", b"x", [], data_size), arena,
                                pool=pool)
        assert footprint(arena, pool) == before


# ---------------------------------------------------------------------------
# relayed metadata and committed memory
# ---------------------------------------------------------------------------


def _chain():
    eng = Engine()
    env = SimEnv(eng)
    fabric = SimFabric(eng)

    def daemon(name):
        return Ldmsd(name, env=env, transports={
            "sock": SimTransport(fabric, "sock", node_id=name)})

    node = daemon("n0")
    node.load_sampler("synthetic", instance="n0/syn", component_id=41,
                      num_metrics=12)
    node.start_sampler("n0/syn", interval=1.0)
    node.listen("sock", "n0:411")
    l1 = daemon("l1")
    l1.add_producer("n0", "sock", "n0:411", interval=1.0)
    l1.listen("sock", "l1:411")
    l2 = daemon("l2")
    store = l2.add_store("memory")
    l2.add_producer("l1", "sock", "l1:411", interval=1.0)
    eng.run(until=8.0)
    return node, l1, l2, store


class TestRelayedMetadata:
    def test_l2_mirror_stamps_the_sampler_chunk(self):
        node, l1, l2, store = _chain()
        assert store.rows
        sampled = node.get_set("n0/syn").meta_bytes()
        assert l1.get_set("n0/syn").meta_bytes() == sampled
        assert l2.get_set("n0/syn").meta_bytes() == sampled

    def test_no_daemon_commits_a_metadata_chunk(self):
        # Under SimEnv the data chunk is a set-pool row, so with the
        # metadata stamped on LOOKUP no daemon commits any arena byte.
        for d in _chain()[:3]:
            st = d.stats()
            assert st["arena_used"] > 0
            assert st["arena_committed"] == 0


# ---------------------------------------------------------------------------
# a mirror of a known layout is stamped from its template, not decoded
# ---------------------------------------------------------------------------


def reference_decode(meta: bytes):
    """(names, types, offsets, component ids) read field by field."""
    card = struct.unpack_from("<I", meta, 12)[0]
    descs = list(struct.iter_unpack(
        MetricDesc.WIRE_FMT,
        meta[_META_HDR_SIZE:_META_HDR_SIZE + card * MetricDesc.WIRE_SIZE]))
    return ([d[0].rstrip(b"\x00").decode() for d in descs],
            [MetricType(d[2]) for d in descs],
            [d[3] for d in descs],
            [d[1] for d in descs])


def known_chunk(comp_ids=(7,) * 6, name=b"n0/syn") -> bytes:
    """A six-metric mixed-type layout, naturally aligned."""
    mtypes = [U64, MetricType.U8, MetricType.F64, MetricType.S32,
              MetricType.U16, U64]
    descs, off = [], _DATA_HDR_SIZE
    for i, (t, cid) in enumerate(zip(mtypes, comp_ids)):
        off = (off + t.size - 1) & ~(t.size - 1)
        descs.append((b"metric_%d" % i, cid, int(t), off))
        off += t.size
    return chunk(name, b"syn", descs, off)


KNOWN = known_chunk()
KNOWN_CARD = 6


def desc_at(i: int) -> int:
    return _META_HDR_SIZE + i * MetricDesc.WIRE_SIZE


def with_byte(meta: bytes, pos: int, value: int) -> bytes:
    return meta[:pos] + bytes([value]) + meta[pos + 1:]


@st.composite
def _near_misses(draw):
    """KNOWN with one descriptor field changed, or with ids that are not
    uniform: the same (schema, data size, card), another chunk."""
    i = draw(st.integers(0, KNOWN_CARD - 1), label="descriptor")
    kind = draw(st.sampled_from(["name", "padding", "tag", "offset", "ids"]))
    base = desc_at(i)
    if kind == "name":  # one byte of "metric_<i>"
        pos = base + draw(st.integers(0, 7))
        return with_byte(KNOWN, pos, draw(st.integers(0, 255).filter(
            lambda b: b != KNOWN[pos])))
    if kind == "padding":  # one NUL after the name
        pos = base + draw(st.integers(8, METRIC_NAME_LEN - 1))
        return with_byte(KNOWN, pos, draw(st.integers(1, 255)))
    if kind == "tag":
        pos = base + METRIC_NAME_LEN + 8
        return with_byte(KNOWN, pos, draw(st.integers(0, 255).filter(
            lambda b: b != KNOWN[pos])))
    if kind == "offset":
        pos = base + METRIC_NAME_LEN + 9
        old = struct.unpack_from("<I", KNOWN, pos)[0]
        new = draw(st.integers(0, _DATA_HDR_SIZE + 64).filter(
            lambda o: o != old))
        return KNOWN[:pos] + struct.pack("<I", new) + KNOWN[pos + 4:]
    ids = draw(st.lists(st.integers(0, 2**64 - 1), min_size=KNOWN_CARD,
                        max_size=KNOWN_CARD).filter(
                            lambda v: len(set(v)) > 1))
    return known_chunk(tuple(ids))


@pytest.fixture
def decodes(monkeypatch):
    """A fresh mirror-layout cache and a count of full decodes."""
    monkeypatch.setattr(metric_set, "_MIRROR_LAYOUTS", {})
    calls = []
    unpack = MetricDesc.unpack_columns.__func__

    def counting(cls, raw):
        calls.append(len(raw))
        return unpack(cls, raw)

    monkeypatch.setattr(MetricDesc, "unpack_columns", classmethod(counting))
    return calls


class TestStampedMirror:
    def test_known_layout_is_stamped_not_decoded(self, decodes):
        MetricSet.from_meta(KNOWN, Arena(1 << 16))
        assert len(decodes) == 1
        other = known_chunk((2**64 - 1,) * KNOWN_CARD, name=b"n9/syn")
        mirror = MetricSet.from_meta(other, Arena(1 << 16),
                                     pool=SetArenaPool())
        assert len(decodes) == 1
        assert mirror.meta_bytes() == other
        names, mtypes, offsets, ids = reference_decode(other)
        assert mirror.metric_names() == names
        assert [d.mtype for d in mirror.descs] == mtypes
        assert [d.data_offset for d in mirror.descs] == offsets
        assert list(mirror.component_ids()) == ids
        assert mirror.name == "n9/syn"

    def test_another_data_size_is_another_layout(self, decodes):
        known = MetricSet.from_meta(KNOWN, Arena(1 << 16))
        size = struct.unpack_from("<I", KNOWN, 8)[0]
        wider = KNOWN[:8] + struct.pack("<I", size + 8) + KNOWN[12:]
        mirror = MetricSet.from_meta(wider, Arena(1 << 16))
        assert len(decodes) == 2
        assert mirror._layout is not known._layout
        assert mirror.data_size == size + 8
        assert mirror.meta_bytes() == wider

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(meta=_near_misses())
    # The last padding byte set: a name that fills its field, no NUL.
    @example(meta=with_byte(KNOWN, desc_at(0) + METRIC_NAME_LEN - 1, 1))
    def test_a_near_miss_takes_the_full_decode(self, decodes, meta):
        MetricSet.from_meta(KNOWN, Arena(1 << 16))  # the cached candidate
        decodes.clear()
        arena, pool = Arena(1 << 16), SetArenaPool()
        before = footprint(arena, pool)
        try:
            mirror = MetricSet.from_meta(meta, arena, pool=pool)
        except ValueError:
            assert footprint(arena, pool) == before
        else:
            names, mtypes, offsets, ids = reference_decode(meta)
            assert mirror.metric_names() == names
            assert [d.mtype for d in mirror.descs] == mtypes
            assert [d.data_offset for d in mirror.descs] == offsets
            assert list(mirror.component_ids()) == ids
            assert mirror.meta_bytes() == meta
        assert len(decodes) == 1

    @pytest.mark.parametrize("meta", [
        pytest.param(KNOWN[:_META_HDR_SIZE - 1], id="truncated"),
        pytest.param(b"XXXX" + KNOWN[4:], id="bad-magic"),
        pytest.param(KNOWN + b"\0", id="size-mismatch"),
        pytest.param(KNOWN[:8] + struct.pack("<I", _DATA_HDR_SIZE - 1)
                     + KNOWN[12:], id="data-chunk-shorter-than-header"),
        pytest.param(KNOWN[:20 + SET_NAME_LEN] + b"..".ljust(64, b"\0")
                     + KNOWN[20 + SET_NAME_LEN + 64:], id="bad-schema-name"),
    ])
    def test_refusals_come_first_with_the_layout_cached(self, decodes, meta):
        MetricSet.from_meta(KNOWN, Arena(1 << 16))
        decodes.clear()
        arena, pool = Arena(1 << 16), SetArenaPool()
        before = footprint(arena, pool)
        with pytest.raises(ValueError):
            MetricSet.from_meta(meta, arena, pool=pool)
        assert footprint(arena, pool) == before
        assert decodes == []

    def test_64_producer_ramp_decodes_one_layout_once(self, decodes):
        eng = Engine()
        env = SimEnv(eng)
        fabric = SimFabric(eng)
        agg = Ldmsd("agg", env=env, transports={
            "sock": SimTransport(fabric, "sock", node_id="agg")},
            mem=64 * 8192)
        store = agg.add_store("memory")
        for i in range(64):
            node = Ldmsd(f"n{i}", env=env, transports={
                "sock": SimTransport(fabric, "sock", node_id=f"n{i}")})
            node.load_sampler("synthetic", instance=f"n{i}/syn",
                              component_id=i + 1, num_metrics=12)
            node.start_sampler(f"n{i}/syn", interval=1.0)
            node.listen("sock", f"n{i}:411")
            agg.add_producer(f"n{i}", "sock", f"n{i}:411", interval=1.0,
                             sets=(f"n{i}/syn",))
        eng.run(until=2.5)
        mirrors = [agg.get_set(f"n{i}/syn") for i in range(64)]
        assert len(decodes) == 1
        assert len({id(m._layout) for m in mirrors}) == 1
        assert [m.component_ids() for m in mirrors] == [
            (i + 1,) * 12 for i in range(64)]
        assert {r.producer for r in store.rows} == {f"n{i}" for i in range(64)}
