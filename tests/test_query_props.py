"""Property tests for the query read path (ROADMAP item 4).

Three oracles, all deterministic (``derandomize=True``):

* the per-field ``QUERY_REPLY`` codec this tree shipped before the
  encode-once row Struct — kept here, as the byte-level reference and
  as the eager row decoder ``wire.RowBlock`` is model-checked against;
* the codec's own grammar: no strict prefix of a reply is a reply, and
  a count field cannot make the decoder allocate ahead of the bytes;
* a fresh :class:`SosReader` scan of the container files — what the
  sorted hot window must agree with for every query it claims.
"""

import random
import struct
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.plugins  # noqa: F401
from repro.core import wire
from repro.core.store import StoreRecord
from repro.plugins.stores.sos import SosReader, SosStore
from repro.query.engine import QueryEngine
from repro.util.errors import ReproError

SETTINGS = dict(derandomize=True, deadline=None)
SPECIALS = (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e308,
            5e-324)


# -- the reference codec (the implementation before the row Struct) ---------
def ref_pack_query_reply(status, names=(), rows=(), flags=0):
    out = [struct.pack("<iBI", status, flags, len(names))]
    for name in names:
        b = name.encode("utf-8")
        out.append(struct.pack("<H", len(b)))
        out.append(b)
    out.append(struct.pack("<I", len(rows)))
    for ts, comp_id, values in rows:
        out.append(struct.pack("<dI", ts, comp_id))
        out.append(struct.pack(f"<{len(names)}d", *values))
    return b"".join(out)


def ref_unpack_query_reply(payload):
    status, flags, ncols = struct.unpack_from("<iBI", payload, 0)
    pos = 9
    names = []
    for _ in range(ncols):
        (n,) = struct.unpack_from("<H", payload, pos)
        pos += 2
        names.append(payload[pos : pos + n].decode("utf-8"))
        pos += n
    (nrows,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    rows = []
    for _ in range(nrows):
        ts, comp_id = struct.unpack_from("<dI", payload, pos)
        pos += 12
        values = struct.unpack_from(f"<{ncols}d", payload, pos)
        pos += 8 * ncols
        rows.append((ts, comp_id, values))
    return status, flags, tuple(names), rows


def make_rows(seed, ncols, nrows):
    rng = random.Random(seed)

    def value():
        if rng.random() < 0.25:
            return rng.choice(SPECIALS)
        return rng.uniform(-1e9, 1e9)

    return [(value(), rng.randrange(2**32),
             tuple(value() for _ in range(ncols))) for _ in range(nrows)]


class TestReplyCodecAgainstReference:
    @settings(max_examples=60, **SETTINGS)
    @given(seed=st.integers(0, 2**32), ncols=st.integers(0, 32),
           nrows=st.one_of(st.integers(0, 40), st.integers(0, 2000)),
           status=st.integers(-2**31, 2**31 - 1), flags=st.integers(0, 255),
           names=st.data())
    def test_bytes_equal_reference_and_roundtrip(self, seed, ncols, nrows,
                                                 status, flags, names):
        names = tuple(names.draw(st.lists(
            st.text(max_size=12), min_size=ncols, max_size=ncols)))
        rows = make_rows(seed, ncols, nrows)
        want = ref_pack_query_reply(status, names, rows, flags)
        assert wire.pack_query_reply(status, names, rows, flags) == want
        *head, block = wire.unpack_query_reply(want)
        *ref_head, ref_rows = ref_unpack_query_reply(want)
        assert tuple(head) == tuple(ref_head) == (status, flags, names)
        # repr, not ==: NaN is not equal to itself, -0.0 is equal to 0.0.
        assert repr(list(block)) == repr(ref_rows) == repr(rows)
        # A decoded block (what the engine serves) re-packs to the reply.
        assert wire.pack_query_reply(status, names, block, flags) == want

    @settings(max_examples=80, **SETTINGS)
    @given(seed=st.integers(0, 2**32), ncols=st.integers(0, 16),
           nrows=st.integers(0, 40), picks=st.data())
    def test_block_is_the_eager_decode_of_its_bytes(self, seed, ncols,
                                                    nrows, picks):
        names = tuple(f"m{i}" for i in range(ncols))
        payload = ref_pack_query_reply(wire.E_OK, names,
                                       make_rows(seed, ncols, nrows))
        block = wire.unpack_query_reply(payload)[3]
        ref = ref_unpack_query_reply(payload)[3]
        assert isinstance(block, wire.RowBlock)
        assert len(block) == len(ref) == nrows
        assert bool(block) == bool(ref)
        assert repr(list(block)) == repr(ref)
        assert repr(block.comp_ids()) == repr([r[1] for r in ref])
        for c in range(ncols):
            assert repr(block.column(c)) == repr([r[2][c] for r in ref])
        for i in picks.draw(st.lists(st.integers(-nrows - 2, nrows + 1),
                                     max_size=6)):
            if -nrows <= i < nrows:
                assert repr(block[i]) == repr(ref[i])
            else:
                with pytest.raises(IndexError):
                    block[i]
        if nrows:
            assert repr(block[-1]) == repr(ref[-1])
        bound = st.one_of(st.none(), st.integers(-nrows - 2, nrows + 2))
        step = st.sampled_from((None, 1, 2, 3, -1, -2))
        for _ in range(4):
            sl = slice(picks.draw(bound), picks.draw(bound), picks.draw(step))
            part = block[sl]
            assert isinstance(part, wire.RowBlock)
            assert repr(list(part)) == repr(ref[sl])
            assert wire.pack_query_reply(0, names, part) == (
                ref_pack_query_reply(0, names, ref[sl]))
        keep = picks.draw(st.lists(st.integers(0, max(nrows - 1, 0)),
                                   max_size=5)) if nrows else []
        assert repr(list(block.take(keep))) == repr([ref[i] for i in keep])
        # == is row-tuple equality against any sequence (so NaN rows
        # differ from themselves, exactly as in a list of tuples).
        finite = [(float(i), i, (1.5,) * ncols) for i in range(nrows)]
        fblock = wire.unpack_query_reply(
            ref_pack_query_reply(0, names, finite))[3]
        assert fblock == finite and fblock == tuple(finite)
        assert fblock == wire.RowBlock.of(ncols, fblock.raw)
        assert fblock != finite + [(0.0, 0, (0.0,) * ncols)]
        if nrows:
            assert fblock != finite[:-1] and fblock != finite[::-1]

    def test_of_rejects_a_partial_row(self):
        size = wire.query_row_struct(2).size
        assert len(wire.RowBlock.of(2, bytes(3 * size))) == 3
        with pytest.raises(ReproError):
            wire.RowBlock.of(2, bytes(3 * size - 1))


class TestReplyDecoderRejectsMalformed:
    @settings(max_examples=40, **SETTINGS)
    @given(seed=st.integers(0, 2**32), ncols=st.integers(0, 4),
           nrows=st.integers(0, 5))
    def test_every_strict_prefix_raises(self, seed, ncols, nrows):
        names = tuple(f"m{i}" * (i + 1) for i in range(ncols))
        payload = wire.pack_query_reply(
            wire.E_OK, names, make_rows(seed, ncols, nrows))
        wire.unpack_query_reply(payload)
        for cut in range(len(payload)):
            with pytest.raises(ReproError):
                wire.unpack_query_reply(payload[:cut])

    @settings(max_examples=40, **SETTINGS)
    @given(ncols=st.integers(0, 2**32 - 1), nrows=st.integers(1, 2**32 - 1),
           tail=st.binary(max_size=64))
    def test_hostile_counts_raise_without_allocating(self, ncols, nrows,
                                                     tail):
        # Claimed counts the payload cannot hold: ncols names need at
        # least 2 bytes each, nrows rows at least 12.
        hostile_cols = struct.pack("<iBI", 0, 0, max(ncols, 40)) + tail
        hostile_rows = (struct.pack("<iBI", 0, 0, 0)
                        + struct.pack("<I", max(nrows, 8)) + tail)
        tracemalloc.start()
        try:
            for payload in (hostile_cols, hostile_rows):
                with pytest.raises(ReproError):
                    wire.unpack_query_reply(payload)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    @settings(max_examples=300, **SETTINGS)
    @given(payload=st.one_of(
        st.binary(max_size=96),
        st.builds(lambda ncols, body: struct.pack("<iBI", 0, 0, ncols) + body,
                  st.integers(0, 3), st.binary(max_size=96))))
    def test_a_payload_is_rejected_up_front_or_never(self, payload):
        # Validation is not deferred: whatever unpack_query_reply
        # returns, every way of reading the block works and agrees with
        # the eager reference.  (Bad UTF-8, short rows and the like
        # raise here, from the call itself.)
        try:
            _status, _flags, names, block = wire.unpack_query_reply(payload)
        except ReproError:
            return
        ref = ref_unpack_query_reply(payload)[3]
        assert repr(list(block)) == repr(ref)
        assert len(block) == len(ref)
        assert block.comp_ids() == [r[1] for r in ref]
        for c in range(len(names)):
            assert repr(block.column(c)) == repr([r[2][c] for r in ref])
        assert repr([block[i] for i in range(len(block))]) == repr(ref)

    def test_bad_utf8_in_a_column_name_raises_from_unpack(self):
        good = wire.pack_query_reply(wire.E_OK, ("ab",), [(1.0, 1, (2.0,))])
        bad = good.replace(b"ab", b"\xff\xfe")
        assert len(bad) == len(good)
        with pytest.raises(ReproError):
            wire.unpack_query_reply(bad)


# -- differential: sorted hot window vs container scan ------------------------
NAMES = ("a", "b")

appends = st.lists(
    st.tuples(st.integers(0, 3),    # clock advance before this append
              st.integers(0, 12),   # how far behind the clock it is stamped
              st.integers(1, 3)),   # component
    min_size=1, max_size=60)
queries = st.lists(
    st.tuples(st.integers(-2, 50), st.integers(0, 20), st.integers(0, 3),
              st.sampled_from((0, 0, 1, 3, 7))),
    min_size=1, max_size=8)


def scan_answer(path, t0, t1, comp_id, max_records):
    rows = [(r.timestamp, r.component_id, r.values)
            for r in SosReader(path, "mem").range(t0, t1)
            if not comp_id or r.component_id == comp_id]
    truncated = bool(max_records) and len(rows) > max_records
    return rows[:max_records] if truncated else rows, truncated


class TestHotWindowAgainstScan:
    @settings(max_examples=120, **SETTINGS)
    @given(appends=appends, queries=queries,
           hot_window=st.sampled_from((2.0, 5.0, 10.0)))
    def test_hot_answers_equal_scan_answers(self, appends, queries,
                                            hot_window):
        with tempfile.TemporaryDirectory() as path:
            store = SosStore()
            store.config(path=path)
            eng = QueryEngine(store, lambda: 0.0, hot_window=hot_window)
            clock = 0
            hot_seen = 0
            for k, (advance, lag, comp) in enumerate(appends):
                clock += advance
                store.submit(StoreRecord(
                    float(clock - lag), "n0", "n0/mem", "mem", NAMES,
                    (comp, comp), (float(k), float(-k))))
                if k % 7 and k != len(appends) - 1:
                    continue
                # Query as the stream goes, and always at the exact
                # floor: the oldest instant the window claims to cover.
                floor = eng._hot["mem"].floor
                asks = [(t0, t0 + span, comp_id, max_records)
                        for t0, span, comp_id, max_records in queries]
                if floor > float("-inf"):
                    asks.append((floor, floor + 100.0, 0, 0))
                store.flush()
                for t0, t1, comp_id, max_records in asks:
                    res = eng.query("mem", float(t0), float(t1),
                                    comp_id=comp_id, max_records=max_records)
                    rows, truncated = scan_answer(
                        path, float(t0), float(t1), comp_id, max_records)
                    assert isinstance(res.rows, wire.RowBlock)
                    assert res.rows == rows
                    assert res.truncated == truncated
                    # Whatever path answered, the bytes served are the
                    # reference pack of the scan's rows.
                    assert (wire.pack_query_reply(
                        res.status, res.names, res.rows, res.flags())
                        == ref_pack_query_reply(
                            wire.E_OK, NAMES, rows, res.flags()))
                    if res.source != "hot":
                        continue
                    hot_seen += 1
                    assert res.rows.raw == eng._scan(
                        "mem", float(t0), float(t1), comp_id,
                        max_records).rows.raw
                # The window itself: sorted times beside one buffer of
                # whole rows carrying exactly those timestamps.
                hot = eng._hot["mem"]
                assert hot.times == sorted(hot.times)
                assert [r[0] for r in wire.RowBlock.of(
                    len(NAMES), bytes(hot.buf))] == hot.times
            assert hot_seen  # the floor query alone guarantees one
            store.close()
