"""Property tests for the SOS read path: container to reply block.

The oracle (``derandomize=True``) is the read path this tree shipped
before records moved as blocks: the ``.sidx`` sorted ``(timestamp,
offset)``, every selected record read with its own seek, header unpack
and values unpack, then the ``comp_id`` filter and ``max_records`` cut
as a loop over the records, and each reply row packed on its own.
Values are compared by their bits (NaN payloads, -0.0), never by ``==``.
"""

import bisect
import random
import struct
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.plugins  # noqa: F401
from repro.core import wire
from repro.core.store import StoreRecord
from repro.plugins.stores.sos import SosReader, SosStore, rollup_schema
from repro.query.engine import QueryEngine, scan

SETTINGS = dict(derandomize=True, deadline=None)
NAN_PAYLOAD = struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\x7f")[0]
NEG_NAN = struct.unpack("<d", b"\x00\x00\x00\x00\x00\x00\xf8\xff")[0]
SPECIALS = (float("nan"), NAN_PAYLOAD, NEG_NAN, float("inf"), float("-inf"),
            -0.0, 0.0, 5e-324, 1.7976931348623157e308)


# -- the oracle: the per-record reader and per-row pack ----------------------
def ref_records(path, container, t0=float("-inf"), t1=float("inf")):
    with open(f"{path}/{container}.sidx", "rb") as f:
        entries = sorted(struct.iter_unpack("<dQ", f.read()))
    times = [t for t, _ in entries]
    lo, hi = bisect.bisect_left(times, t0), bisect.bisect_left(times, t1)
    out = []
    with open(f"{path}/{container}.sos", "rb") as f:
        for _, off in entries[lo:hi]:
            f.seek(off)
            ts, comp_id, card = struct.unpack("<dII", f.read(16))
            out.append((ts, comp_id,
                        struct.unpack(f"<{card}d", f.read(8 * card))))
    return out


def ref_scan(path, container, t0, t1, comp_id, max_records):
    rows = []
    for ts, comp, values in ref_records(path, container, t0, t1):
        if comp_id and comp != comp_id:
            continue
        if max_records and len(rows) >= max_records:
            return rows, True
        rows.append((ts, comp, values))
    return rows, False


def ref_pack(rows):
    """Reply rows (or records) as bytes: equal iff every field is
    bit-identical."""
    return b"".join(struct.pack("<dI", ts, comp)
                    + struct.pack(f"<{len(values)}d", *values)
                    for ts, comp, values in rows)


# -- generated containers -----------------------------------------------------
def fill(path, seed, width, sessions, rollups):
    """``sessions`` close/reopen sessions of ``(rows, stragglers)``: the
    first ``stragglers`` rows of a session are stamped well behind the
    stream, so sorted order is not append order."""
    rng = random.Random(seed)
    names = tuple(f"m{i}" for i in range(width))
    clock = 0.0
    for nrows, stragglers in sessions:
        store = SosStore()
        store.config(path=path, rollups=rollups)
        for k in range(nrows):
            clock += rng.choice((0.0, 0.5, 1.0, 3.0, 7.0))
            late = k < stragglers
            ts = clock - rng.uniform(5.0, 80.0) if late else clock
            comp = rng.randrange(1, 4) if width else 0
            values = tuple(rng.choice(SPECIALS) if rng.random() < 0.3
                           else rng.uniform(-1e9, 1e9) for _ in range(width))
            store.submit(StoreRecord(ts, "n0", "n0/w", "w", names,
                                     (comp,) * width, values))
        store.close()


windows = st.lists(
    st.tuples(st.floats(-20.0, 400.0), st.floats(-30.0, 200.0),
              st.sampled_from((0, 0, 1, 2, 3, 9)),
              st.sampled_from((0, 0, 1, 2, 5, 1000))),
    min_size=1, max_size=6)


class TestScanAgainstPerRecordReader:
    @settings(max_examples=60, **SETTINGS)
    @given(seed=st.integers(0, 2**32), width=st.integers(0, 64),
           sessions=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 4)),
                             min_size=1, max_size=3),
           rollups=st.sampled_from(("", "10", "10,60")), windows=windows)
    def test_blocks_records_and_columns_equal_the_oracle(
            self, seed, width, sessions, rollups, windows):
        row = wire.query_row_struct(width)
        assert wire.query_row_dtype(width).itemsize == row.size
        with tempfile.TemporaryDirectory() as path:
            fill(path, seed, width, sessions, rollups)
            if not sum(n for n, _ in sessions):
                return
            levels = [int(lv) for lv in rollups.split(",")] if rollups else []
            store = SosStore()
            store.config(path=path)
            engine = QueryEngine(store, lambda: 0.0)
            for level in [0] + levels:
                container = rollup_schema("w", level) if level else "w"
                reader = SosReader(path, container)
                assert ref_pack(reader) == ref_pack(ref_records(path, container))
                # an empty or inverted window is a span too
                for t0, span, comp_id, max_records in windows:
                    t1 = t0 + span
                    assert ref_pack(reader.range(t0, t1)) == ref_pack(
                        ref_records(path, container, t0, t1))
                    assert reader.skipped == 0
                    want, cut = ref_scan(path, container, t0, t1, comp_id,
                                         max_records)
                    block, truncated = scan(reader, t0, t1, comp_id,
                                            max_records)
                    assert block.raw == ref_pack(want)
                    assert truncated == cut
                    res = engine.query("w", t0, t1, level=level,
                                       comp_id=comp_id,
                                       max_records=max_records)
                    assert res.source in ("scan", "lru")  # a repeated window
                    assert (res.rows.raw, res.truncated) == (block.raw, cut)
                    for i in range(width):
                        assert struct.pack(f"<{len(block)}d",
                                           *block.column(i)) == struct.pack(
                            f"<{len(block)}d",
                            *[r[2 + i] for r in row.iter_unpack(block.raw)])
                    assert block.comp_ids() == [r[1] for r in want]
