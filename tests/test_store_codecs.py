"""The stores' per-layout row codecs against the per-value renderers
they replaced.

Three oracles, all deterministic (``derandomize=True``):

* a committed sha256 of the CSV a small Blue Waters-shaped DES world
  writes (8 samplers x 194 metrics, both synthetic value patterns, 5
  intervals) — recorded before the codecs existed, the wide-row
  counterpart of ``check_fanin.py`` / ``check_query.py``;
* the CSV renderer this tree shipped before the codecs — one formatter
  per column, one ``str`` per value, a ``join`` per row — kept here as
  the byte-level reference for whole store directories;
* the SOS record layout written field by field (header pack, values
  pack, ``tell()`` for the index offset), and a fresh
  :class:`SosReader` over what the store wrote.
"""

import hashlib
import os
import random
import struct
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.plugins  # noqa: F401
from repro.core import Ldmsd, SimEnv
from repro.core.metric import MetricType
from repro.core.store import StoreRecord
from repro.plugins.stores.csv_store import CsvStore
from repro.plugins.stores.sos import SosReader, SosStore, rollup_schema
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport

SETTINGS = dict(derandomize=True, deadline=None)


# -- the golden wide-CSV world ----------------------------------------------
#: sha256 of ``synthetic.csv`` from :func:`wide_csv_world`, recorded at
#: commit 4da3e95 (the parent of the row-codec change).
WIDE_CSV_SHA256 = (
    "b329314a9c102f3ef56078147f02b35d8aabf44fad6b5404cb296be35f8ae2b3")
WIDE_CSV_ROWS = 8 * 5


def wide_csv_world(path):
    """8 x 194-metric synthetic sets @ 1 s over ``ugni`` into store_csv,
    alternating ``counter`` / ``constant``; stops mid-way through the
    sixth interval so exactly five samples per set are stored."""
    eng = Engine()
    env = SimEnv(eng)
    fabric = SimFabric(eng)
    for i in range(8):
        d = Ldmsd(f"n{i}", env=env,
                  transports={"ugni": SimTransport(fabric, "ugni", node_id=i)},
                  mem=4096 + 194 * 256)
        d.load_sampler("synthetic", instance=f"n{i}/syn", component_id=i + 1,
                       num_metrics=194,
                       pattern=("counter", "constant")[i % 2])
        d.start_sampler(f"n{i}/syn", interval=1.0)
        d.listen("ugni", f"n{i}:411")
    agg = Ldmsd("agg", env=env,
                transports={"ugni": SimTransport(fabric, "ugni",
                                                 node_id="agg")},
                mem=4 * 1024 * 1024)
    store = agg.add_store("store_csv", path=str(path))
    for i in (5, 2, 7, 0, 3, 6, 1, 4):
        agg.add_producer(f"n{i}", "ugni", f"n{i}:411", interval=1.0,
                         sets=(f"n{i}/syn",))
    eng.run(until=5.75)
    agg.shutdown()
    return store


def test_wide_csv_world_matches_committed_digest(tmp_path):
    store = wide_csv_world(tmp_path)
    data = (tmp_path / "synthetic.csv").read_bytes()
    assert store.records_stored == WIDE_CSV_ROWS
    assert data.count(b"\n") == WIDE_CSV_ROWS + 1
    assert store.bytes_written() == len(data)
    assert hashlib.sha256(data).hexdigest() == WIDE_CSV_SHA256


# -- CSV: the renderer before the row codecs --------------------------------
_REF_FLOAT = "%.6g".__mod__
_FLOATS = (MetricType.F32, MetricType.F64)


def ref_row(record):
    """One formatter per column (chosen from the record's own types),
    one ``str`` per value, a ``join`` per row."""
    comp_id = record.component_ids[0] if record.component_ids else 0
    if record.mtypes is not None:
        fmts = tuple(_REF_FLOAT if t in _FLOATS else str
                     for t in record.mtypes)
        body = ",".join([f(v) for f, v in zip(fmts, record.values)])
    else:
        body = ",".join([f"{v:.6g}" if isinstance(v, float) else str(v)
                         for v in record.values])
    return f"{record.timestamp:.6f},{record.producer},{comp_id},{body}\n"


class RefCsvDir:
    """What ``CsvStore`` leaves in its directory, modelled on strings:
    header placement, ``buffer_lines`` drains (checked per row by
    ``store``, once per batch in sorted schema order by ``store_many``)
    and ``roll_bytes`` rotation."""

    def __init__(self, altheader=False, buffer_lines=64, roll_bytes=0):
        self.altheader = altheader
        self.buffer_lines = buffer_lines
        self.roll_bytes = roll_bytes
        self.files = {}
        self.headers = {}
        self.buffers = {}
        self.rolls = {}

    def _add(self, record):
        schema = record.schema
        if schema not in self.buffers:
            header = "Time,Producer,CompId," + ",".join(record.names) + "\n"
            self.headers[schema] = header
            self.files[f"{schema}.csv"] = ""
            self.buffers[schema] = []
            self.rolls[schema] = 0
            if self.altheader:
                self.files[f"{schema}.HEADER"] = header
            else:
                self.buffers[schema].append(header)
        self.buffers[schema].append(ref_row(record))
        return schema

    def _drain(self, schema):
        buf = self.buffers[schema]
        if not buf:
            return
        name = f"{schema}.csv"
        self.files[name] += "".join(buf)
        buf.clear()
        if 0 < self.roll_bytes <= len(self.files[name].encode()):
            self.rolls[schema] += 1
            self.files[f"{name}.{self.rolls[schema]}"] = self.files[name]
            self.files[name] = "" if self.altheader else self.headers[schema]

    def store(self, record):
        schema = self._add(record)
        if len(self.buffers[schema]) >= self.buffer_lines:
            self._drain(schema)

    def store_many(self, records):
        for schema in sorted({self._add(r) for r in records}):
            if len(self.buffers[schema]) >= self.buffer_lines:
                self._drain(schema)

    def close(self):
        for schema in self.buffers:
            self._drain(schema)
        return {name: text.encode() for name, text in self.files.items()}


def read_dir(path):
    out = {}
    for name in os.listdir(path):
        with open(os.path.join(path, name), "rb") as f:
            out[name] = f.read()
    return out


def f32(x):
    return struct.unpack("<f", struct.pack("<f", x))[0]


FLOAT_EDGES = (0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-7,
               1e21, 0.1, f32(0.1), f32(1e-7), 123456.5, 1234567.0,
               0.123456789, 5e-324, 1.7976931348623157e308)
PRODUCERS = ("n0", "100%", "%s", "%d%%", "%(x)s", "node 7", "né", "节点-3",
             "a%.6gb", "")


def edge_value(rng, mtype):
    """A value of the Python type ``mtype`` decodes to, edges first."""
    if mtype in _FLOATS:
        if rng.random() < 0.5:
            return rng.choice(FLOAT_EDGES)
        v = rng.uniform(-1e6, 1e6) * 10.0 ** rng.randrange(-12, 12)
        return f32(v) if mtype is MetricType.F32 else v
    bits = 8 * mtype.size
    lo, hi = ((-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if mtype.is_signed
              else (0, (1 << bits) - 1))
    return rng.choice((lo, hi, 0, rng.randint(lo, hi)))


def make_streams(rng, widths):
    """One (schema, names, mtypes) layout per width, over all ten types."""
    return [(f"s{k}", tuple(f"m{i}" for i in range(n)),
             tuple(rng.choice(list(MetricType)) for _ in range(n)))
            for k, n in enumerate(widths)]


def make_records(rng, streams, nrows):
    out = []
    for _ in range(nrows):
        schema, names, mtypes = rng.choice(streams)
        if rng.random() < 0.3:  # equal layout, different tuple object
            mtypes = tuple(list(mtypes))
        ts = rng.choice((float(rng.randrange(10**9)), rng.randrange(10**9),
                         rng.uniform(0.0, 2e9), 0.0, 1e21))
        comp = rng.randrange(2**32)
        out.append(StoreRecord(
            ts, rng.choice(PRODUCERS), f"p/{schema}", schema, names,
            (comp,) * len(names),
            tuple(edge_value(rng, t) for t in mtypes), mtypes))
    return out


def run_csv(store, records, cuts, rng):
    """Feed ``records`` in the batches ``cuts`` delimit, each batch as
    one ``store_many`` or as a ``store`` loop."""
    bounds = [0, *sorted(cuts), len(records)]
    for a, b in zip(bounds, bounds[1:]):
        if rng.random() < 0.5:
            store.store_many(records[a:b])
        else:
            for r in records[a:b]:
                store.store(r)
    return store.close()


class TestCsvRowCodecAgainstReference:
    @settings(max_examples=80, **SETTINGS)
    @given(seed=st.integers(0, 2**32),
           widths=st.lists(st.one_of(st.integers(1, 8), st.integers(1, 256)),
                           min_size=1, max_size=3),
           nrows=st.integers(1, 24), altheader=st.booleans(),
           buffer_lines=st.sampled_from((1, 2, 5, 64)),
           roll_bytes=st.sampled_from((0, 0, 60, 700, 4000)),
           cuts=st.lists(st.integers(0, 24), max_size=4))
    def test_directory_bytes_equal_reference(self, seed, widths, nrows,
                                             altheader, buffer_lines,
                                             roll_bytes, cuts):
        rng = random.Random(seed)
        records = make_records(rng, make_streams(rng, widths), nrows)
        cuts = [c for c in cuts if c <= nrows]
        cfg = dict(altheader=altheader, buffer_lines=buffer_lines,
                   roll_bytes=roll_bytes)
        want = run_csv(RefCsvDir(**cfg), records, cuts, random.Random(seed))
        with tempfile.TemporaryDirectory() as path:
            store = CsvStore()
            store.config(path=path, **cfg)
            run_csv(store, records, cuts, random.Random(seed))
            got = read_dir(path)
        assert got == want
        assert store.bytes_written() == sum(map(len, got.values()))

    @settings(max_examples=40, **SETTINGS)
    @given(seed=st.integers(0, 2**32),
           widths=st.lists(st.integers(1, 40), min_size=1, max_size=3),
           nrows=st.integers(1, 40),
           buffer_lines=st.sampled_from((1, 3, 64)))
    def test_store_loop_equals_store_many(self, seed, widths, nrows,
                                          buffer_lines):
        rng = random.Random(seed)
        records = make_records(rng, make_streams(rng, widths), nrows)
        dirs = []
        for batched in (False, True):
            with tempfile.TemporaryDirectory() as path:
                store = CsvStore()
                store.config(path=path, buffer_lines=buffer_lines)
                if batched:
                    store.store_many(records)
                else:
                    for r in records:
                        store.store(r)
                store.close()
                dirs.append(read_dir(path))
        assert dirs[0] == dirs[1]

    @settings(max_examples=40, **SETTINGS)
    @given(seed=st.integers(0, 2**32), ncols=st.integers(1, 12),
           nrows=st.integers(1, 12))
    def test_retyped_and_mistyped_rows_equal_reference(self, seed, ncols,
                                                       nrows):
        # One schema, unchanged names: the layout's types change from
        # row to row (typed, retyped, hand-built without types), and an
        # integer column may hold a float or a bool — rendered as
        # str(v), never truncated through %d.
        rng = random.Random(seed)
        names = tuple(f"m{i}" for i in range(ncols))
        records = []
        for i in range(nrows):
            mtypes = rng.choice((None, tuple(
                rng.choice(list(MetricType)) for _ in range(ncols))))
            values = tuple(
                rng.choice((0.5, True, 2**64 - 1, -0.0, float("nan")))
                if t is None or rng.random() < 0.3 else edge_value(rng, t)
                for t in (mtypes or (None,) * ncols))
            records.append(StoreRecord(float(i), "n%", "n/s", "s", names,
                                       (7,) * ncols, values, mtypes))
        with tempfile.TemporaryDirectory() as path:
            store = CsvStore()
            store.config(path=path)
            store.store_many(records)
            store.close()
            got = read_dir(path)
        ref = RefCsvDir()
        ref.store_many(records)
        assert got == ref.close()


# -- SOS: the record written field by field ---------------------------------
def ref_sos_files(rows):
    """``(.sos, .sidx)`` bytes for ``rows`` of ``(ts, comp_id, values)``
    appended in order: header pack, values pack, offset = bytes so far."""
    data = bytearray()
    index = bytearray()
    for ts, comp_id, values in rows:
        index += struct.pack("<dQ", ts, len(data))
        data += struct.pack("<dII", ts, comp_id, len(values))
        data += struct.pack(f"<{len(values)}d", *values)
    return bytes(data), bytes(index)


def container_bytes(path):
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path)
               if name.endswith((".sos", ".sidx")))


def check_container(path, container, width):
    """Every index entry points at its own record; a fresh reader
    returns the rows in time order (append order among equals)."""
    with open(os.path.join(path, container + ".sos"), "rb") as f:
        data = f.read()
    with open(os.path.join(path, container + ".sidx"), "rb") as f:
        index = f.read()
    size = 16 + 8 * width
    entries = list(struct.iter_unpack("<dQ", index))
    assert len(data) == size * len(entries)
    rows = []
    for k, (ts, offset) in enumerate(entries):
        assert offset == k * size
        rts, comp_id, card = struct.unpack_from("<dII", data, offset)
        assert (rts, card) == (ts, width)
        rows.append((ts, comp_id, data[offset + 16:offset + size]))
    got = SosReader(path, container).range(float("-inf"), float("inf"))
    assert [(r.timestamp, r.component_id,
             struct.pack(f"<{width}d", *r.values)) for r in got] == sorted(
        rows, key=lambda r: r[0])
    return len(rows)


class TestSosRecordCodecAgainstReference:
    @settings(max_examples=50, **SETTINGS)
    @given(seed=st.integers(0, 2**32), width=st.integers(0, 64),
           sessions=st.lists(st.integers(0, 30), min_size=1, max_size=4),
           rollups=st.sampled_from(("", "10", "10,60")))
    def test_close_reopen_append(self, seed, width, sessions, rollups):
        rng = random.Random(seed)
        names = tuple(f"m{i}" for i in range(width))
        appended = []
        observed = []
        with tempfile.TemporaryDirectory() as path:
            for nrows in sessions:
                store = SosStore()
                store.config(path=path, rollups=rollups)
                store.set_observer(lambda c, *row: observed.append((c, row)))
                batch = []
                for _ in range(nrows):
                    ts = rng.choice((float(rng.randrange(200)),
                                     rng.uniform(0.0, 200.0)))
                    # no columns, no component_ids to take one from
                    comp = rng.randrange(3) if width else 0
                    values = tuple(
                        rng.choice((*FLOAT_EDGES, 2**64 - 1, -2**63, 7))
                        for _ in range(width))
                    batch.append(StoreRecord(ts, "n0", "n0/w", "w", names,
                                             (comp,) * width, values))
                    appended.append((ts, comp, [float(v) for v in values]))
                before = container_bytes(path)
                store.store_many(batch)
                store.close()
                assert store.bytes_written() == container_bytes(path) - before
                want_data, want_index = ref_sos_files(appended)
                got = read_dir(path)
                assert got.get("w.sos", b"") == want_data
                assert got.get("w.sidx", b"") == want_index
            if not appended:
                return
            assert check_container(path, "w", width) == len(appended)
            base_seen = [row for c, row in observed if c == "w"]
            assert repr(base_seen) == repr(
                [(ts, comp, tuple(v)) for ts, comp, v in appended])
            for level in (rollups.split(",") if rollups else ()):
                target = rollup_schema("w", int(level))
                sealed = sum(1 for c, _ in observed if c == target)
                assert check_container(path, target, width) == sealed > 0
