"""Tests for the store plugins: CSV, flat file, SOS, memory."""

import os
import struct

import numpy as np
import pytest

import repro.plugins  # noqa: F401
from repro.core import wire
from repro.core.metric import MetricType
from repro.core.store import StorePolicy, StoreRecord
from repro.plugins.stores.csv_store import CsvStore
from repro.plugins.stores.flatfile import FlatFileStore
from repro.plugins.stores.memstore import MemoryStore
from repro.plugins.stores.sos import (SosReader, SosRecord, SosStore,
                                      rollup_schema)
from repro.query.engine import QueryEngine
from repro.util.errors import ConfigError, StoreError


def rec(t=1.0, producer="n0", set_name="n0/mem", schema="mem",
        names=("a", "b"), comp=(1, 1), values=(10, 20)):
    return StoreRecord(t, producer, set_name, schema, tuple(names),
                       tuple(comp), tuple(values))


class TestStoreRecord:
    def test_filtered_projection(self):
        r = rec(names=("a", "b", "c"), comp=(1, 1, 1), values=(1, 2, 3))
        f = r.filtered(["a", "c"])
        assert f.names == ("a", "c")
        assert f.values == (1, 3)

    def test_filtered_unknown_metric_rejected(self):
        with pytest.raises(ConfigError):
            rec().filtered(["zzz"])


class TestStorePolicy:
    def test_schema_match(self):
        p = StorePolicy(schema="mem")
        assert p.matches(rec())
        assert not p.matches(rec(schema="cpu"))

    def test_producer_match(self):
        p = StorePolicy(producers=frozenset({"n1"}))
        assert not p.matches(rec())
        assert p.matches(rec(producer="n1"))

    def test_projection(self):
        p = StorePolicy(metrics=("b",))
        out = p.project(rec())
        assert out.names == ("b",)


class TestCsvStore:
    def _store(self, tmp_path, **cfg):
        s = CsvStore()
        s.config(path=str(tmp_path), buffer_lines=1, **cfg)
        return s

    def test_rows_written(self, tmp_path):
        s = self._store(tmp_path)
        s.submit(rec(t=1.0))
        s.submit(rec(t=2.0, values=(11, 21)))
        s.close()
        lines = (tmp_path / "mem.csv").read_text().splitlines()
        assert lines[0] == "Time,Producer,CompId,a,b"
        assert lines[1] == "1.000000,n0,1,10,20"
        assert lines[2].endswith("11,21")

    def test_altheader(self, tmp_path):
        s = self._store(tmp_path, altheader=True)
        s.submit(rec())
        s.close()
        assert (tmp_path / "mem.HEADER").exists()
        data = (tmp_path / "mem.csv").read_text()
        assert not data.startswith("Time")

    def test_schema_split(self, tmp_path):
        s = self._store(tmp_path)
        s.submit(rec(schema="mem"))
        s.submit(rec(schema="cpu", set_name="n0/cpu"))
        s.close()
        assert (tmp_path / "mem.csv").exists()
        assert (tmp_path / "cpu.csv").exists()

    def test_layout_change_rejected(self, tmp_path):
        s = self._store(tmp_path)
        s.submit(rec())
        with pytest.raises(StoreError):
            s.submit(rec(names=("x", "y")))
        s.close()

    def test_float_formatting(self, tmp_path):
        s = self._store(tmp_path)
        s.submit(rec(values=(1.5, 2.25)))
        s.close()
        assert "1.5,2.25" in (tmp_path / "mem.csv").read_text()

    def test_buffering_flush(self, tmp_path):
        s = CsvStore()
        s.config(path=str(tmp_path), buffer_lines=100)
        s.submit(rec())
        assert (not (tmp_path / "mem.csv").exists()
                or (tmp_path / "mem.csv").stat().st_size == 0)
        s.flush()
        assert (tmp_path / "mem.csv").stat().st_size > 0
        s.close()

    def test_bytes_written(self, tmp_path):
        s = self._store(tmp_path)
        s.submit(rec())
        s.flush()
        assert s.bytes_written() == (tmp_path / "mem.csv").stat().st_size
        s.close()

    @pytest.mark.parametrize("altheader", [False, True])
    def test_bytes_written_is_bytes_on_disk(self, tmp_path, altheader):
        # Regression: the header of a rolled-over file went uncounted,
        # and rows were counted in characters ("né" is 2 chars, 3 bytes).
        s = self._store(tmp_path, roll_bytes=60, altheader=altheader)
        for t in (1.0, 2.0, 3.0):
            s.submit(rec(t=t, producer="né"))
        s.close()
        files = sorted(os.listdir(tmp_path))
        assert "mem.csv.1" in files  # rolled at least once
        assert ("mem.HEADER" in files) == altheader
        assert s.bytes_written() == sum(
            os.path.getsize(tmp_path / f) for f in files)

    def test_missing_path_rejected(self):
        with pytest.raises(ConfigError):
            CsvStore().config()

    @pytest.mark.parametrize("batched", [False, True])
    def test_retyped_layout_under_same_names(self, tmp_path, batched):
        # Regression: formatters were cached per schema *name*, so a set
        # re-created u64 -> f64 under unchanged metric names (the MGN
        # re-lookup) kept the integer columns' str() and lost %.6g.
        def typed(t, values, mtype):
            return StoreRecord(t, "n0", "n0/mem", "mem", ("a", "b"), (1, 1),
                               values, mtypes=(mtype, mtype))

        records = [typed(1.0, (1, 2), MetricType.U64),
                   typed(2.0, (0.123456789, 2.5), MetricType.F64),
                   typed(3.0, (3, 4), MetricType.U64)]
        s = self._store(tmp_path)
        if batched:
            s.store_many(records)
        else:
            for r in records:
                s.store(r)
        s.close()
        assert (tmp_path / "mem.csv").read_text().splitlines()[1:] == [
            "1.000000,n0,1,1,2", "2.000000,n0,1,0.123457,2.5",
            "3.000000,n0,1,3,4"]

    def test_store_many_drain_order_is_sorted(self, tmp_path, monkeypatch):
        # Regression (found by flow-des-purity): the batched path collected
        # touched schemas in a set and drained in set-iteration order,
        # which varies with PYTHONHASHSEED.  Drain order must be sorted
        # regardless of record arrival order.
        drained: list[str] = []
        orig = CsvStore._drain

        def spy(self, schema):
            drained.append(schema)
            return orig(self, schema)

        monkeypatch.setattr(CsvStore, "_drain", spy)
        s = self._store(tmp_path)
        s.store_many([
            rec(schema="zeta", set_name="n0/zeta"),
            rec(schema="alpha", set_name="n0/alpha"),
            rec(schema="mid", set_name="n0/mid"),
        ])
        s.close()
        assert drained[:3] == ["alpha", "mid", "zeta"]

    def test_policy_applied_via_submit(self, tmp_path):
        s = self._store(tmp_path)
        s.policy = StorePolicy(schema="other")
        s.submit(rec())
        s.close()
        assert not (tmp_path / "mem.csv").exists()
        assert s.records_stored == 0


class TestFlatFileStore:
    def test_file_per_metric(self, tmp_path):
        s = FlatFileStore()
        s.config(path=str(tmp_path), buffer_lines=1)
        s.submit(rec())
        s.close()
        # Paper: "Active and Cached ... stored in 2 separate files".
        assert (tmp_path / "mem" / "a").exists()
        assert (tmp_path / "mem" / "b").exists()
        line = (tmp_path / "mem" / "a").read_text().splitlines()[0]
        assert line == "1.000000 1 10"

    def test_appends(self, tmp_path):
        s = FlatFileStore()
        s.config(path=str(tmp_path), buffer_lines=1)
        s.submit(rec(t=1.0))
        s.submit(rec(t=2.0))
        s.close()
        assert len((tmp_path / "mem" / "a").read_text().splitlines()) == 2

    def test_unsafe_names_sanitized(self, tmp_path):
        s = FlatFileStore()
        s.config(path=str(tmp_path), buffer_lines=1)
        s.submit(rec(names=("open#stats.snx11024", "b"),
                     values=(5, 6)))
        s.close()
        assert (tmp_path / "mem" / "open#stats.snx11024").exists()


class TestSosStore:
    def test_roundtrip(self, tmp_path):
        s = SosStore()
        s.config(path=str(tmp_path))
        for k in range(10):
            s.submit(rec(t=float(k), values=(k, k * 2)))
        s.close()
        reader = SosReader(str(tmp_path), "mem")
        assert len(reader) == 10
        assert reader.metric_names == ["a", "b"]
        records = list(reader)
        assert records[3].values == (3.0, 6.0)
        assert records[3].component_id == 1

    def test_time_range_query(self, tmp_path):
        s = SosStore()
        s.config(path=str(tmp_path))
        for k in range(100):
            s.submit(rec(t=float(k)))
        s.close()
        reader = SosReader(str(tmp_path), "mem")
        out = reader.range(10.0, 20.0)
        assert len(out) == 10
        assert out[0].timestamp == 10.0
        assert out[-1].timestamp == 19.0

    def test_layout_change_rejected(self, tmp_path):
        s = SosStore()
        s.config(path=str(tmp_path))
        s.submit(rec())
        with pytest.raises(StoreError):
            s.submit(rec(names=("z",), comp=(1,), values=(0,)))
        s.close()

    def test_bytes_written_positive(self, tmp_path):
        s = SosStore()
        s.config(path=str(tmp_path))
        s.submit(rec())
        assert s.bytes_written() > 0
        s.close()

    def test_out_of_order_appends_range(self, tmp_path):
        # Regression: arrival timestamps are not monotone across
        # producers, so the append-ordered .sidx is not binary
        # searchable.  The old reader bisected it raw and returned
        # wrong (silently incomplete) ranges; the index must be sorted
        # at load.
        s = SosStore()
        s.config(path=str(tmp_path))
        for t in (5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0):
            s.submit(rec(t=t, values=(t, 2 * t)))
        s.close()
        reader = SosReader(str(tmp_path), "mem")
        assert [r.timestamp for r in reader.range(2.0, 8.0)] == [
            2.0, 3.0, 5.0, 7.0]
        # iteration order agrees with the sorted index
        assert [r.timestamp for r in reader] == sorted(
            (5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0))
        # values travel with their (re-ordered) timestamps
        assert reader.range(3.0, 4.0)[0].values == (3.0, 6.0)

    def test_equal_timestamps_keep_append_order(self, tmp_path):
        s = SosStore()
        s.config(path=str(tmp_path))
        s.submit(rec(t=1.0, values=(10, 0)))
        s.submit(rec(t=1.0, values=(20, 0)))
        s.submit(rec(t=0.5, values=(5, 0)))
        s.close()
        reader = SosReader(str(tmp_path), "mem")
        # sort is stable on (timestamp, offset): ties stay in append order
        assert [r.values[0] for r in reader.range(1.0, 2.0)] == [10.0, 20.0]

    def test_range_in_and_out_of_file_order_agrees_with_iteration(
            self, tmp_path):
        # One gather serves every window: an ascending gap-free run of
        # the data file (rows 3,4), a permuted run (rows 0,2,1), a run
        # with a straggler (rows 4,6,5,7), and the empty tail.
        s = SosStore()
        s.config(path=str(tmp_path))
        for k, t in enumerate((0.0, 2.0, 1.0, 3.0, 4.0, 5.0, 4.5, 6.0)):
            s.submit(rec(t=t, values=(k, t)))
        s.close()
        reader = SosReader(str(tmp_path), "mem")
        everything = list(reader)
        assert [r.timestamp for r in everything] == [
            0.0, 1.0, 2.0, 3.0, 4.0, 4.5, 5.0, 6.0]
        for t0, t1 in ((3.0, 4.5), (0.0, 2.5), (4.0, 6.5), (0.0, 9.0),
                       (7.0, 9.0), (5.0, 1.0)):
            assert reader.range(t0, t1) == [
                r for r in everything if t0 <= r.timestamp < t1]
            assert reader.skipped == 0

    def test_torn_data_file_skips_and_counts_the_torn_record(self, tmp_path):
        # A crash left the data file 5 bytes short of its index: every
        # read used to raise struct.error.  The whole records come back
        # in order; the torn one is skipped and counted.
        s = SosStore()
        s.config(path=str(tmp_path))
        for k in range(10):
            s.submit(rec(t=float(k), values=(k, 2 * k)))
        s.close()
        data = tmp_path / "mem.sos"
        data.write_bytes(data.read_bytes()[:-5])
        reader = SosReader(str(tmp_path), "mem")
        whole = [(float(k), 1, (float(k), 2.0 * k)) for k in range(9)]
        assert reader.range(0.0, 100.0) == whole
        assert reader.skipped == 1
        assert reader.range(0.0, 9.0) == whole
        assert reader.skipped == 0
        assert list(reader) == whole
        assert reader.skipped == 1

    def test_off_grid_and_wrong_card_entries_are_skipped(self, tmp_path):
        s = SosStore()
        s.config(path=str(tmp_path))
        for k in range(4):
            s.submit(rec(t=float(k), values=(k, k)))
        s.close()
        size = 16 + 8 * 2
        data = bytearray((tmp_path / "mem.sos").read_bytes())
        struct.pack_into("<I", data, 2 * size + 12, 3)  # record 2's card
        (tmp_path / "mem.sos").write_bytes(bytes(data))
        with open(tmp_path / "mem.sidx", "ab") as f:
            f.write(struct.pack("<dQ", 1.5, size + 8))    # off the grid
            f.write(struct.pack("<dQ", 1.6, 2**64 - 1))   # past any file
        reader = SosReader(str(tmp_path), "mem")
        assert [r.timestamp for r in reader] == [0.0, 1.0, 3.0]
        assert reader.skipped == 3

    def test_refresh_folds_in_new_appends(self, tmp_path):
        s = SosStore()
        s.config(path=str(tmp_path))
        s.submit(rec(t=1.0))
        s.flush()
        reader = SosReader(str(tmp_path), "mem")
        assert len(reader) == 1
        # an append-ordered tail that is *older* than what the reader
        # already holds must still land in sorted position
        s.submit(rec(t=3.0))
        s.submit(rec(t=0.5))
        s.flush()
        assert reader.refresh() == 2
        assert [r.timestamp for r in reader] == [0.5, 1.0, 3.0]
        assert reader.refresh() == 0  # idempotent: tail already consumed
        s.close()

    def test_multi_component_record_rejected(self, tmp_path):
        # Regression: a record spanning several component ids used to
        # store component_ids[0] and silently drop the rest.  The SOS
        # record format has one u32 slot — reject loudly and count it.
        s = SosStore()
        s.config(path=str(tmp_path))
        with pytest.raises(StoreError):
            s.submit(rec(comp=(1, 2)))
        assert s.multi_component_rejected == 1
        assert s.records_failed == 1
        # uniform component ids (the common projected-row shape) store fine
        s.submit(rec(t=2.0, comp=(7, 7)))
        s.close()
        records = list(SosReader(str(tmp_path), "mem"))
        assert [r.component_id for r in records] == [7]

    def test_reopen_layout_mismatch_rejected(self, tmp_path):
        # Regression: reopening a container after restart appended
        # whatever shape arrived, corrupting the fixed-width stream.
        # The .schema.json sidecar is the layout contract.
        s = SosStore()
        s.config(path=str(tmp_path))
        s.submit(rec(t=1.0))
        s.close()
        s2 = SosStore()
        s2.config(path=str(tmp_path))
        with pytest.raises(StoreError, match="layout mismatch"):
            s2.submit(rec(t=2.0, names=("x", "y")))
        s2.close()
        # the container is untouched by the rejected append
        assert len(SosReader(str(tmp_path), "mem")) == 1

    def test_reopen_matching_layout_appends(self, tmp_path):
        s = SosStore()
        s.config(path=str(tmp_path))
        s.submit(rec(t=1.0))
        s.close()
        s2 = SosStore()
        s2.config(path=str(tmp_path))
        s2.submit(rec(t=2.0))
        # reopened containers are flagged: the query tier's hot window
        # must not claim to cover rows it never saw ingested
        assert "mem" in s2.preexisting
        s2.close()
        assert [r.timestamp for r in SosReader(str(tmp_path), "mem")] == [
            1.0, 2.0]


class TestSosCrashRecovery:
    """A crash can cut either file of a container anywhere.  Reopening
    makes the pair whole before the first append; the data file is
    authoritative.  (Reopening used to resume appends at an unaligned
    offset and re-point the torn record's index entry at new bytes.)"""

    INF = float("inf")
    SESSIONS = (
        [(3.0, 1, (1.0, 2.0)), (1.0, 2, (-0.0, 5e-324)), (2.0, 1, (INF, 9.0))],
        [(4.0, 2, (-INF, 1e308)), (0.5, 1, (7.0, -7.0))],  # 0.5: a straggler
    )
    NEW = [(6.0, 1, (11.0, 12.0)), (2.0, 2, (13.0, 14.0)),
           (5.0, 1, (15.0, 16.0))]
    SIZE = 16 + 8 * 2

    @staticmethod
    def _append(path, rows, rollups=""):
        s = SosStore()
        s.config(path=str(path), rollups=rollups)
        for ts, comp, values in rows:
            s.submit(rec(t=ts, comp=(comp, comp), values=values))
        s.close()

    @staticmethod
    def _sizes_whole(path, container, size):
        data = os.path.getsize(path / f"{container}.sos")
        index = os.path.getsize(path / f"{container}.sidx")
        assert data % size == 0 and index % 16 == 0
        assert data // size == index // 16
        return data // size

    @pytest.mark.parametrize("cut_file", ["mem.sos", "mem.sidx"])
    def test_reopen_after_a_cut_at_every_byte(self, tmp_path, cut_file):
        whole = tmp_path / "whole"
        for rows in self.SESSIONS:
            self._append(whole, rows)
        files = {p.name: p.read_bytes() for p in whole.iterdir()}
        old = [r for rows in self.SESSIONS for r in rows]
        for cut in range(len(files[cut_file]) + 1):
            d = tmp_path / str(cut)
            d.mkdir()
            for name, raw in files.items():
                (d / name).write_bytes(raw[:cut] if name == cut_file else raw)
            self._append(d, self.NEW)
            kept = old[:cut // self.SIZE] if cut_file == "mem.sos" else old
            want = sorted(kept + self.NEW, key=lambda r: r[0])  # stable
            got = list(SosReader(str(d), "mem"))
            assert repr(got) == repr([SosRecord(*r) for r in want]), cut
            assert self._sizes_whole(d, "mem", self.SIZE) == len(want)

    @pytest.mark.parametrize("sidecar", ["mem.schema.json",
                                         "mem.r10.schema.json"])
    def test_torn_sidecar_is_refused_at_every_byte(self, tmp_path, sidecar):
        # A sidecar cut short used to make reopen, the reader and the
        # query tier raise json.JSONDecodeError.  It is refused, naming
        # the file; names are never rebuilt from the record width.
        whole = tmp_path / "whole"
        self._append(whole, self.SESSIONS[0], rollups="10")
        files = {p.name: p.read_bytes() for p in whole.iterdir()}
        container = sidecar[:-len(".schema.json")]
        for cut in range(len(files[sidecar])):
            d = tmp_path / str(cut)
            d.mkdir()
            torn = {name: raw[:cut] if name == sidecar else raw
                    for name, raw in files.items()}
            for name, raw in torn.items():
                (d / name).write_bytes(raw)
            with pytest.raises(StoreError, match=sidecar):
                self._append(d, self.NEW, rollups="10")
            with pytest.raises(StoreError, match=sidecar):
                SosReader(str(d), container)
            store = SosStore()
            store.config(path=str(d), rollups="10")
            res = QueryEngine(store, lambda: 0.0).query(container, 0.0, 9.0)
            assert (res.status, res.source) == (wire.E_NOENT, "noent"), cut
            store.close()
            assert {p.name: p.read_bytes() for p in d.iterdir()} == torn

    @pytest.mark.parametrize("container", ["mem", "mem.r10"])
    def test_missing_sidecar_beside_data_is_refused(self, tmp_path, container):
        # A deleted sidecar used to be rewritten from the next incoming
        # record: a 1-metric record then stamped ["x"] over 2-metric data
        # and the reader returned only the new record.  Reopen refuses,
        # naming the missing file, and writes nothing.
        self._append(tmp_path, self.SESSIONS[0], rollups="10")
        self._append(tmp_path, [(12.0, 1, (1.0, 2.0))], rollups="10")
        sidecar = f"{container}.schema.json"
        (tmp_path / sidecar).unlink()
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        s = SosStore()
        s.config(path=str(tmp_path), rollups="10")
        with pytest.raises(StoreError, match=sidecar):
            s.submit(rec(t=20.0, names=("x",), comp=(1,), values=(5,)))
        with pytest.raises(StoreError, match=sidecar):
            s.submit(rec(t=20.0))
        res = QueryEngine(s, lambda: 0.0).query(container, 0.0, 30.0)
        s.close()
        assert (res.status, res.source) == (wire.E_NOENT, "noent")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files

    def test_sidecars_are_replaced_whole(self, tmp_path, monkeypatch):
        # Written to a temporary name and renamed over the final one, so
        # a crash mid-write leaves no sidecar rather than a torn one.
        replaced = []
        real_replace = os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: (
            replaced.append(os.path.basename(dst)), real_replace(src, dst)))
        self._append(tmp_path, self.SESSIONS[0], rollups="10")
        assert replaced == ["mem.schema.json", "mem.r10.schema.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "mem.r10.schema.json", "mem.r10.sidx", "mem.r10.sos",
            "mem.schema.json", "mem.sidx", "mem.sos"]

    def test_clean_reopen_writes_nothing(self, tmp_path):
        self._append(tmp_path, self.SESSIONS[0])
        before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                  for p in tmp_path.iterdir()}
        s = SosStore()
        s.config(path=str(tmp_path))
        s._ensure("mem", ("a", "b"))
        s.close()
        assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                for p in tmp_path.iterdir()} == before

    def test_rollup_container_recovered_on_reopen(self, tmp_path):
        self._append(tmp_path, [(float(k), 1, (k, k)) for k in range(35)],
                     rollups="10")
        data = tmp_path / "mem.r10.sos"
        data.write_bytes(data.read_bytes()[:-3])  # bucket [30,40) torn
        self._append(tmp_path, [(float(k), 1, (k, k)) for k in range(40, 55)],
                     rollups="10")
        rolled = list(SosReader(str(tmp_path), rollup_schema("mem", 10)))
        assert [(r.timestamp, r.values) for r in rolled] == [
            (0.0, (4.5, 4.5)), (10.0, (14.5, 14.5)), (20.0, (24.5, 24.5)),
            (40.0, (44.5, 44.5)), (50.0, (52.0, 52.0))]
        assert self._sizes_whole(tmp_path, "mem.r10", self.SIZE) == 5


class TestSosRollups:
    def test_mean_buckets_per_component(self, tmp_path):
        s = SosStore()
        s.config(path=str(tmp_path), rollups="10")
        for k in range(25):  # a = k, b = 2k; buckets [0,10) [10,20) [20,30)
            s.submit(rec(t=float(k), values=(k, 2 * k)))
        s.close()  # seals the open [20,30) bucket
        reader = SosReader(str(tmp_path), rollup_schema("mem", 10))
        assert reader.metric_names == ["a", "b"]
        rolled = list(reader)
        assert [r.timestamp for r in rolled] == [0.0, 10.0, 20.0]
        assert rolled[0].values == (4.5, 9.0)    # mean of 0..9
        assert rolled[1].values == (14.5, 29.0)  # mean of 10..19
        assert rolled[2].values == (22.0, 44.0)  # mean of 20..24

    def test_rollup_sidecar_names_base_and_level(self, tmp_path):
        import json

        s = SosStore()
        s.config(path=str(tmp_path), rollups="10")
        for k in range(12):
            s.submit(rec(t=float(k)))
        s.close()
        with open(tmp_path / "mem.r10.schema.json", encoding="utf-8") as f:
            meta = json.load(f)
        assert meta["base"] == "mem"
        assert meta["level"] == 10
        assert meta["agg"] == "mean"

    def test_components_bucketed_separately(self, tmp_path):
        s = SosStore()
        s.config(path=str(tmp_path), rollups="10")
        for k in range(10):
            s.submit(rec(t=float(k), comp=(1, 1), values=(1, 1)))
            s.submit(rec(t=float(k), comp=(2, 2), values=(3, 3)))
        s.close()
        rolled = list(SosReader(str(tmp_path), rollup_schema("mem", 10)))
        by_comp = {r.component_id: r.values[0] for r in rolled}
        assert by_comp == {1: 1.0, 2: 3.0}

    def test_bad_rollup_spec_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            SosStore().config(path=str(tmp_path), rollups="10,-5")

    def test_rollup_levels_parsed_sorted_deduped(self, tmp_path):
        s = SosStore()
        s.config(path=str(tmp_path), rollups="60, 10,60")
        assert s.rollups == (10, 60)
        s.close()


class TestMemoryStore:
    def _filled(self):
        s = MemoryStore()
        s.config()
        for k in range(5):
            s.submit(rec(t=float(k), producer="n0", set_name="n0/mem",
                         values=(k, 2 * k)))
            s.submit(rec(t=float(k), producer="n1", set_name="n1/mem",
                         values=(10 + k, 20 + k)))
        return s

    def test_select_by_producer(self):
        s = self._filled()
        assert len(s.select(producer="n0")) == 5

    def test_select_by_set_name(self):
        s = self._filled()
        assert len(s.select(set_name="n1/mem")) == 5

    def test_select_time_window(self):
        s = self._filled()
        assert len(s.select(t0=1.0, t1=3.0)) == 4  # 2 producers x 2 samples

    def test_series(self):
        s = self._filled()
        ts, vs = s.series("a", producer="n0")
        assert list(vs) == [0, 1, 2, 3, 4]

    def test_series_missing_metric_empty(self):
        s = self._filled()
        ts, vs = s.series("nope")
        assert len(ts) == 0

    def test_matrix_by_set_names(self):
        s = self._filled()
        times, grid = s.matrix("a", set_names=["n0/mem", "n1/mem"])
        assert grid.shape == (2, 5)
        assert grid[1, 0] == 10

    def test_matrix_requires_exactly_one_axis(self):
        s = self._filled()
        with pytest.raises(ValueError):
            s.matrix("a")
        with pytest.raises(ValueError):
            s.matrix("a", set_names=["x"], producers=["y"])

    def test_matrix_missing_cells_nan(self):
        s = MemoryStore()
        s.config()
        s.submit(rec(t=1.0, set_name="n0/mem"))
        s.submit(rec(t=2.0, set_name="n1/mem"))
        _, grid = s.matrix("a", set_names=["n0/mem", "n1/mem"])
        assert np.isnan(grid[0, 1]) and np.isnan(grid[1, 0])

    def test_introspection(self):
        s = self._filled()
        assert s.producers() == ["n0", "n1"]
        assert s.schemas() == ["mem"]
        assert s.set_names() == ["n0/mem", "n1/mem"]
        assert s.component_ids() == [1]
