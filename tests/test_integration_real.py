"""End-to-end integration on real threads and real TCP sockets.

These tests exercise the same code the simulator runs, but in RealEnv:
actual wall-clock scheduling, actual sockets on localhost, actual files
for the stores — the configuration a user deploys on a workstation.
"""

import os
import sys
import threading
import time
from types import SimpleNamespace

import pytest

import repro.plugins  # noqa: F401
from repro.core import Ldmsd
from repro.core import ldmsd as ldmsd_mod
from repro.core.metric import MetricType
from repro.core.metric_set import set_template
from repro.nodefs.fs import RealFS
from repro.nodefs.host import HostModel


def wait_for(predicate, timeout=15.0, interval=0.05):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def synth_fs():
    host = HostModel("it0", clock=time.monotonic)
    return host.fs


class TestRealPipeline:
    def test_sampler_to_aggregator_over_tcp(self, synth_fs):
        sampler = Ldmsd("node0", fs=synth_fs)
        agg = Ldmsd("agg0")
        try:
            sampler.load_sampler("meminfo", instance="node0/meminfo",
                                 component_id=1)
            sampler.start_sampler("node0/meminfo", interval=0.1)
            listener = sampler.listen("sock", ("127.0.0.1", 0))
            store = agg.add_store("memory")
            agg.add_producer("node0", "sock", ("127.0.0.1", listener.port),
                             interval=0.1)
            assert wait_for(lambda: len(store.rows) >= 5)
            row = store.rows[-1]
            assert row.schema == "meminfo"
            assert dict(zip(row.names, row.values))["MemTotal"] > 0
        finally:
            agg.shutdown()
            sampler.shutdown()

    def test_stale_skipped_in_real_time(self, synth_fs):
        sampler = Ldmsd("node0", fs=synth_fs)
        agg = Ldmsd("agg0")
        try:
            sampler.load_sampler("loadavg", instance="node0/la",
                                 component_id=1)
            sampler.start_sampler("node0/la", interval=1.0)  # slow
            listener = sampler.listen("sock", ("127.0.0.1", 0))
            store = agg.add_store("memory")
            agg.add_producer("node0", "sock", ("127.0.0.1", listener.port),
                             interval=0.05)  # fast pull
            assert wait_for(lambda: len(store.rows) >= 1)
            time.sleep(1.0)
            stats = agg.producers["node0"].stats
            assert stats.skipped_stale > 0
        finally:
            agg.shutdown()
            sampler.shutdown()

    def test_csv_store_writes_files(self, synth_fs, tmp_path):
        sampler = Ldmsd("node0", fs=synth_fs)
        agg = Ldmsd("agg0")
        try:
            sampler.load_sampler("procstat", instance="node0/cpu",
                                 component_id=1)
            sampler.start_sampler("node0/cpu", interval=0.1)
            listener = sampler.listen("sock", ("127.0.0.1", 0))
            store = agg.add_store("store_csv", path=str(tmp_path),
                                  buffer_lines=1)
            agg.add_producer("node0", "sock", ("127.0.0.1", listener.port),
                             interval=0.1)
            assert wait_for(lambda: store.records_stored >= 3)
            store.flush()
            csv = tmp_path / "procstat.csv"
            assert csv.exists()
            lines = csv.read_text().splitlines()
            assert lines[0].startswith("Time,Producer,CompId,cpu_user")
            assert len(lines) >= 4
        finally:
            agg.shutdown()
            sampler.shutdown()

    def test_two_level_aggregation_real(self, synth_fs):
        sampler = Ldmsd("node0", fs=synth_fs)
        l1 = Ldmsd("l1")
        l2 = Ldmsd("l2")
        try:
            sampler.load_sampler("loadavg", instance="node0/la",
                                 component_id=1)
            sampler.start_sampler("node0/la", interval=0.1)
            s_lst = sampler.listen("sock", ("127.0.0.1", 0))
            l1.add_producer("node0", "sock", ("127.0.0.1", s_lst.port),
                            interval=0.1)
            l1_lst = l1.listen("sock", ("127.0.0.1", 0))
            store = l2.add_store("memory")
            l2.add_producer("l1", "sock", ("127.0.0.1", l1_lst.port),
                            interval=0.1)
            assert wait_for(lambda: len(store.rows) >= 3)
            assert store.rows[-1].set_name == "node0/la"
        finally:
            l2.shutdown()
            l1.shutdown()
            sampler.shutdown()

    def test_reconnect_after_sampler_restart(self, synth_fs):
        agg = Ldmsd("agg0")
        sampler1 = Ldmsd("node0", fs=synth_fs)
        try:
            sampler1.load_sampler("loadavg", instance="node0/la",
                                  component_id=1)
            sampler1.start_sampler("node0/la", interval=0.1)
            lst1 = sampler1.listen("sock", ("127.0.0.1", 0))
            port = lst1.port
            store = agg.add_store("memory")
            agg.add_producer("node0", "sock", ("127.0.0.1", port),
                             interval=0.1, reconnect_interval=0.2)
            assert wait_for(lambda: len(store.rows) >= 2)
            n_before = len(store.rows)
            sampler1.shutdown()  # node "crashes"
            time.sleep(0.5)
            # Node comes back on the same port.
            host2 = HostModel("it1", clock=time.monotonic)
            sampler2 = Ldmsd("node0b", fs=host2.fs)
            try:
                sampler2.load_sampler("loadavg", instance="node0/la",
                                      component_id=1)
                sampler2.start_sampler("node0/la", interval=0.1)
                sampler2.listen("sock", ("127.0.0.1", port))
                assert wait_for(lambda: len(store.rows) >= n_before + 3)
            finally:
                sampler2.shutdown()
        finally:
            agg.shutdown()

    def test_peer_age_of_active_and_passive_producers(self, synth_fs):
        # The HELLO of either side of a connection stamps its daemon
        # clock, whichever side dialled: an advertised endpoint that
        # stamped host monotonic time anchored the passive producer's
        # peer clock off by the host's uptime.
        interval = 0.1
        active = Ldmsd("node0", fs=synth_fs)
        edge = Ldmsd("node1", fs=synth_fs)
        agg = Ldmsd("agg0")
        try:
            for cid, d in enumerate((active, edge), 1):
                d.load_sampler("loadavg", instance=f"{d.name}/la",
                               component_id=cid)
                d.start_sampler(f"{d.name}/la", interval=interval)
            s_lst = active.listen("sock", ("127.0.0.1", 0))
            a_lst = agg.listen("sock", ("127.0.0.1", 0))
            store = agg.add_store("memory")
            agg.add_producer("node0", "sock", ("127.0.0.1", s_lst.port),
                             interval=interval)
            agg.add_producer("node1", "sock", interval=interval,
                             passive=True)
            edge.advertise("sock", ("127.0.0.1", a_lst.port))

            def stored(name):
                return sum(r.producer == name for r in store.rows)

            assert wait_for(lambda: stored("node0") >= 3
                            and stored("node1") >= 3)
            for name in ("node0", "node1"):
                prod = agg.producers[name]
                with agg.lock:
                    mirror = prod.updaters[f"{name}/la"].mirror
                    age = prod.endpoint.peer_age(mirror.timestamp)
                assert age is not None and age < 10 * interval, (name, age)
        finally:
            agg.shutdown()
            edge.shutdown()
            active.shutdown()

    @pytest.mark.skipif(not RealFS().exists("/proc/meminfo"),
                        reason="no /proc on this platform")
    def test_real_proc_sampling(self):
        """Sample the actual /proc of the machine running the tests."""
        daemon = Ldmsd("realnode")  # default fs = RealFS
        try:
            daemon.load_sampler("meminfo", instance="real/mem",
                                component_id=1)
            daemon.start_sampler("real/mem", interval=0.1)
            mset = daemon.get_set("real/mem")
            assert wait_for(lambda: mset.dgn > 0)
            with open("/proc/meminfo") as f:
                for line in f:
                    if line.startswith("MemTotal:"):
                        actual = int(line.split()[1])
                        break
            assert mset.get("MemTotal") == actual
        finally:
            daemon.shutdown()


class TestFlushHandOff:
    """Deliveries append to a store's pending batch under the daemon
    lock while flush-pool threads seal it and decide whether to
    reschedule; a hand-off that loses the race strands or drops rows.
    Every row goes to two stores, so flush threads also race to fill
    the record slot the two batches share."""

    THREADS = 6  # more deliverers than cores
    PER_THREAD = 400

    def test_every_row_stored_and_pending_rows_always_scheduled(
            self, monkeypatch):
        # A tiny drain bound makes seal() split the pending list on
        # nearly every wakeup and keeps the flush task rescheduling.
        monkeypatch.setattr(ldmsd_mod, "FLUSH_BATCH_MAX", 3)
        total = self.THREADS * self.PER_THREAD
        unscheduled = []
        sealed_unlocked = []
        agg = Ldmsd("agg", transports={}, flush_threads=3)
        seal = ldmsd_mod._FlushBatch.seal

        def checked_seal(batch):
            # seal() splits batch.rows in two steps; an append between
            # them is lost unless the flush thread holds the lock.
            if not agg.lock._is_owned():
                sealed_unlocked.append(len(batch.rows))
            return seal(batch)

        monkeypatch.setattr(ldmsd_mod._FlushBatch, "seal", checked_seal)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stores = [agg.add_store("memory"), agg.add_store("memory")]
            mset = agg.create_set("p/s", "s",
                                  set_template(["v"], MetricType.U64), 1)
            prod = SimpleNamespace(cfg=SimpleNamespace(name="p"))

            def deliver(k):
                for i in range(self.PER_THREAD):
                    with agg.lock:  # as Producer._complete_update holds it
                        mset.set_all([k * self.PER_THREAD + i], float(i))
                        agg._deliver_to_stores(prod, mset, None,
                                               mset.timestamp,
                                               mset.data_bytes())
                        for batch in agg._flush_batches.values():
                            if batch.rows and not batch.scheduled:
                                unscheduled.append((k, i))
                    if i % 5 == 0:
                        time.sleep(0)  # let the flush task drain and idle

            threads = [threading.Thread(target=deliver, args=(k,))
                       for k in range(self.THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
            # No trailing delivery: whatever is pending must drain on
            # the flush task already scheduled for it.
            for store in stores:
                assert wait_for(lambda: store.records_stored == total), (
                    f"stranded: {store.records_stored}/{total} stored")
                assert (sorted(r.values[0] for r in store.rows)
                        == list(range(total)))
            assert unscheduled == []
            assert sealed_unlocked == []
        finally:
            sys.setswitchinterval(switch)
            agg.shutdown()

    def test_shutdown_waits_for_the_write_in_flight(self):
        # A flush task writes its sealed rows outside the daemon lock;
        # shutdown must let that write finish before it closes the
        # store under it (a close inside store_many lost rows on
        # sock_loopback when the flush threads ran slow).
        agg = Ldmsd("agg", transports={}, flush_threads=1)
        store = agg.add_store("memory")
        events = []
        entered, release = threading.Event(), threading.Event()
        store_many, close = store.store_many, store.close

        def blocking_store_many(records):
            events.append("store_many:enter")
            entered.set()
            release.wait(10.0)
            store_many(records)
            events.append(f"store_many:exit({len(records)})")

        def recording_close():
            events.append("close")
            close()

        store.store_many = blocking_store_many
        store.close = recording_close
        mset = agg.create_set("p/s", "s", set_template(["v"], MetricType.U64), 1)
        mset.set_all([7], 1.0)
        prod = SimpleNamespace(cfg=SimpleNamespace(name="p"))
        with agg.lock:
            agg._deliver_to_stores(prod, mset, None, mset.timestamp,
                                   mset.data_bytes())
        assert entered.wait(10.0)
        stopper = threading.Thread(target=agg.shutdown, daemon=True)
        stopper.start()
        try:
            # Shutdown gets every chance to close under the write.
            stopper.join(0.3)
        finally:
            release.set()
            stopper.join(10.0)
        assert not stopper.is_alive()
        assert events == ["store_many:enter", "store_many:exit(1)", "close"]
        assert store.records_stored == 1
        assert [r.values for r in store.rows] == [(7,)]
