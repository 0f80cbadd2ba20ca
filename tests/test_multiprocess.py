"""LDMS between two processes: samplers in a child, the aggregator here.

A ``spawn`` child runs ``N`` sampler daemons, each serving one
``synthetic`` set on its own real ``sock`` listener.  It reports the
listeners' ports through a pipe and serves until the pipe closes, then
shuts its daemons down and exits.  The aggregator runs in the test
process and pulls every set into a memory store: the tracker must see
every interval it is owed, and the store one stream per (producer,
schema).  The harness (:func:`sampler_child`) is what multi-process
measurements reuse.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import contextmanager

import repro.plugins  # noqa: F401  (registers plugins)
from repro.core import Ldmsd

N = 8
#: Samplers sample 5x per aggregator pull, so every pull finds new data.
SAMPLE_INTERVAL = 0.1
PULL_INTERVAL = 0.5


def serve_samplers(conn, n: int, interval: float) -> None:
    """Child body: ``n`` sampler daemons on ephemeral 127.0.0.1 ports;
    sends the ports, then serves until the parent closes the pipe."""
    daemons = []
    try:
        ports = []
        for i in range(n):
            d = Ldmsd(f"n{i}", workers=1, conn_threads=1, flush_threads=1)
            daemons.append(d)
            d.load_sampler("synthetic", instance=f"n{i}/syn",
                           component_id=i + 1, num_metrics=8,
                           pattern="counter")
            d.start_sampler(f"n{i}/syn", interval=interval)
            ports.append(d.listen("sock", ("127.0.0.1", 0)).port)
        conn.send(ports)
        try:
            conn.recv()  # nothing is sent: returns when the pipe closes
        except EOFError:
            pass
    finally:
        for d in daemons:
            d.shutdown()
        conn.close()


@contextmanager
def sampler_child(n: int, interval: float):
    """Start :func:`serve_samplers` in a ``spawn`` child; yield its
    listener ports; on exit close the pipe and wait for the child."""
    ctx = multiprocessing.get_context("spawn")
    ours, theirs = ctx.Pipe()
    child = ctx.Process(target=serve_samplers, args=(theirs, n, interval),
                        name="ldms-samplers")
    child.start()
    theirs.close()
    try:
        if not ours.poll(30.0):
            raise TimeoutError("sampler child sent no ports")
        yield ours.recv()
    finally:
        ours.close()
        child.join(timeout=15.0)
        if child.is_alive():
            child.kill()
            child.join()
        child.close()


def test_aggregator_pulls_every_set_from_a_sampler_process():
    with sampler_child(N, SAMPLE_INTERVAL) as ports:
        assert len(ports) == N
        agg = Ldmsd("agg", workers=2, conn_threads=2, flush_threads=1)
        try:
            store = agg.add_store("memory")
            for i, port in enumerate(ports):
                agg.add_producer(f"n{i}", "sock", ("127.0.0.1", port),
                                 interval=PULL_INTERVAL, sets=(f"n{i}/syn",))
            time.sleep(6 * PULL_INTERVAL)
            with agg.lock:
                fleet = agg.freshness.fleet(agg.env.now())
                rows = list(store.rows)
        finally:
            agg.shutdown()
        obs = agg.stats()["obs"]
    assert multiprocessing.active_children() == []
    assert fleet["producers"] == N
    assert fleet["expected"] >= 4 * N
    assert fleet["completeness"] == 1.0, fleet
    streams: dict[tuple, list[float]] = {}
    for r in rows:
        streams.setdefault((r.producer, r.schema), []).append(r.timestamp)
    assert sorted(streams) == sorted((f"n{i}", "synthetic") for i in range(N))
    for ts in streams.values():
        assert ts == sorted(set(ts))  # one row per sampled transaction
    # Deliveries on worker threads staged each latency once, and flush
    # threads observed each staged value once.
    assert obs["histograms"]["pipeline.sample_to_store"]["count"] == (
        agg.records_delivered)
    assert obs["counters"]["store.flush_rows_batched"] == store.records_stored
