"""LDMS between two processes: samplers in a child, the aggregator here.

A ``spawn`` child runs ``N`` sampler daemons, each serving one
``synthetic`` set on its own real ``sock`` listener.  It reports the
listeners' ports through a pipe and serves until the pipe closes, then
shuts its daemons down and exits.  The aggregator runs in the test
process and pulls every set into a memory store: the tracker must see
every interval it is owed, and the store one stream per (producer,
schema).  The harness (:func:`sampler_child`) is what multi-process
measurements reuse.

A real daemon never loads numpy: the child says whether it has after
serving, and a fresh interpreter runs an aggregator over real sockets
into every store kind a real deployment writes, beside the real-/proc
samplers, and says the same.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import repro
import repro.plugins  # noqa: F401  (registers plugins)
from repro.core import Ldmsd

N = 8
#: Samplers sample 5x per aggregator pull, so every pull finds new data.
SAMPLE_INTERVAL = 0.1
PULL_INTERVAL = 0.5


def serve_samplers(conn, n: int, interval: float) -> None:
    """Child body: ``n`` sampler daemons on ephemeral 127.0.0.1 ports;
    sends the ports, then serves until the parent closes the pipe,
    answering each message with whether numpy is loaded."""
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
        while True:
            try:
                conn.recv()
            except EOFError:  # the parent closed the pipe
                break
            conn.send("numpy" in sys.modules)
    finally:
        for d in daemons:
            d.shutdown()
        conn.close()


@contextmanager
def sampler_child(n: int, interval: float):
    """Start :func:`serve_samplers` in a ``spawn`` child; yield its
    listener ports and the pipe (:func:`child_loaded_numpy`); on exit
    close the pipe and wait for the child."""
    ctx = multiprocessing.get_context("spawn")
    ours, theirs = ctx.Pipe()
    child = ctx.Process(target=serve_samplers, args=(theirs, n, interval),
                        name="ldms-samplers")
    child.start()
    theirs.close()
    try:
        if not ours.poll(30.0):
            raise TimeoutError("sampler child sent no ports")
        yield ours.recv(), ours
    finally:
        ours.close()
        child.join(timeout=15.0)
        if child.is_alive():
            child.kill()
            child.join()
        child.close()


def child_loaded_numpy(conn) -> bool:
    """Whether the :func:`sampler_child` at the end of ``conn`` has
    imported numpy."""
    conn.send(None)
    if not conn.poll(15.0):
        raise TimeoutError("sampler child did not answer")
    return conn.recv()


def test_aggregator_pulls_every_set_from_a_sampler_process():
    with sampler_child(N, SAMPLE_INTERVAL) as (ports, conn):
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
        assert child_loaded_numpy(conn) is False
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


#: Run in a fresh interpreter by the test below: argv is the child's
#: ports (JSON) and an output directory; prints one JSON line.
REAL_DAEMONS = """
import json, os, sys, time
from repro.core import Ldmsd
import repro.plugins  # registers plugins

ports, out = json.loads(sys.argv[1]), sys.argv[2]
node = Ldmsd("node0", workers=1, conn_threads=1, flush_threads=1)
for plugin in ("meminfo", "procstat", "loadavg", "ldmsd_self"):
    node.load_sampler(plugin, instance=f"node0/{plugin}", component_id=1)
    node.start_sampler(f"node0/{plugin}", interval=0.1)
port = node.listen("sock", ("127.0.0.1", 0)).port
agg = Ldmsd("agg", workers=2, conn_threads=2, flush_threads=1)
stores = {
    "store_csv": agg.add_store("store_csv", path=os.path.join(out, "csv"),
                               buffer_lines=1),
    "memory": agg.add_store("memory"),
    "sos": agg.add_store("sos", path=os.path.join(out, "sos")),
}
agg.add_producer("node0", "sock", ("127.0.0.1", port), interval=0.25)
for i, p in enumerate(ports):
    agg.add_producer(f"n{i}", "sock", ("127.0.0.1", p), interval=0.25,
                     sets=(f"n{i}/syn",))
deadline = time.monotonic() + 20.0
while time.monotonic() < deadline and len(
        {r.schema for r in list(stores["memory"].rows)}) < 5:
    time.sleep(0.05)
agg.shutdown()
node.shutdown()
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "stored": {k: s.records_stored for k, s in stores.items()},
    "schemas": sorted({r.schema for r in stores["memory"].rows}),
}))
"""


def test_real_daemons_never_load_numpy(tmp_path):
    """A RealEnv aggregator pulling from the sampler child over real
    sockets into csv, memory and sos stores, beside the real-/proc
    samplers, stores rows and never imports numpy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    dev = ["-X", "dev"] if sys.flags.dev_mode else []
    with sampler_child(2, SAMPLE_INTERVAL) as (ports, conn):
        proc = subprocess.run(
            [sys.executable, *dev, "-c", REAL_DAEMONS, json.dumps(ports),
             str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=60)
        child_numpy = child_loaded_numpy(conn)
    sys.stderr.write(proc.stderr)  # dev mode's warnings reach the log
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["schemas"] == [
        "ldmsd_self", "loadavg", "meminfo", "procstat", "synthetic"]
    assert all(n > 0 for n in report["stored"].values()), report
    assert report["numpy"] is False
    assert child_numpy is False
