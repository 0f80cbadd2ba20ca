"""Per-layer microbenches: ``micro.*`` of the ledger.

Each bench times a *public* function of one layer in a fixed-count
loop, ``BATCHES`` times, and reports the median batch as ns (or us / ms)
per call.  ``micro.calib.loop_ns`` — a fixed pure-Python loop — is
always reported beside them, so a ratio ``micro.x / micro.calib.loop_ns``
travels between hosts where the absolute number does not.

Run alone: ``python benchmarks/ledger/micro.py`` (prints one JSON object).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time
from itertools import repeat

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"))

__all__ = ["run_micro", "MICRO_UNITS"]

BATCHES = 7

#: name -> unit; the names BENCHMARK.json lists under ``per_layer``.
MICRO_UNITS = {
    "micro.calib.loop_ns": "ns",
    "micro.plugins.samplers.synthetic10.sample_ns": "ns",
    "micro.plugins.samplers.synthetic194.sample_ns": "ns",
    "micro.plugins.samplers.meminfo.sample_ns": "ns",
    "micro.core.metric_set.set_all_194_ns": "ns",
    "micro.core.metric_set.data_bytes_194_ns": "ns",
    "micro.core.metric_set.peek_data_header_ns": "ns",
    "micro.core.metric_set.apply_data_194_ns": "ns",
    "micro.core.metric_set.values_tuple_194_ns": "ns",
    "micro.core.store.record_from_set_194_ns": "ns",
    "micro.core.wire.encode_frame_2k_ns": "ns",
    "micro.core.wire.decoder_feed_64x2k_ns_per_frame": "ns",
    "micro.core.wire.read_multi_32_roundtrip_ns": "ns",
    "micro.core.wire.query_reply_512rows_roundtrip_ns": "ns",
    "micro.sim.engine.call_later_dispatch_ns": "ns",
    "micro.sim.engine.periodic_tick_ns": "ns",
    "micro.transport.simfabric.rdma_read_host_ns": "ns",
    "micro.transport.sock.update_rtt_us": "us",
    "micro.transport.sock.connect_lookup_ms": "ms",
    "micro.plugins.stores.csv.store_many_194_ns_per_row": "ns",
    "micro.plugins.stores.sos.store_8_rollups_ns_per_row": "ns",
    "micro.plugins.stores.sos.range_ns_per_row": "ns",
    "micro.plugins.stores.memory.store_many_10_ns_per_row": "ns",
    "micro.query.engine.query_hot_us": "us",
    "micro.query.engine.query_lru_us": "us",
    "micro.query.engine.query_scan_us": "us",
    "micro.core.ldmsd.build_daemon_us": "us",
}


class _Bench:
    """``bench(fn, loops, per)``: median over ``batches`` of the wall of
    ``loops`` calls, in ns per (call x ``per``)."""

    def __init__(self, batches: int):
        self.batches = batches

    def __call__(self, fn, loops: int, per: int = 1) -> float:
        clock = time.perf_counter_ns
        samples = []
        for _ in range(self.batches):
            t0 = clock()
            for _ in repeat(None, loops):
                fn()
            samples.append((clock() - t0) / (loops * per))
        return statistics.median(samples)


def _calib_loop() -> None:
    x = 0
    for i in range(20_000):
        x += i & 7


def _make_set(n: int, name: str = "n0/bench"):
    from repro.core.memory import Arena
    from repro.core.metric import MetricType
    from repro.core.metric_set import MetricSet

    return MetricSet.create(
        name, "bench",
        [(f"metric_{i:03d}", MetricType.U64, 1) for i in range(n)],
        Arena(1 << 20))


def _sim_daemon(name: str, fs=None):
    from repro.core import Ldmsd, SimEnv
    from repro.sim.engine import Engine

    return Ldmsd(name, env=SimEnv(Engine()), transports={}, fs=fs)


def _samplers(out: dict, bench: _Bench) -> None:
    from repro.nodefs.host import HostModel

    for n in (10, 194):
        plugin = _sim_daemon(f"s{n}").load_sampler(
            "synthetic", instance=f"s{n}/syn", component_id=1, num_metrics=n)
        out[f"micro.plugins.samplers.synthetic{n}.sample_ns"] = bench(
            lambda: plugin.sample(1.0), 2000 if n == 10 else 400)
    host = HostModel("m0", clock=lambda: 0.0)
    plugin = _sim_daemon("m0", fs=host.fs).load_sampler(
        "meminfo", instance="m0/meminfo", component_id=1)
    out["micro.plugins.samplers.meminfo.sample_ns"] = bench(
        lambda: plugin.sample(1.0), 300)


def _metric_set_and_store(out: dict, bench: _Bench) -> None:
    from repro.core.memory import Arena
    from repro.core.metric_set import MetricSet
    from repro.core.store import StoreRecord

    mset = _make_set(194)
    values = list(range(194))
    mset.set_all(values, 1.0)
    mirror = MetricSet.from_meta(mset.meta_bytes(), Arena(1 << 20))
    data = mset.data_bytes()
    mirror.apply_data(data)
    pre = "micro.core.metric_set."
    out[pre + "set_all_194_ns"] = bench(
        lambda: mset.set_all(values, 1.0), 1000)
    out[pre + "data_bytes_194_ns"] = bench(mset.data_bytes, 20000)
    out[pre + "peek_data_header_ns"] = bench(
        lambda: mirror.peek_data_header(data), 20000)
    out[pre + "apply_data_194_ns"] = bench(
        lambda: mirror.apply_data(data), 20000)
    out[pre + "values_tuple_194_ns"] = bench(mirror.values_tuple, 5000)
    out["micro.core.store.record_from_set_194_ns"] = bench(
        lambda: StoreRecord.from_set(mirror, "n0"), 3000)


def _wire(out: dict, bench: _Bench) -> None:
    from repro.core import wire

    payload = bytes(2048)
    pre = "micro.core.wire."
    out[pre + "encode_frame_2k_ns"] = bench(
        lambda: wire.encode_frame(wire.MsgType.UPDATE_REPLY, 7, payload), 20000)
    burst = b"".join(wire.encode_frame(wire.MsgType.UPDATE_REPLY, i, payload)
                     for i in range(64))
    decoder = wire.FrameDecoder()
    out[pre + "decoder_feed_64x2k_ns_per_frame"] = bench(
        lambda: decoder.feed(burst), 100, per=64)
    ids = list(range(1, 33))
    parts = [bytes(64 * 8 + 32)] * 32

    def read_multi() -> None:
        wire.unpack_read_multi_req(wire.pack_read_multi_req(ids))
        wire.unpack_read_multi_reply(wire.pack_read_multi_reply(parts))

    out[pre + "read_multi_32_roundtrip_ns"] = bench(read_multi, 1000)
    names = tuple(f"metric_{i}" for i in range(8))
    rows = [(float(i), i % 64 + 1, tuple(float(j) for j in range(8)))
            for i in range(512)]

    def query_reply() -> None:
        wire.unpack_query_reply(wire.pack_query_reply(wire.E_OK, names, rows, 0))

    out[pre + "query_reply_512rows_roundtrip_ns"] = bench(query_reply, 30)


def _engine_and_fabric(out: dict, bench: _Bench) -> None:
    from repro.sim.engine import Engine
    from repro.transport.simfabric import SimFabric, SimTransport

    def noop() -> None:
        pass

    n = 20000

    def dispatch() -> None:
        eng = Engine()
        for i in range(n):
            eng.call_later(i * 1e-6, noop)
        eng.run()

    out["micro.sim.engine.call_later_dispatch_ns"] = bench(
        dispatch, 1, per=n)

    def periodic() -> None:
        eng = Engine()
        for _ in range(100):
            eng.schedule_periodic(1.0, noop)
        eng.run(until=200.5)

    out["micro.sim.engine.periodic_tick_ns"] = bench(
        periodic, 1, per=100 * 200)

    # Two-endpoint DES ping: host time of one rdma_read completion
    # (request hop, target read, reply hop), issued back to back.
    eng = Engine()
    fabric = SimFabric(eng)
    target, initiator = (SimTransport(fabric, "sock", node_id=i) for i in (0, 1))
    served = []
    target.listen("t:1", served.append)
    ends = []
    initiator.connect("t:1", ends.append)
    eng.run()
    blob = bytes(10 * 8 + 32)
    served[0].register_region(1, lambda: blob)
    ep = ends[0]
    reads = 5000

    def ping() -> None:
        left = [reads]

        def done(_data) -> None:
            left[0] -= 1
            if left[0]:
                ep.rdma_read(1, done)

        ep.rdma_read(1, done)
        eng.run()

    out["micro.transport.simfabric.rdma_read_host_ns"] = bench(
        ping, 1, per=reads)


def _sock(out: dict, bench: _Bench) -> None:
    from repro.cli.client import SyncClient
    from repro.core import Ldmsd, wire
    from repro.core.env import RealEnv
    from repro.transport.sock import SockTransport

    env = RealEnv()
    d = Ldmsd("m", env=env, transports={"sock": SockTransport()}, mem="1MB",
              workers=1, conn_threads=1, flush_threads=1)
    try:
        d.load_sampler("synthetic", instance="m/syn", component_id=1,
                       num_metrics=64).sample(1.0)
        port = d.listen("sock", ("127.0.0.1", 0)).port
        lookup = wire.encode_frame(wire.MsgType.LOOKUP_REQ, 1,
                                   wire.pack_lookup_req("m/syn"))
        region = []

        def connect_lookup() -> None:
            client = SyncClient("127.0.0.1", port)
            try:
                reply = client.request(lookup)
                status, rid, _meta = wire.unpack_lookup_reply(reply.payload)
                if status != wire.E_OK:
                    raise RuntimeError("micro: lookup failed")
                region[:] = [rid]
            finally:
                client.ep.close()

        out["micro.transport.sock.connect_lookup_ms"] = (
            bench(connect_lookup, 5) / 1e6)
        client = SyncClient("127.0.0.1", port)
        try:
            client.request(lookup)

            def update() -> None:
                if client.read_region(region[0]) is None:
                    raise RuntimeError("micro: region read failed")

            out["micro.transport.sock.update_rtt_us"] = (
                bench(update, 300) / 1e3)
        finally:
            client.ep.close()
    finally:
        d.shutdown()
        env.shutdown()


def _records(n_rows: int, n_metrics: int, t0: float = 0.0) -> list:
    from repro.core.store import StoreRecord

    mset = _make_set(n_metrics, "n0/rec")
    mset.set_all(list(range(n_metrics)), 1.0)
    proto = StoreRecord.from_set(mset, "n0")
    return [
        StoreRecord(timestamp=t0 + i // 64, producer=f"n{i % 64}",
                    set_name=f"n{i % 64}/rec", schema=proto.schema,
                    names=proto.names,
                    component_ids=(i % 64 + 1,) * n_metrics,
                    values=proto.values, mtypes=proto.mtypes)
        for i in range(n_rows)
    ]


def _stores_and_query(out: dict, bench: _Bench, tmpdir: str) -> None:
    from repro.core import wire
    from repro.plugins.stores.csv_store import CsvStore
    from repro.plugins.stores.memstore import MemoryStore
    from repro.plugins.stores.sos import SosReader, SosStore
    from repro.query.engine import QueryEngine

    pre = "micro.plugins.stores."
    csv = CsvStore()
    csv.config(path=os.path.join(tmpdir, "csv"))
    wide = _records(256, 194)
    out[pre + "csv.store_many_194_ns_per_row"] = bench(
        lambda: csv.store_many(wide), 2, per=len(wide))
    csv.close()

    mem = MemoryStore()
    mem.config()
    narrow = _records(4096, 10)
    out[pre + "memory.store_many_10_ns_per_row"] = bench(
        lambda: mem.store_many(narrow), 20, per=len(narrow))

    # SOS ingest with both rollup levels; 64 components, 1 s cadence.
    # Timestamps keep advancing across batches so rollup buckets seal
    # the way they do on a live stream.
    sos = SosStore()
    sos.config(path=os.path.join(tmpdir, "sos"), rollups="10,60")
    clock = [0.0]
    engine = QueryEngine(sos, lambda: clock[0], hot_window=30,
                         cache_entries=256)
    seconds = 20

    def ingest() -> None:
        batch = _records(64 * seconds, 8, t0=clock[0])
        t = time.perf_counter_ns()
        sos.store_many(batch)
        ingest.ns += time.perf_counter_ns() - t
        clock[0] += seconds

    ingest.ns = 0
    samples = []
    for _ in range(BATCHES):  # always: the queries below need the history
        ingest.ns = 0
        ingest()
        samples.append(ingest.ns / (64 * seconds))
    out[pre + "sos.store_8_rollups_ns_per_row"] = statistics.median(samples)

    sos.flush()
    reader = SosReader(sos.path, "bench")
    n_range = len(reader.range(0.0, 60.0))
    out[pre + "sos.range_ns_per_row"] = bench(
        lambda: reader.range(0.0, 60.0), 2, per=n_range)

    now = clock[0]
    pre = "micro.query.engine."

    def expect(source: str, res) -> None:
        if res.status != wire.E_OK or res.source != source or not res.rows:
            raise RuntimeError(
                f"micro: expected a {source!r} answer, got {res.source!r}")

    expect("hot", engine.query("bench", now - 10.0, now))
    out[pre + "query_hot_us"] = bench(
        lambda: engine.query("bench", now - 10.0, now), 50) / 1e3
    engine.query("bench", 0.0, 10.0)
    expect("lru", engine.query("bench", 0.0, 10.0))
    out[pre + "query_lru_us"] = bench(
        lambda: engine.query("bench", 0.0, 10.0), 2000) / 1e3
    # A fresh window per call, older than the hot window: always a scan.
    starts = iter(range(1, 10_000_000))

    def scan() -> None:
        t0 = (next(starts) % 9000) * 0.01
        expect("scan", engine.query("bench", t0, t0 + 10.0))

    out[pre + "query_scan_us"] = bench(scan, 20) / 1e3
    sos.close()


def _build_daemon(out: dict, bench: _Bench) -> None:
    from repro.core import Ldmsd, SimEnv
    from repro.sim.engine import Engine
    from repro.transport.simfabric import SimFabric, SimTransport

    n = 200

    def build() -> None:
        eng = Engine()
        env = SimEnv(eng)
        fabric = SimFabric(eng)
        for i in range(n):
            x = SimTransport(fabric, "sock", node_id=i)
            d = Ldmsd(f"n{i}", env=env, transports={"sock": x}, mem=8 * 1024,
                      workers=1, conn_threads=1, flush_threads=1)
            d.load_sampler("synthetic", instance=f"n{i}/syn",
                           component_id=i + 1, num_metrics=10)
            d.start_sampler(f"n{i}/syn", interval=5.0)
            d.listen("sock", f"n{i}:411")

    out["micro.core.ldmsd.build_daemon_us"] = (
        bench(build, 1, per=n) / 1e3)


def run_micro(tmpdir: str, batches: int = BATCHES) -> dict[str, float]:
    """Run every microbench; returns ``name -> value`` in MICRO_UNITS."""
    bench = _Bench(batches)
    out: dict[str, float] = {}
    out["micro.calib.loop_ns"] = bench(_calib_loop, 20, per=20_000)
    _samplers(out, bench)
    _metric_set_and_store(out, bench)
    _wire(out, bench)
    _engine_and_fabric(out, bench)
    _sock(out, bench)
    _stores_and_query(out, bench, tmpdir)
    _build_daemon(out, bench)
    missing = set(MICRO_UNITS) - set(out)
    if missing or set(out) - set(MICRO_UNITS):
        raise RuntimeError(f"micro: name mismatch {missing} / "
                           f"{set(out) - set(MICRO_UNITS)}")
    return out


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    os.makedirs(os.path.join(here, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(here, "out")) as tmp:
        t_start = time.perf_counter()
        results = run_micro(tmp)
    print(json.dumps({
        "micro": {k: {"value": v, "unit": MICRO_UNITS[k]}
                  for k, v in results.items()},
        "wall_s": time.perf_counter() - t_start,
    }, indent=1))
