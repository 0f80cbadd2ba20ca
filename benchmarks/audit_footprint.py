"""Where a producer's bytes sit: a ``tracemalloc`` audit of the fan-in knee.

Builds the ``fanin_knee`` topology (N sampler daemons x one 10-metric
``synthetic`` set -> one aggregator over ``sock`` -> ``memory`` store),
runs it to the first stored sample of every producer under
``tracemalloc`` and prints the traced bytes per sampler + producer pair
by source file and by line, then ``ru_maxrss``.  The by-file table is
the one in DESIGN.md "Footprint"; ``tests/test_footprint.py`` gates the
slope of the same topology.

    PYTHONPATH=src python benchmarks/audit_footprint.py --producers 1024
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import sys
import tracemalloc

METRICS = 10
INTERVAL = 5.0


def build(n: int):
    """The ledger's ``FaninKnee.setup()`` (identity registration order)."""
    from repro.core import Ldmsd, SimEnv
    from repro.sim.engine import Engine
    from repro.transport.base import get_transport_profile
    from repro.transport.simfabric import SimFabric, SimTransport

    eng = Engine()
    env = SimEnv(eng)
    fabric = SimFabric(eng)
    profile = get_transport_profile("sock")
    samplers = []
    for i in range(n):
        d = Ldmsd(f"n{i}", env=env,
                  transports={"sock": SimTransport(fabric, profile, node_id=i)},
                  mem=max(8 * 1024, 4096 + METRICS * 256),
                  workers=1, conn_threads=1, flush_threads=1)
        d.load_sampler("synthetic", instance=f"n{i}/syn", component_id=i + 1,
                       num_metrics=METRICS,
                       pattern="counter" if i % 2 else "constant")
        d.start_sampler(f"n{i}/syn", interval=INTERVAL)
        d.listen("sock", f"n{i}:411")
        samplers.append(d)
    one = samplers[0].get_set("n0/syn").total_size
    agg = Ldmsd("agg", env=env,
                transports={"sock": SimTransport(fabric, profile, node_id="agg")},
                mem=max(4 * 1024 * 1024, n * max(4096, one + 1024)),
                workers=8, conn_threads=4, flush_threads=2)
    store = agg.add_store("memory")
    for i in range(n):
        agg.add_producer(f"n{i}", "sock", f"n{i}:411", interval=INTERVAL,
                         sets=(f"n{i}/syn",))
    eng.run(until=1.75 * INTERVAL)
    if store.records_stored != n:
        raise SystemExit(f"{store.records_stored} sets stored, expected {n}")
    return samplers, agg


def _short(path: str) -> str:
    marker = os.sep + "repro" + os.sep
    cut = path.rfind(marker)
    return path[cut + 1:] if cut >= 0 else os.path.basename(path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--producers", type=int, default=1024)
    ap.add_argument("--top", type=int, default=25,
                    help="rows in the by-line table")
    args = ap.parse_args(argv)
    n = args.producers

    import repro.plugins  # noqa: F401  (imports are not a per-producer cost)

    gc.disable()  # as the ledger's setup does: nothing here is garbage
    tracemalloc.start()
    world = build(n)
    snap = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)])
    tracemalloc.stop()

    total = sum(s.size for s in snap.statistics("filename"))
    print(f"producers {n}: {total / 1e6:.2f} MB traced, "
          f"{total / n:,.0f} B per sampler + producer pair")
    print(f"\n{'B/pair':>9}  {'MB':>8}  file")
    for s in snap.statistics("filename")[:20]:
        print(f"{s.size / n:9,.0f}  {s.size / 1e6:8.2f}  "
              f"{_short(s.traceback[0].filename)}")
    print(f"\n{'B/pair':>9}  {'blocks/pair':>11}  line")
    for s in snap.statistics("lineno")[:args.top]:
        fr = s.traceback[0]
        print(f"{s.size / n:9,.0f}  {s.count / n:11.2f}  "
              f"{_short(fr.filename)}:{fr.lineno}")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"\nru_maxrss {rss:.1f} MB (includes tracemalloc's own tables)")
    del world
    return 0


if __name__ == "__main__":
    sys.exit(main())
