"""Quickstart: a real sampler -> aggregator -> CSV store pipeline.

Runs two ldmsd instances *in this process on real threads and real TCP
sockets*: a sampler reading this host's /proc (falling back to a
synthetic host model when /proc is absent) at 1-second intervals, and
an aggregator pulling the metric sets and storing them to CSV.

    python examples/quickstart.py

Output lands in ./quickstart_out/, replaced on every run.  Exits 1
unless something was stored and every CSV file holds a data row.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

from repro import obs
from repro.core import Ldmsd
from repro.nodefs.fs import RealFS


def pick_fs():
    real = RealFS()
    if real.exists("/proc/meminfo") and real.exists("/proc/stat"):
        return real, "this host's /proc"
    from repro.nodefs.host import HostModel

    host = HostModel("synth0", clock=time.monotonic)
    return host.fs, "a synthetic host model"


def main() -> int:
    fs, source = pick_fs()
    print(f"sampling {source} every second for 5 seconds...")

    # --- the sampler daemon -------------------------------------------------
    sampler = Ldmsd("node0", fs=fs)
    for plugin, instance in [("meminfo", "node0/meminfo"),
                             ("procstat", "node0/procstat"),
                             ("loadavg", "node0/loadavg"),
                             ("ldmsd_self", "node0/ldmsd_self")]:
        sampler.load_sampler(plugin, instance=instance, component_id=1)
        sampler.start_sampler(instance, interval=1.0)
    listener = sampler.listen("sock", ("127.0.0.1", 0))
    port = listener.port
    print(f"sampler listening on 127.0.0.1:{port}")

    # --- the aggregator daemon ------------------------------------------------
    outdir = os.path.join(os.path.dirname(__file__) or ".", "quickstart_out")
    shutil.rmtree(outdir, ignore_errors=True)  # CSV files append
    aggregator = Ldmsd("agg0")
    store = aggregator.add_store("store_csv", path=outdir, buffer_lines=1)
    aggregator.add_producer("node0", "sock", ("127.0.0.1", port),
                            interval=1.0)

    time.sleep(5.0)
    store.flush()
    stats = aggregator.stats()["producers"]["node0"]
    print(f"updates completed: {stats['updates_completed']}, "
          f"stored: {stats['stored']}")
    problems = [] if stats["stored"] > 0 else ["nothing stored"]
    for fname in sorted(os.listdir(outdir)) if os.path.isdir(outdir) else ():
        path = os.path.join(outdir, fname)
        with open(path) as f:
            lines = f.readlines()
        print(f"\n{path} ({len(lines)} lines):")
        for line in lines[:3]:
            print("  " + line.rstrip()[:110])
        if fname.endswith(".csv") and not any(
                not line.startswith("Time,") for line in lines):
            problems.append(f"{path} has no data row")

    # The sampler daemon monitors itself: its ldmsd_self set travelled
    # the same pull/store pipeline as meminfo.  Render its final state.
    self_set = sampler.get_set("node0/ldmsd_self")
    print("\nnode0/ldmsd_self (the daemon's own pipeline health):")
    print(obs.render(self_set.as_dict()))

    aggregator.shutdown()
    sampler.shutdown()
    for problem in problems:
        print(f"quickstart FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
