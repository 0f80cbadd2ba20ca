"""A DES world replays byte for byte under any hash seed.

Iterating a set of strings (or anything ordered by one) follows
``PYTHONHASHSEED``, which a test process fixes only by accident.  Where
that order reaches the wire or a store — a DIR listing, a metric layout
— a run replays identically under one hash seed and differently under
another, and no single run can tell.  So one small world is run in two
subprocesses under two fixed hash seeds, and every frame on the
simulated wire (engine time, source, destination, bytes) and every
stored row must hash the same — and equal the digest pinned here, so
a change to the history shows even when it moves both seeds alike.

Run as a script, the module prints the world's digest as JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import repro.plugins  # noqa: F401  (registers plugins)
from repro.core import Ldmsd, SimEnv
from repro.nodefs import GpcdrModel, HostModel, HostProfile
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport

SRC = str(Path(__file__).resolve().parents[1] / "src")
HASH_SEEDS = ("0", "1")
#: llite filesystems on the node: bw_custom and lustre lay out one
#: metric group per filesystem.
LUSTRE_MOUNTS = tuple(f"snx{11000 + i}" for i in range(6))
SAMPLERS = ("meminfo", "procstat", "loadavg", "lustre", "lnet", "nfs",
            "ethernet", "bw_custom")
#: The world's digest, pinned: a change that moves a frame or a stored
#: row moves it, under every hash seed alike.
WORLD_DIGEST = {
    "sets": 8, "frames": 20, "rows": 40,
    "wire": "98a39d1a4a08be72723d156b2b74c8601f9eb78616a84e6930a7d18c0f005d95",
    "stored": "9cc9e848432ad7c6b519a6c7e7c5b196b1dd0184e18bed34e03d51b0b6da8318",
}


def world_digest() -> dict:
    """One sampler daemon with a set per sampler, pulled by an
    aggregator into a memory store for 5.5 simulated seconds."""
    eng = Engine()
    env = SimEnv(eng)
    fabric = SimFabric(eng)
    wire = hashlib.sha256()
    frames = 0

    def record(src, dst, frame) -> bool:
        nonlocal frames
        frames += 1
        wire.update(f"{eng.now!r} {src} {dst} {len(frame)}|".encode())
        wire.update(frame)
        return False  # record, never drop

    fabric.faults.add_filter(record)
    host = HostModel("n0", clock=env.now,
                     profile=HostProfile(lustre_mounts=LUSTRE_MOUNTS), seed=3)
    GpcdrModel(clock=env.now, fs=host.fs)
    sampler = Ldmsd("n0", env=env, fs=host.fs,
                    transports={"sock": SimTransport(fabric, "sock", node_id="n0")})
    for plugin in SAMPLERS:
        sampler.load_sampler(plugin, instance=f"n0/{plugin}", component_id=1)
        sampler.start_sampler(f"n0/{plugin}", interval=1.0)
    sampler.listen("sock", "n0:411")
    agg = Ldmsd("agg", env=env,
                transports={"sock": SimTransport(fabric, "sock", node_id="agg")})
    store = agg.add_store("memory")
    agg.add_producer("n0", "sock", "n0:411", interval=1.0)
    eng.run(until=5.5)
    rows = hashlib.sha256()
    for r in store.rows:
        rows.update(repr(tuple(r[:7])).encode())
    return {"sets": len(sampler.dir_info()), "frames": frames,
            "rows": len(store.rows), "wire": wire.hexdigest(),
            "stored": rows.hexdigest()}


def test_wire_and_rows_do_not_depend_on_the_hash_seed():
    procs = [subprocess.Popen(
        [sys.executable, __file__], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC))
        for seed in HASH_SEEDS]
    runs = []
    for proc in procs:
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        runs.append(json.loads(out))
    first = runs[0]
    assert first["sets"] == len(SAMPLERS)
    assert first["rows"] >= 4 * len(SAMPLERS)
    assert runs[1] == first
    assert first == WORLD_DIGEST


if __name__ == "__main__":
    print(json.dumps(world_digest()))
