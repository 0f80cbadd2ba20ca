"""§IV-A fan-in limits and §IV-D aggregator utilization.

The paper: "The maximum fan-in varies by transport but is roughly
9,000:1 for the socket transport in general and for the RDMA transport
over Infiniband.  It is > 15,000:1 for RDMA over Cray's Gemini
transport.  ...  Fan-in at higher levels is limited by the aggregator
host capabilities."

The transport-level bound is endpoint capacity (file descriptors / QP
contexts / Gemini endpoints) — a per-transport constant in our
profiles, exercised here with a DES sweep: N sampler daemons against
one aggregator; collection completeness collapses once N exceeds the
transport's connection capacity.

The sweep runs at **full scale by default**: the engine's bare timers
and the coalesced update/flush paths make a ≥9,000-sampler sock sweep
tractable in one process, so no capacity down-scaling is needed to find
the knee at the real profile constant.  Pass ``scale > 1`` (CLI:
``--scale``) to divide the profile capacities for a quick smoke sweep;
the reported *full-scale* knee is then ``knee × scale`` while the
*simulated* knee stays in sweep units.

Also measured: aggregator update-pipeline CPU (worker-pool busy
fraction), reproducing the §IV-D observation that a first-level Chama
aggregator uses ~0.1% of a core while the Blue Waters configuration
(6,912 sets/minute with CSV storage) runs far hotter.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
from dataclasses import dataclass, replace

from repro.core import Ldmsd, SimEnv
from repro.experiments.common import PAPER, print_header, print_table
from repro.sim.engine import Engine
from repro.transport.base import get_transport_profile
from repro.transport.simfabric import SimFabric, SimTransport
from repro.util import timeutil

__all__ = [
    "FaninPoint",
    "default_sizes",
    "run_point",
    "sweep_transport",
    "max_fanin",
    "aggregator_utilization",
    "main",
]

#: Sweep sizes as fractions of the transport's connection capacity:
#: well below, approaching, at, and past the knee.
_SIZE_FRACTIONS = (0.35, 0.70, 0.90, 1.00, 1.11)


@dataclass(frozen=True)
class FaninPoint:
    transport: str
    n_samplers: int
    connected: int
    completeness: float  # stored rows / expected rows (ground truth)
    refused: int
    #: The aggregator's live :class:`~repro.obs.freshness.FreshnessTracker`
    #: reading at sweep end — must equal ``completeness`` exactly: the
    #: tracker counts the same delivered updates against the same
    #: elapsed-time expectation the ground truth uses.
    tracker_completeness: float = 1.0


def default_sizes(xprt: str, scale: int = 1) -> list[int]:
    """Sweep sizes bracketing the knee at ``capacity // scale``."""
    cap = get_transport_profile(xprt).max_connections // scale
    return [max(int(cap * f), 1) for f in _SIZE_FRACTIONS]


def _build(n_samplers: int, xprt: str, interval: float, metrics: int,
           duration: float, scale: int = 1):
    eng = Engine()
    env = SimEnv(eng)
    fabric = SimFabric(eng)
    profile = get_transport_profile(xprt)
    if scale > 1:
        profile = replace(profile, max_connections=max(profile.max_connections // scale, 1))
    samplers = []
    for i in range(n_samplers):
        x = SimTransport(fabric, profile, node_id=i)
        # "A few kB" per sampler (§IV-D): size the arena to the actual
        # set (descriptors + data + headers, ~256 B/metric with slack)
        # instead of a fat default — keeps a ≥9,000-daemon sweep
        # cache-resident instead of spending ~600 MB on idle arena
        # pages, while still fitting the 194-metric utilization runs.
        d = Ldmsd(f"n{i}", env=env, transports={xprt: x},
                  mem=max(8 * 1024, 4096 + metrics * 256),
                  workers=1, conn_threads=1, flush_threads=1)
        d.load_sampler("synthetic", instance=f"n{i}/syn", component_id=i + 1,
                       num_metrics=metrics)
        d.start_sampler(f"n{i}/syn", interval=interval)
        d.listen(xprt, f"n{i}:411")
        samplers.append(d)
    agg_x = SimTransport(fabric, profile, node_id="agg")
    agg = Ldmsd("agg", env=env, transports={xprt: agg_x},
                mem=max(4 * 1024 * 1024, n_samplers * 4096),
                workers=8, conn_threads=4, flush_threads=2)
    store = agg.add_store("memory")
    for i in range(n_samplers):
        agg.add_producer(f"n{i}", xprt, f"n{i}:411", interval=interval,
                         sets=(f"n{i}/syn",))
    return eng, env, agg, agg_x, store


def _rows_digest(store) -> str:
    """SHA-256 over the stored rows — the byte-identity fingerprint the
    sharded A/B gate compares across ``REPRO_SHARDS`` settings."""
    h = hashlib.sha256()
    for r in store.rows:
        vals = (tuple(r.values.items()) if hasattr(r.values, "items")
                else tuple(r.values))
        h.update(repr((r.timestamp, r.producer, r.set_name, vals)).encode())
    return h.hexdigest()


def run_point(n: int, xprt: str, interval: float = 5.0, metrics: int = 10,
              duration: float = 30.0, scale: int = 1,
              digest: bool = False) -> tuple[FaninPoint, dict]:
    """One sweep point, self-contained in this process.

    Returns ``(point, info)`` where ``info`` carries the engine event
    count, the per-phase wall breakdown (``build_s`` topology
    construction, ``rampup_s`` first collection interval — connect storm
    plus set discovery, ``steady_s`` the remaining steady-state
    intervals) and, when ``digest=True``, the SHA-256 of the stored rows
    for cross-process byte-identity checks.  Being self-contained is
    what makes sweep points *disjoint shards*: the sharded sweep runs
    the very same function on the very same inputs in a worker process.
    """
    # Building ≥9,000 daemons allocates enough to trigger dozens of
    # full generational collections that free nothing; pause the
    # cyclic collector for the point (refcounting reclaims each
    # point's topology as soon as it goes out of scope).
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        t0 = timeutil.perf_counter()
        eng, env, agg, agg_x, store = _build(n, xprt, interval, metrics,
                                             duration, scale=scale)
        t1 = timeutil.perf_counter()
        eng.run(until=min(interval, duration))
        t2 = timeutil.perf_counter()
        eng.run(until=duration)
        t3 = timeutil.perf_counter()
    finally:
        if paused:
            gc.enable()
    expected = n * (duration / interval - 1)  # first interval ramps up
    connected = sum(1 for p in agg.producers.values() if p.connected)
    point = FaninPoint(
        transport=xprt,
        n_samplers=n,
        connected=connected,
        completeness=min(len(store.rows) / expected, 1.0),
        refused=agg_x.refused_connections,
        tracker_completeness=agg.freshness.fleet(
            env.now())["completeness"],
    )
    info = {
        "events": eng.events_processed + eng.vectorized_events,
        "build_s": t1 - t0,
        "rampup_s": t2 - t1,
        "steady_s": t3 - t2,
    }
    if digest:
        info["digest"] = _rows_digest(store)
    return point, info


def sweep_transport(xprt: str, sizes: list[int] | None = None,
                    interval: float = 5.0, metrics: int = 10,
                    duration: float = 30.0, scale: int = 1,
                    nshards: int | None = None) -> list[FaninPoint]:
    """Run the fan-in sweep; ``sizes=None`` derives them from the
    transport's (possibly scaled) capacity via :func:`default_sizes`.

    ``nshards`` (default: the ``REPRO_SHARDS`` toggle) >= 2 runs the
    points as disjoint shards across forked workers — each point is a
    self-contained world, so the per-point results are byte-identical
    to the inline sweep.
    """
    from repro.sim.shard import maybe_parallel

    if sizes is None:
        sizes = default_sizes(xprt, scale)

    def job(n: int) -> FaninPoint:
        return run_point(n, xprt, interval, metrics, duration, scale)[0]

    return maybe_parallel(job, sizes, nshards)


def max_fanin(points: list[FaninPoint], floor: float = 0.99) -> int:
    """Largest sweep size with near-complete collection."""
    ok = [p.n_samplers for p in points if p.completeness >= floor]
    return max(ok) if ok else 0


@dataclass(frozen=True)
class AggUtilization:
    label: str
    sets_per_interval: int
    interval: float
    core_pct: float
    arena_bytes: int


def aggregator_utilization(n_samplers: int = 64, interval: float = 20.0,
                           metrics: int = 467 // 7,
                           duration: float = 200.0,
                           label: str = "chama-L1") -> AggUtilization:
    """Worker+flush busy fraction of one aggregator under load."""
    eng, env, agg, agg_x, store = _build(n_samplers, "rdma", interval,
                                         metrics, duration)
    agg.add_store("memory")  # second store doubles flush load, like CSV+fwd
    eng.run(until=duration)
    busy = sum(p.busy_time for p in env.pools if p.name.startswith("agg/"))
    return AggUtilization(
        label=label,
        sets_per_interval=n_samplers,
        interval=interval,
        core_pct=100.0 * busy / duration,
        arena_bytes=agg.arena.used,
    )


def main(scale: int = 1, xprts: tuple[str, ...] = ("sock", "rdma", "ugni"),
         interval: float = 5.0, metrics: int = 10,
         duration: float = 30.0, nshards: int | None = None) -> dict:
    if scale > 1:
        print_header("Fan-in by transport (paper §IV-A; capacities scaled 1/%d)"
                     % scale)
    else:
        print_header("Fan-in by transport (paper §IV-A; full-scale capacities)")
    results = {}
    rows = []
    for xprt in xprts:
        points = sweep_transport(xprt, interval=interval, metrics=metrics,
                                 duration=duration, scale=scale,
                                 nshards=nshards)
        results[xprt] = points
        knee = max_fanin(points)
        full_scale = get_transport_profile(xprt).max_connections
        paper = {"sock": PAPER.fanin_sock, "rdma": PAPER.fanin_rdma,
                 "ugni": PAPER.fanin_ugni}[xprt]
        rows.append([xprt, knee, knee * scale, full_scale, f"~{paper}"])
    print_table(
        ["transport", "simulated knee", "full-scale knee", "profile capacity",
         "paper fan-in"],
        rows,
    )
    print("\nsweep detail:")
    print_table(
        ["transport", "samplers", "connected", "completeness",
         "tracker", "refused"],
        [[p.transport, p.n_samplers, p.connected, p.completeness,
          p.tracker_completeness, p.refused]
         for xprt in xprts for p in results[xprt]],
    )

    print_header("Aggregator utilization (paper §IV-D)")
    chama = aggregator_utilization(n_samplers=64, interval=20.0,
                                   label="Chama L1 (scaled 156->64)")
    bw = aggregator_utilization(n_samplers=128, interval=60.0, metrics=194,
                                label="BW (scaled 6912->128)", duration=300.0)
    # Scale busy fraction linearly in sampler count for the full-size
    # projection (update pipeline work is per set).
    rows = [
        [chama.label, chama.core_pct, chama.core_pct * 156 / 64, "~0.1%"],
        [bw.label, bw.core_pct, bw.core_pct * 6912 / 128, "~100% (incl. ISC fwd)"],
    ]
    print_table(["aggregator", "measured core %", "projected full-scale %",
                 "paper"], rows)
    results["utilization"] = (chama, bw)
    return results


def _cli() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=int, default=1,
                    help="divide transport capacities by this for a quick "
                         "smoke sweep (default 1: full scale)")
    ap.add_argument("--xprt", action="append", choices=["sock", "rdma", "ugni"],
                    help="transport(s) to sweep (default: all three)")
    ap.add_argument("--interval", type=float, default=5.0)
    ap.add_argument("--metrics", type=int, default=10)
    ap.add_argument("--duration", type=float, default=30.0)
    ap.add_argument("--shards", type=int, default=None,
                    help="run sweep points as disjoint shards across this "
                         "many worker processes (default: REPRO_SHARDS)")
    args = ap.parse_args()
    main(scale=args.scale, xprts=tuple(args.xprt or ("sock", "rdma", "ugni")),
         interval=args.interval, metrics=args.metrics, duration=args.duration,
         nshards=args.shards)


if __name__ == "__main__":
    _cli()
