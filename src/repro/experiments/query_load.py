"""Query-tier load: a mixed client population against one aggregator.

The north star's serving story (ROADMAP item 2): the aggregator that
collects the fleet also *serves* it.  This experiment stands the whole
read path up in the DES — N sampler daemons feed one aggregator whose
SOS store maintains rollup levels on ingest; a client population with
the CMS workload mix (dashboard pollers, alert evaluators, ad-hoc
range scanners, :mod:`repro.query.clients`) connects over the wire
QUERY API and hammers it for the run — and reports what the serving
tier is measured by:

* served round-trip p50/p95/p99 per client class (queries run on the
  aggregator's worker pool, so the tail includes queueing behind the
  update pipeline);
* cache effectiveness: hot-window + LRU hit rate, and the LRU's own
  share of it, out of the aggregator's query counters;
* correctness anchors: every reply a client accepted came through the
  feature-gated wire path, and the same seed replays byte-identically
  (the result fingerprint includes a digest of the SOS containers).

``main()`` writes the ``BENCH_query.json`` trajectory CI uploads and
verifies the same-seed replay.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass

from repro.core import Ldmsd, SimEnv
from repro.experiments.common import print_header, print_table
from repro.query.clients import ClientMix, build_population
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport

__all__ = ["QueryLoadResult", "run_query_load", "main"]

_CLASSES = ("poller", "evaluator", "scanner")


@dataclass(frozen=True)
class ClassStats:
    """One client class's aggregate outcome."""

    clients: int
    sent: int
    replies: int
    errors: int
    rows: int
    rtt_us_p50: int
    rtt_us_p95: int
    rtt_us_p99: int
    rtt_us_max: int


@dataclass(frozen=True)
class QueryLoadResult:
    n_samplers: int
    n_metrics: int
    interval: float
    duration: float
    poller: ClassStats
    evaluator: ClassStats
    scanner: ClassStats
    alerts_fired: int
    #: Aggregator-side ldmsd_self counters.
    query_requests: int
    #: Hot-window and LRU answers together; ``lru_hits`` the latter.
    cache_hits: int
    lru_hits: int
    cache_misses: int
    rows_served: int
    cache_hit_permille: int
    serve_us_p50: int
    serve_us_p95: int
    serve_us_p99: int
    records_stored: int
    #: Digest over every SOS container file (sorted), after shutdown —
    #: the byte-identical-replay anchor.
    container_sha256: str

    def key(self) -> tuple:
        """Determinism fingerprint: every measured number."""
        return (
            asdict(self.poller), asdict(self.evaluator),
            asdict(self.scanner), self.alerts_fired, self.query_requests,
            self.cache_hits, self.lru_hits, self.cache_misses,
            self.rows_served, self.serve_us_p50, self.serve_us_p95,
            self.serve_us_p99, self.records_stored, self.container_sha256,
        )


def _us(seconds: float) -> int:
    return int(seconds * 1e6) if seconds > 0 else 0


def _digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_query_load(
    n_samplers: int = 16,
    n_metrics: int = 8,
    interval: float = 1.0,
    duration: float = 120.0,
    mix: ClientMix | None = None,
    hot_window: float = 30.0,
    cache_entries: int | None = None,
    xprt: str = "sock",
) -> QueryLoadResult:
    """Build the topology, run it, and measure the serving tier."""
    if mix is None:
        mix = ClientMix()
    with tempfile.TemporaryDirectory(prefix="query_load_sos_") as tmp:
        eng = Engine()
        env = SimEnv(eng)
        fabric = SimFabric(eng)
        for i in range(n_samplers):
            x = SimTransport(fabric, xprt, node_id=i)
            d = Ldmsd(f"n{i}", env=env, transports={xprt: x},
                      mem=max(8 * 1024, 4096 + n_metrics * 256),
                      workers=1, conn_threads=1, flush_threads=1)
            d.load_sampler("synthetic", instance=f"n{i}/syn",
                           component_id=i + 1, num_metrics=n_metrics)
            d.start_sampler(f"n{i}/syn", interval=interval)
            d.listen(xprt, f"n{i}:411")
        agg_x = SimTransport(fabric, xprt, node_id="agg")
        agg = Ldmsd("agg", env=env, transports={xprt: agg_x},
                    mem=max(4 * 1024 * 1024, n_samplers * 4096),
                    workers=8, conn_threads=4, flush_threads=2)
        store = agg.add_store("sos", path=tmp,
                              rollups=f"{int(mix.eval_level)},"
                                      f"{int(mix.scan_level)}")
        for i in range(n_samplers):
            agg.add_producer(f"n{i}", xprt, f"n{i}:411", interval=interval,
                             sets=(f"n{i}/syn",))
        agg.enable_query(hot_window=hot_window, cache_entries=cache_entries)
        agg.listen(xprt, "agg:412")

        from repro.obs.registry import Telemetry

        telemetry = Telemetry()
        clients = build_population(
            env, lambda i: SimTransport(fabric, xprt, node_id=f"client{i}"),
            "agg:412", "synthetic", mix, telemetry)
        for c in clients:
            c.start()
        eng.run(until=duration)

        def class_stats(kind: str) -> ClassStats:
            group = [c for c in clients if c.kind == kind]
            h = telemetry.histogram(f"client.{kind}.rtt")
            return ClassStats(
                clients=len(group),
                sent=sum(c.sent for c in group),
                replies=sum(c.replies for c in group),
                errors=sum(c.errors for c in group),
                rows=sum(c.rows_received for c in group),
                rtt_us_p50=_us(h.quantile(0.50)),
                rtt_us_p95=_us(h.quantile(0.95)),
                rtt_us_p99=_us(h.quantile(0.99)),
                rtt_us_max=_us(h.max if h.count else 0.0),
            )

        per_class = {kind: class_stats(kind) for kind in _CLASSES}
        alerts = sum(getattr(c, "alerts", 0) for c in clients)
        hq = agg.obs.histogram("serve.query")
        served = agg.query_engine.stats()
        records_stored = store.records_stored
        serve_p50, serve_p95, serve_p99 = (
            _us(hq.quantile(q)) for q in (0.50, 0.95, 0.99))
        agg.shutdown()  # seals rollup buckets + closes containers
        digest = _digest(tmp)

    return QueryLoadResult(
        n_samplers=n_samplers,
        n_metrics=n_metrics,
        interval=interval,
        duration=duration,
        poller=per_class["poller"],
        evaluator=per_class["evaluator"],
        scanner=per_class["scanner"],
        alerts_fired=alerts,
        query_requests=served["requests"],
        cache_hits=served["cache_hits"],
        lru_hits=served["lru_hits"],
        cache_misses=served["cache_misses"],
        rows_served=served["rows_served"],
        cache_hit_permille=(
            int(served["cache_hits"] * 1000 / served["requests"] + 0.5)
            if served["requests"] else 0),
        serve_us_p50=serve_p50,
        serve_us_p95=serve_p95,
        serve_us_p99=serve_p99,
        records_stored=records_stored,
        container_sha256=digest,
    )


def _report(r: QueryLoadResult) -> dict:
    doc = {
        "config": {
            "n_samplers": r.n_samplers,
            "n_metrics": r.n_metrics,
            "interval": r.interval,
            "duration": r.duration,
        },
        "clients": {
            kind: asdict(getattr(r, kind)) for kind in _CLASSES
        },
        "alerts_fired": r.alerts_fired,
        "aggregator": {
            "query_requests": r.query_requests,
            "cache_hits": r.cache_hits,
            "lru_hits": r.lru_hits,
            "cache_misses": r.cache_misses,
            "cache_hit_permille": r.cache_hit_permille,
            "rows_served": r.rows_served,
            "serve_us": {"p50": r.serve_us_p50, "p95": r.serve_us_p95,
                         "p99": r.serve_us_p99},
        },
        "sos": {
            "records_stored": r.records_stored,
            "container_sha256": r.container_sha256,
        },
    }
    return doc


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(
        description="Query-tier load experiment (serving the CMS mix)")
    parser.add_argument("--samplers", type=int, default=16)
    parser.add_argument("--metrics", type=int, default=8)
    parser.add_argument("--interval", type=float, default=1.0)
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--out", default="BENCH_query.json",
                        help="trajectory file (CI artifact)")
    args = parser.parse_args(argv)

    print_header("Query/serving tier under the CMS client mix")
    r = run_query_load(n_samplers=args.samplers, n_metrics=args.metrics,
                       interval=args.interval, duration=args.duration)
    rows = []
    for kind in _CLASSES:
        s: ClassStats = getattr(r, kind)
        rows.append([kind, s.clients, s.sent, s.replies, s.errors, s.rows,
                     s.rtt_us_p50, s.rtt_us_p95, s.rtt_us_p99])
    print_table(
        ["class", "clients", "sent", "replies", "errors", "rows",
         "rtt p50 (us)", "p95", "p99"],
        rows,
    )
    print_table(
        ["query requests", "cache hits", "of them LRU", "misses",
         "hit rate", "rows served", "serve p50 (us)", "p95", "p99"],
        [[r.query_requests, r.cache_hits, r.lru_hits, r.cache_misses,
          f"{r.cache_hit_permille / 10:.1f}%", r.rows_served,
          r.serve_us_p50, r.serve_us_p95, r.serve_us_p99]],
    )
    print_table(
        ["records stored", "alerts fired", "container sha256"],
        [[r.records_stored, r.alerts_fired, r.container_sha256]],
    )

    # Same seed, same timeline: everything runs on the simulation
    # clock, so a replay must reproduce every number — including the
    # bytes of the SOS containers.
    r2 = run_query_load(n_samplers=args.samplers, n_metrics=args.metrics,
                        interval=args.interval, duration=args.duration)
    deterministic = r.key() == r2.key()
    print(f"\nsame-seed replay identical: {'yes' if deterministic else 'NO'}")

    doc = _report(r)
    doc["deterministic"] = deterministic
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    print(f"trajectory written to {args.out}")
    return {"run": r, "replay": r2, "deterministic": deterministic}


if __name__ == "__main__":
    main()
