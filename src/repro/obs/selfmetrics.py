"""The ``ldmsd_self`` metric-set schema: a daemon's health as data.

Real LDMS exports the daemon's own counters as a first-class metric set
so an aggregator collects a sampler's health exactly the way it
collects ``meminfo`` — over the normal transport, validated by the
normal DGN/consistent rules, stored through the normal store path.
This module defines that schema once: the fixed metric-name tuple, the
``collect()`` function that snapshots a live daemon into a value row,
and the ``render()`` helper ``ldms_ls -v`` uses to pretty-print a
collected set.

All metrics are U64.  Latency quantiles come from the daemon's
telemetry histograms and are exported in integer microseconds
(``*_us_*``), matching the paper's µs-scale overhead tables (§IV-E,
§V).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ldmsd import Ldmsd

__all__ = ["SELF_SCHEMA", "SELF_METRIC_NAMES", "collect", "render"]

SELF_SCHEMA = "ldmsd_self"

#: (metric prefix, telemetry histogram name) pairs exported as quantiles.
_HISTOGRAMS = (
    ("sample", "sample.duration"),
    ("lookup", "lookup.rtt"),
    ("update", "update.rtt"),
    ("store_flush", "store.flush"),
    ("sample_to_store", "pipeline.sample_to_store"),
    ("query", "serve.query"),
)
_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))

_COUNTER_NAMES = (
    "sets", "plugins", "producers", "stores",
    "arena_used", "arena_peak", "arena_size",
    "samples",
    "lookups_sent", "lookups_failed", "lookups_timed_out", "sets_pruned",
    "updates_issued", "updates_completed", "updates_failed",
    "skipped_stale", "skipped_inconsistent", "skipped_busy",
    "schema_refreshes", "updates_stored",
    "records_delivered", "records_stored", "store_errors", "store_dropped",
    "set_create_failed", "sanitizer_violations", "watchdog_promotions",
    "faults_injected",
    "updates_coalesced", "flush_rows_batched", "timer_fastpath_ticks",
    "arena_sweeps", "arena_rows_vectorized", "arena_fallback_sets",
    # Observability plane (PR 7): aggregator freshness tracking —
    # delivered/expected transactions across all tracked producers,
    # fleet completeness in permille (0.901 → 901), stale-producer
    # count and worst staleness in ms — plus the span ring's event and
    # span totals.  On a sampler-only daemon the freshness row is the
    # identity (0 producers, completeness 1000).
    "freshness_producers",
    "freshness_delivered",
    "freshness_expected",
    "freshness_missed",
    "completeness_permille",
    "stale_producers",
    "max_staleness_ms",
    "flight_events",
    "spans_recorded",
    # Serving tier (PR 9): query requests served, hot/LRU cache
    # outcomes, rows returned, and SOS records rejected for spanning
    # multiple component ids (the store's one-u32-slot contract).
    "query_requests",
    "query_cache_hits",
    "query_cache_misses",
    "query_rows_served",
    "store_multi_component_rejected",
    # Connections refused at the transport's ``max_connections`` wall
    # (§IV-A fan-in bound), summed over this daemon's transports:
    # producers past capacity are dark, not slow.
    "xprt_refused_connections",
)


def _histogram_metric_names() -> tuple[str, ...]:
    names = []
    for prefix, _ in _HISTOGRAMS:
        for qname, _ in _QUANTILES:
            names.append(f"{prefix}_us_{qname}")
        names.append(f"{prefix}_us_max")
        names.append(f"{prefix}_count")
    return tuple(names)


#: The frozen schema, in descriptor order.
SELF_METRIC_NAMES: tuple[str, ...] = _COUNTER_NAMES + _histogram_metric_names()


def _us(seconds: float) -> int:
    return int(seconds * 1e6) if seconds > 0 else 0


def collect(daemon: "Ldmsd") -> list[int]:
    """Snapshot ``daemon`` into a value row matching SELF_METRIC_NAMES.

    Called from the ``ldmsd_self`` plugin's ``do_sample`` under the
    daemon lock; reads live fields directly instead of ``stats()`` to
    avoid building a throwaway dict per sample.
    """
    prods = list(daemon.producers.values())
    stores = daemon.stores

    def psum(*fields: str) -> list[int]:
        return [sum(getattr(p.stats, f) for p in prods) for f in fields]

    # Folds the daemon's bulk observations, then reads derived counts;
    # owned counters bind as they are read (the listed schema).
    derived = daemon.derived_counts()
    owned = [daemon.obs.counter(name).value for name in (
        "set.create_failed", "sanitizer.violations", "watchdog.promotions",
        "faults.injected", "arena.sweeps", "arena.fallback_sets",
        "query.requests", "query.cache_hits", "query.cache_misses",
        "query.rows_served")]
    fleet = daemon.freshness.fleet(daemon.env.now())
    values = [
        len(daemon._sets), len(daemon._plugins), len(prods), len(stores),
        daemon.arena.used, daemon.arena.peak_used, daemon.arena.size,
        sum(p.samples_taken for p in daemon._plugins.values()),
        *psum("lookups_sent", "lookups_failed", "lookups_timed_out",
              "sets_pruned", "updates_issued", "updates_completed",
              "updates_failed", "skipped_stale", "skipped_inconsistent",
              "skipped_busy", "schema_refreshes", "stored"),
        daemon.records_delivered,
        sum(s.records_stored for s in stores),
        sum(s.records_failed for s in stores),
        sum(s.records_dropped for s in stores),
        *owned[:4],
        *psum("updates_coalesced"),
        derived["store.flush_rows_batched"],
        daemon.env.timer_fastpath_ticks(),
        owned[4], derived["arena.rows_vectorized"], owned[5],
        fleet["producers"], fleet["delivered"], fleet["expected"],
        fleet["missed"], int(fleet["completeness"] * 1000.0 + 0.5),
        fleet["stale_producers"], int(fleet["max_staleness"] * 1000.0),
        daemon.spans.events_total, daemon.spans.total,
        *owned[6:],
        sum(getattr(s, "multi_component_rejected", 0) for s in stores),
        daemon.refused_connections(),
    ]
    for _, hname in _HISTOGRAMS:
        h = daemon.obs.histogram(hname)
        for _, q in _QUANTILES:
            values.append(_us(h.quantile(q)))
        values.append(_us(h.max if h.count else 0.0))
        values.append(h.count)
    return values


def render(values: dict[str, int | float], indent: str = "    ") -> str:
    """Human-readable pipeline-health block for one collected
    ``ldmsd_self`` row (``ldms_ls -v``)."""
    v = values

    def lat(prefix: str) -> str:
        if not v.get(f"{prefix}_count"):
            return "no samples"
        return (
            f"p50={v[f'{prefix}_us_p50']}us p95={v[f'{prefix}_us_p95']}us "
            f"p99={v[f'{prefix}_us_p99']}us max={v[f'{prefix}_us_max']}us "
            f"(n={v[f'{prefix}_count']})"
        )

    lines = [
        f"daemon   : sets={v['sets']} plugins={v['plugins']} "
        f"producers={v['producers']} stores={v['stores']} "
        f"arena={v['arena_used']}/{v['arena_size']}B (peak {v['arena_peak']})",
        f"sampling : {v['samples']} samples, {lat('sample')}",
        f"lookups  : sent={v['lookups_sent']} failed={v['lookups_failed']} "
        f"timed_out={v['lookups_timed_out']} pruned={v['sets_pruned']}, "
        f"rtt {lat('lookup')}",
        f"updates  : issued={v['updates_issued']} "
        f"completed={v['updates_completed']} failed={v['updates_failed']} "
        f"stale={v['skipped_stale']} torn={v['skipped_inconsistent']} "
        f"busy={v['skipped_busy']} refresh={v['schema_refreshes']}, "
        f"rtt {lat('update')}",
        f"stores   : delivered={v['records_delivered']} "
        f"stored={v['records_stored']} errors={v['store_errors']} "
        f"dropped={v['store_dropped']}, flush {lat('store_flush')}",
        f"fastpath : coalesced={v['updates_coalesced']} "
        f"batched_rows={v['flush_rows_batched']} "
        f"timer_ticks={v['timer_fastpath_ticks']}",
        f"arena    : sweeps={v['arena_sweeps']} "
        f"rows_vectorized={v['arena_rows_vectorized']} "
        f"fallback_sets={v['arena_fallback_sets']}",
        f"freshness: producers={v['freshness_producers']} "
        f"delivered={v['freshness_delivered']}/{v['freshness_expected']} "
        f"missed={v['freshness_missed']} "
        f"completeness={v['completeness_permille']}‰ "
        f"stale={v['stale_producers']} "
        f"max_stale={v['max_staleness_ms']}ms",
        f"flight   : events={v['flight_events']} "
        f"spans={v['spans_recorded']}",
        f"xprt     : refused_connections={v['xprt_refused_connections']}",
        f"query    : requests={v['query_requests']} "
        f"hits={v['query_cache_hits']} misses={v['query_cache_misses']} "
        f"rows={v['query_rows_served']} "
        f"comp_rejected={v['store_multi_component_rejected']}, "
        f"served {lat('query')}",
        f"end2end  : sample->store {lat('sample_to_store')}",
        f"faults   : injected={v['faults_injected']} "
        f"promotions={v['watchdog_promotions']}",
    ]
    return "\n".join(indent + line for line in lines)
