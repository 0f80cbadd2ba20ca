"""The ``ldmsd_self`` metric-set schema: a daemon's health as data.

Real LDMS exports the daemon's own counters as a first-class metric set
so an aggregator collects a sampler's health exactly the way it
collects ``meminfo`` — over the normal transport, validated by the
normal DGN/consistent rules, stored through the normal store path.
This module defines that schema once: one table names each column, the
key it reads in the daemon's count table (``Ldmsd.health()``) and
whether it is a count (never falls) or a gauge; ``collect()`` projects
one reading of a live daemon into a value row, and ``render()`` is the
helper ``ldms_ls -v`` uses to pretty-print a collected set.

All metrics are U64.  Latency quantiles come from the daemon's
telemetry histograms and are exported in integer microseconds
(``*_us_*``), matching the paper's µs-scale overhead tables (§IV-E,
§V).
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ldmsd import Ldmsd

__all__ = ["SELF_SCHEMA", "SELF_METRIC_NAMES", "COUNT_COLUMNS", "collect",
           "render"]

SELF_SCHEMA = "ldmsd_self"
COUNT, GAUGE = True, False

#: (column, count or gauge[, key in ``Ldmsd.health()`` if not the
#: column's own name]), in schema order.
_COLUMNS = (
    ("sets", GAUGE), ("plugins", GAUGE), ("producers", GAUGE),
    ("stores", GAUGE), ("arena_used", GAUGE), ("arena_peak", GAUGE),
    ("arena_size", GAUGE), ("samples", COUNT, "sampler.samples"),
    # Every producer's ``UpdateStats``, removed producers included.
    ("lookups_sent", COUNT), ("lookups_failed", COUNT),
    ("lookups_timed_out", COUNT), ("sets_pruned", COUNT),
    ("updates_issued", COUNT), ("updates_completed", COUNT),
    ("updates_failed", COUNT, "update.failed"),
    ("skipped_stale", COUNT, "update.skipped_stale"),
    ("skipped_inconsistent", COUNT, "update.skipped_inconsistent"),
    ("skipped_busy", COUNT, "update.skipped_busy"),
    ("schema_refreshes", COUNT), ("updates_stored", COUNT, "stored"),
    ("records_delivered", COUNT), ("records_stored", COUNT),
    ("store_errors", COUNT, "records_failed"),
    ("store_dropped", COUNT, "records_dropped"),
    ("set_create_failed", COUNT, "set.create_failed"),
    ("sanitizer_violations", COUNT, "sanitizer.violations"),
    ("watchdog_promotions", COUNT, "watchdog.promotions"),
    ("faults_injected", COUNT, "faults.injected"),
    ("updates_coalesced", COUNT),
    ("flush_rows_batched", COUNT, "store.flush_rows_batched"),
    ("timer_fastpath_ticks", COUNT),
    ("arena_sweeps", COUNT, "arena.sweeps"),
    ("arena_rows_vectorized", COUNT, "arena.rows_vectorized"),
    ("arena_fallback_sets", COUNT, "arena.fallback_sets"),
    # Observability plane (PR 7): the freshness fleet over armed
    # producers (the identity on a sampler-only daemon: 0 producers,
    # 1000 ‰), then the span ring's event and span totals.
    ("freshness_producers", GAUGE, "freshness.producers"),
    ("freshness_delivered", GAUGE, "freshness.delivered"),
    ("freshness_expected", GAUGE, "freshness.expected"),
    ("freshness_missed", GAUGE, "freshness.missed"),
    ("completeness_permille", GAUGE, "freshness.completeness_permille"),
    ("stale_producers", GAUGE, "freshness.stale_producers"),
    ("max_staleness_ms", GAUGE, "freshness.max_staleness_ms"),
    ("flight_events", COUNT), ("spans_recorded", COUNT),
    # Serving tier (PR 9), and SOS records rejected for spanning
    # multiple component ids (the store's one-u32-slot contract).
    ("query_requests", COUNT, "query.requests"),
    ("query_cache_hits", COUNT, "query.cache_hits"),
    ("query_cache_misses", COUNT, "query.cache_misses"),
    ("query_rows_served", COUNT, "query.rows_served"),
    ("store_multi_component_rejected", COUNT, "multi_component_rejected"),
    # Connects refused at a transport's ``max_connections`` (§IV-A).
    ("xprt_refused_connections", COUNT),
)
#: (column prefix, histogram): p50/p95/p99/max in µs (gauges), count.
_HISTOGRAMS = (
    ("sample", "sample.duration"), ("lookup", "lookup.rtt"),
    ("update", "update.rtt"), ("store_flush", "store.flush"),
    ("sample_to_store", "pipeline.sample_to_store"), ("query", "serve.query"),
)
_LATENCY_COLUMNS = tuple(
    (f"{prefix}_{suffix}", suffix == "count") for prefix, _ in _HISTOGRAMS
    for suffix in ("us_p50", "us_p95", "us_p99", "us_max", "count"))

#: The frozen schema, in descriptor order.
SELF_METRIC_NAMES: tuple[str, ...] = tuple(
    column[0] for column in _COLUMNS + _LATENCY_COLUMNS)
#: The columns that never fall: rates are taken of these only.
COUNT_COLUMNS = frozenset(
    column[0] for column in _COLUMNS + _LATENCY_COLUMNS if column[1])

_read_columns = itemgetter(*(column[2] if len(column) > 2 else column[0]
                             for column in _COLUMNS))


def _us(seconds: float) -> int:
    return int(seconds * 1e6) if seconds > 0 else 0


def collect(daemon: "Ldmsd") -> list[int]:
    """Snapshot ``daemon`` into a value row matching SELF_METRIC_NAMES:
    one reading of its count table, projected, then each latency
    histogram's summary.  Called from the ``ldmsd_self`` plugin's
    ``do_sample`` under the daemon lock; binds nothing."""
    values = list(_read_columns(daemon.health()))
    for _, hname in _HISTOGRAMS:
        s = daemon.obs.summary(hname)
        values += (_us(s["p50"]), _us(s["p95"]), _us(s["p99"]),
                   _us(s["max"]), s["count"])
    return values


def render(v: dict[str, int | float], indent: str = "    ") -> str:
    """Human-readable pipeline-health block for one collected
    ``ldmsd_self`` row ``v`` (``ldms_ls -v``)."""

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
