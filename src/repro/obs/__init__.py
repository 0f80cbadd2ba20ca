"""repro.obs: self-instrumentation of the monitoring pipeline.

The paper's scalability argument rests on LDMS's own overhead being
visible and bounded (CPU %, memory footprint, fan-in latency — §IV-E,
§V–§VII).  This package gives every daemon that visibility at runtime:

* :mod:`repro.obs.registry` — per-daemon counters and fixed-bucket
  latency histograms;
* :mod:`repro.obs.spans` — the span ring, one per daemon: exemplar
  update transactions (one in 16) and the hops they cross, as causal
  chains and Chrome ``trace_event`` JSON, and the rare daemon events
  (connects, watchdog checks, crashes) a postmortem dump freezes;
* :mod:`repro.obs.freshness` — per-producer completeness, staleness
  and lag on an aggregator;

and :mod:`repro.obs.selfmetrics`, the ``ldmsd_self`` metric-set schema
that exports all three as a first-class set an aggregator collects
over the normal transport.

Every daemon runs all of it; there is no off switch.  Surfaces:
``Ldmsd.stats()`` (registry snapshot), the ``stats``/``prof`` control
verbs, ``ldms_ls -v``, ``repro-top``, and the ``ldmsd_self`` sampler
plugin.
"""

from repro.obs.freshness import FreshnessTracker, ProducerFreshness
from repro.obs.registry import (
    DEFAULT_LATENCY_EDGES,
    Counter,
    Histogram,
    Telemetry,
)
from repro.obs.selfmetrics import SELF_METRIC_NAMES, SELF_SCHEMA, collect, render
from repro.obs.spans import (
    Span,
    SpanRecorder,
    UpdateSpan,
    causal_chains,
    chrome_trace_events,
    postmortem,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "Histogram",
    "Telemetry",
    "DEFAULT_LATENCY_EDGES",
    "SELF_SCHEMA",
    "SELF_METRIC_NAMES",
    "collect",
    "render",
    "Span",
    "SpanRecorder",
    "UpdateSpan",
    "causal_chains",
    "chrome_trace_events",
    "validate_chrome_trace",
    "FreshnessTracker",
    "ProducerFreshness",
    "postmortem",
]
