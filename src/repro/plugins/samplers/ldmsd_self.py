"""``ldmsd_self``: export the daemon's own telemetry as a metric set.

Real LDMS daemons publish their self-metrics the same way they publish
``meminfo`` — as an ordinary metric set — so an aggregator pulls a
sampler daemon's health over the normal transport, validates it with
the normal MGN/DGN rules, and persists it through the normal store
path.  The schema (79 U64 metrics: the daemon's counts and gauges, each
read from one key of its count table, plus p50/p95/p99/max latencies in
microseconds and a count for every pipeline stage) is defined once in
:mod:`repro.obs.selfmetrics`.

The set is sampled like any other plugin — ``begin_transaction`` /
bulk ``set_values`` / ``end_transaction`` — so a fetch landing inside
the snapshot window is discarded as torn, exactly as for data sets.
"""

from __future__ import annotations

from repro.core.metric import MetricType
from repro.core.metric_set import set_template
from repro.core.sampler import SamplerPlugin, register_sampler
from repro.obs.selfmetrics import SELF_METRIC_NAMES, SELF_SCHEMA, collect

__all__ = ["LdmsdSelfSampler"]


@register_sampler("ldmsd_self")
class LdmsdSelfSampler(SamplerPlugin):
    """The daemon's health as a first-class metric set.

    Config options: only the standard ``instance=`` /
    ``component_id=``; the schema is fixed.
    """

    def config(self, instance: str, component_id: int = 0, **kwargs) -> None:
        super().config(instance, component_id, **kwargs)
        self.set = self.create_set(
            instance, SELF_SCHEMA, set_template(SELF_METRIC_NAMES, MetricType.U64))

    def do_sample(self, now: float) -> None:
        # One reading of the count table -> one compiled whole-row pack.
        self.set.set_values(collect(self.daemon))
