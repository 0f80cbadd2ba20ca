"""LNET traffic sampler: /proc/sys/lnet/stats (part of the Blue Waters
custom set, §IV-F)."""

from __future__ import annotations

from repro.core.metric import MetricType
from repro.core.metric_set import set_template
from repro.core.sampler import SamplerPlugin, register_sampler
from repro.plugins.samplers.parsers import LNET_FIELDS, parse_lnet_stats

__all__ = ["LnetSampler"]


@register_sampler("lnet")
class LnetSampler(SamplerPlugin):
    """Samples the 11 LNET counters as U64 metrics."""

    def config(self, instance: str, component_id: int = 0,
               path: str = "/proc/sys/lnet/stats", **kwargs) -> None:
        super().config(instance, component_id, **kwargs)
        self.path = path
        self.set = self.create_set(
            instance, "lnet", set_template(LNET_FIELDS, MetricType.U64))

    def do_sample(self, now: float) -> None:
        data = parse_lnet_stats(self.daemon.fs.read(self.path))
        get = data.get
        # LNET_FIELDS is in metric-index order: one compiled whole-row write.
        self.set.set_values([get(m, 0) for m in LNET_FIELDS])
