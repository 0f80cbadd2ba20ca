"""Load-average sampler: /proc/loadavg (the Blue Waters set includes
"cpu load averages", §IV-F)."""

from __future__ import annotations

from repro.core.metric import MetricType
from repro.core.metric_set import set_template
from repro.core.sampler import SamplerPlugin, register_sampler
from repro.plugins.samplers.parsers import parse_loadavg

__all__ = ["LoadavgSampler"]

_METRICS = ("load1", "load5", "load15", "runnable", "total_procs")
_TYPES = (MetricType.F64,) * 3 + (MetricType.U64,) * 2


@register_sampler("loadavg")
class LoadavgSampler(SamplerPlugin):
    """Samples load1/load5/load15 (F64) and process counts (U64)."""

    def config(self, instance: str, component_id: int = 0,
               path: str = "/proc/loadavg", **kwargs) -> None:
        super().config(instance, component_id, **kwargs)
        self.path = path
        self.set = self.create_set(instance, "loadavg",
                                   set_template(_METRICS, _TYPES))

    def do_sample(self, now: float) -> None:
        # Parser yields values in metric-creation order; one bulk write.
        data = parse_loadavg(self.daemon.fs.read(self.path))
        self.set.set_values(tuple(data.values()))
