"""Memory sampler: /proc/meminfo.

Collects the memory-related information the paper motivates in §II
("Memory related information: Current Free, Active").
"""

from __future__ import annotations

from repro.core.metric import MetricType
from repro.core.metric_set import set_template
from repro.core.sampler import SamplerPlugin, register_sampler
from repro.plugins.samplers.parsers import parse_meminfo
from repro.util.errors import ConfigError

__all__ = ["MeminfoSampler"]


@register_sampler("meminfo")
class MeminfoSampler(SamplerPlugin):
    """Samples selected /proc/meminfo rows (kB values) as U64 metrics.

    Config options
    --------------
    metrics:
        Comma string or sequence of meminfo keys; defaults to the rows
        used in the paper's deployments.
    path:
        File to read (default ``/proc/meminfo``).
    """

    DEFAULT_METRICS = (
        "MemTotal",
        "MemFree",
        "Buffers",
        "Cached",
        "Active",
        "Inactive",
        "Dirty",
    )

    def config(self, instance: str, component_id: int = 0, metrics=None,
               path: str = "/proc/meminfo", **kwargs) -> None:
        super().config(instance, component_id, **kwargs)
        self.path = path
        if isinstance(metrics, str):
            metrics = tuple(m for m in metrics.split(",") if m)
        if metrics is not None and not tuple(metrics):
            raise ConfigError("meminfo: empty metric list")
        self.metrics = tuple(metrics) if metrics else self.DEFAULT_METRICS
        self.set = self.create_set(
            instance, "meminfo", set_template(self.metrics, MetricType.U64))
        # Layout is frozen now: self.metrics is already in metric-index
        # order, so sampling can use the compiled whole-row setter.

    def do_sample(self, now: float) -> None:
        data = parse_meminfo(self.daemon.fs.read(self.path))
        get = data.get
        self.set.set_values([get(m, 0) for m in self.metrics])
