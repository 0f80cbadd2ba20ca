"""NFS client sampler: /proc/net/rpc/nfs (part of the Chama set, §IV-G)."""

from __future__ import annotations

from repro.core.metric import MetricType
from repro.core.metric_set import set_template
from repro.core.sampler import SamplerPlugin, register_sampler
from repro.plugins.samplers.parsers import parse_nfs
from repro.util.errors import ConfigError

__all__ = ["NfsSampler"]


@register_sampler("nfs")
class NfsSampler(SamplerPlugin):
    """Samples RPC call totals and NFSv3 op counts as U64 metrics."""

    METRICS = ("rpc_calls", "rpc_retrans", "nfs3_ops")

    def config(self, instance: str, component_id: int = 0,
               path: str = "/proc/net/rpc/nfs", **kwargs) -> None:
        super().config(instance, component_id, **kwargs)
        if not self.daemon.fs.exists(path):
            raise ConfigError(f"nfs: no {path}")
        self.path = path
        self.set = self.create_set(
            instance, "nfs", set_template(self.METRICS, MetricType.U64))

    def do_sample(self, now: float) -> None:
        data = parse_nfs(self.daemon.fs.read(self.path))
        get = data.get
        # METRICS is in metric-index order: one compiled whole-row write.
        self.set.set_values([get(m, 0) for m in self.METRICS])
