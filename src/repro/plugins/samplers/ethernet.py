"""Ethernet traffic sampler: /sys/class/net/<iface>/statistics/*."""

from __future__ import annotations

from repro.core.metric import MetricType
from repro.core.metric_set import set_template
from repro.core.sampler import SamplerPlugin, register_sampler
from repro.plugins.samplers.parsers import parse_counter_file
from repro.util.errors import ConfigError

__all__ = ["EthernetSampler"]

COUNTERS = (
    "rx_bytes",
    "tx_bytes",
    "rx_packets",
    "tx_packets",
    "rx_errors",
    "tx_errors",
    "rx_dropped",
    "tx_dropped",
)

NET_ROOT = "/sys/class/net"


@register_sampler("ethernet")
class EthernetSampler(SamplerPlugin):
    """Per-interface traffic counters; metric names ``rx_bytes#eth0``.

    Config options
    --------------
    ifaces:
        Comma string of interface names, or ``"auto"`` (default) to
        discover every interface with a statistics directory except
        ``lo``.
    root:
        sysfs net directory (default ``/sys/class/net``).
    """

    def config(self, instance: str, component_id: int = 0, ifaces="auto",
               root: str = NET_ROOT, **kwargs) -> None:
        super().config(instance, component_id, **kwargs)
        self.root = root
        if isinstance(ifaces, str) and ifaces != "auto":
            ifaces = tuple(i for i in ifaces.split(",") if i)
        if ifaces == "auto":
            try:
                found = self.daemon.fs.listdir(root)
            except FileNotFoundError:
                raise ConfigError(f"ethernet: no {root}") from None
            ifaces = tuple(
                i for i in found
                if i != "lo" and self.daemon.fs.exists(f"{root}/{i}/statistics/rx_bytes")
            )
        if not ifaces:
            raise ConfigError("ethernet: no interfaces found")
        self.ifaces = tuple(ifaces)
        names = [f"{ctr}#{iface}" for iface in self.ifaces for ctr in COUNTERS]
        self.set = self.create_set(instance, "ethernet",
                                   set_template(names, MetricType.U64))

    def do_sample(self, now: float) -> None:
        # Counters accumulate in metric-creation order (iface-major) and
        # land with one bulk set_values() write.
        fs = self.daemon.fs
        vals: list[int] = []
        for iface in self.ifaces:
            for ctr in COUNTERS:
                path = f"{self.root}/{iface}/statistics/{ctr}"
                try:
                    vals.append(parse_counter_file(fs.read(path)))
                except (FileNotFoundError, ValueError):
                    vals.append(0)
        self.set.set_values(vals)
