"""Infiniband traffic sampler: /sys/class/infiniband/*/ports/*/counters/*.

Note: as on real hardware, ``port_rcv_data``/``port_xmit_data`` count
4-byte words; consumers multiply by 4 for bytes.
"""

from __future__ import annotations

from repro.core.metric import MetricType
from repro.core.metric_set import set_template
from repro.core.sampler import SamplerPlugin, register_sampler
from repro.plugins.samplers.parsers import parse_counter_file
from repro.util.errors import ConfigError

__all__ = ["InfinibandSampler"]

COUNTERS = (
    "port_rcv_data",
    "port_xmit_data",
    "port_rcv_packets",
    "port_xmit_packets",
)

IB_ROOT = "/sys/class/infiniband"


@register_sampler("infiniband")
class InfinibandSampler(SamplerPlugin):
    """Per-device port-1 counters; metric names ``port_rcv_data#mlx4_0``.

    Config options
    --------------
    devices:
        Comma string of HCA names or ``"auto"`` (default) to discover.
    port:
        Port number (default 1).
    root:
        sysfs infiniband directory.
    """

    def config(self, instance: str, component_id: int = 0, devices="auto",
               port: int = 1, root: str = IB_ROOT, **kwargs) -> None:
        super().config(instance, component_id, **kwargs)
        self.root = root
        self.port = int(port)
        if isinstance(devices, str) and devices != "auto":
            devices = tuple(d for d in devices.split(",") if d)
        if devices == "auto":
            try:
                devices = tuple(self.daemon.fs.listdir(root))
            except FileNotFoundError:
                raise ConfigError(f"infiniband: no {root}") from None
        if not devices:
            raise ConfigError("infiniband: no devices found")
        self.devices = tuple(devices)
        names = [f"{ctr}#{dev}" for dev in self.devices for ctr in COUNTERS]
        self.set = self.create_set(instance, "infiniband",
                                   set_template(names, MetricType.U64))
        # Counter-file paths in metric-index order, resolved once.
        self._paths = tuple(
            f"{self.root}/{dev}/ports/{self.port}/counters/{ctr}"
            for dev in self.devices
            for ctr in COUNTERS
        )

    def do_sample(self, now: float) -> None:
        read = self.daemon.fs.read
        vals = []
        for path in self._paths:
            try:
                vals.append(parse_counter_file(read(path)))
            except (FileNotFoundError, ValueError):
                vals.append(0)
        self.set.set_values(vals)
