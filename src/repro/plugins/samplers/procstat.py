"""CPU utilization sampler: /proc/stat.

Collects the §II "CPU information: Utilization (user, sys, idle, wait)"
metrics, optionally per CPU.
"""

from __future__ import annotations

from repro.core.metric import MetricType
from repro.core.metric_set import set_template
from repro.core.sampler import SamplerPlugin, register_sampler
from repro.plugins.samplers.parsers import CPU_FIELDS, parse_proc_stat

__all__ = ["ProcstatSampler"]


@register_sampler("procstat")
class ProcstatSampler(SamplerPlugin):
    """Samples jiffy counters from /proc/stat as U64 metrics.

    Config options
    --------------
    percpu:
        Truthy to also collect per-cpu rows (``cpu0_user``...);
        default collects only the aggregate ``cpu_*`` row plus
        ``ctxt``/``processes``.
    path:
        File to read (default ``/proc/stat``).
    """

    EXTRA = ("ctxt", "processes", "procs_running", "procs_blocked")

    def config(self, instance: str, component_id: int = 0, percpu=False,
               path: str = "/proc/stat", **kwargs) -> None:
        super().config(instance, component_id, **kwargs)
        self.path = path
        if isinstance(percpu, str):
            percpu = percpu.lower() in ("1", "true", "yes")
        self.percpu = bool(percpu)
        names = [f"cpu_{f}" for f in CPU_FIELDS]
        if self.percpu:
            # Discover the cpu count from the current file content.
            snapshot = parse_proc_stat(self.daemon.fs.read(self.path))
            cpus = sorted(
                {k.split("_", 1)[0] for k in snapshot if k.startswith("cpu") and k != "cpu_user"
                 and not k.startswith("cpu_")},
                key=lambda c: int(c[3:]),
            )
            for cpu in cpus:
                names.extend(f"{cpu}_{f}" for f in CPU_FIELDS)
        names.extend(self.EXTRA)
        self.metrics = tuple(names)
        self.set = self.create_set(
            instance, "procstat", set_template(self.metrics, MetricType.U64))

    def do_sample(self, now: float) -> None:
        data = parse_proc_stat(self.daemon.fs.read(self.path))
        self.set.set_values([data.get(m, 0) for m in self.metrics])
