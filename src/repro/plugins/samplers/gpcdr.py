"""Cray HSN sampler: gpcdr metrics plus derived utilization metrics.

Collects per-direction Gemini link metrics from the gpcdr /sys file and
derives, over each sample period (§IV-F):

* ``percent_stalled_<d>`` — percent of wall time the link spent in
  output credit stalls (Fig. 9's quantity);
* ``percent_bw_<d>`` — percent of the link's theoretical maximum
  bandwidth used, based on the link media type (Fig. 10's quantity).

Derivation needs the previous raw values, which the plugin keeps as
private state — the metric set itself still carries no history.
"""

from __future__ import annotations

from repro.core.metric import MetricType
from repro.core.metric_set import set_template
from repro.core.sampler import SamplerPlugin, register_sampler
from repro.nodefs.gpcdr import GEMINI_DIRECTIONS, GPCDR_PATH
from repro.plugins.samplers.parsers import parse_gpcdr

__all__ = ["GpcdrSampler"]

RAW = ("traffic", "packets", "stalled", "linkstatus")
DERIVED = ("percent_stalled", "percent_bw", "avg_packet_size")

#: Per direction: the raw counters (U64), then the derived values (F64).
_METRICS = tuple(f"{m}_{d}" for d in GEMINI_DIRECTIONS for m in RAW + DERIVED)
_TYPES = ((MetricType.U64,) * len(RAW)
          + (MetricType.F64,) * len(DERIVED)) * len(GEMINI_DIRECTIONS)


@register_sampler("gpcdr")
class GpcdrSampler(SamplerPlugin):
    """Samples raw HSN counters (U64) and derived percents (F64)."""

    def config(self, instance: str, component_id: int = 0,
               path: str = GPCDR_PATH, **kwargs) -> None:
        super().config(instance, component_id, **kwargs)
        self.path = path
        self.set = self.create_set(instance, "gpcdr",
                                   set_template(_METRICS, _TYPES))
        self._prev: dict[str, float] | None = None
        self._prev_ts: float = 0.0

    def do_sample(self, now: float) -> None:
        data = parse_gpcdr(self.daemon.fs.read(self.path))
        ts = float(data.get("timestamp", now))
        prev = self._prev
        dt = ts - self._prev_ts if prev is not None else 0.0
        get = data.get
        # Values accumulate in metric creation order (per direction: the
        # raw U64s then the derived F64s) for one whole-row write.
        vals: list[float | int] = []
        for d in GEMINI_DIRECTIONS:
            for raw in RAW:
                vals.append(int(get(f"{raw}_{d}", 0)))
            if prev is not None and dt > 0:
                d_traffic = get(f"traffic_{d}", 0) - prev.get(f"traffic_{d}", 0)
                d_packets = get(f"packets_{d}", 0) - prev.get(f"packets_{d}", 0)
                d_stall_ns = get(f"stalled_{d}", 0) - prev.get(f"stalled_{d}", 0)
                speed = max(float(get(f"linkspeed_{d}", 0)), 1.0)
                pct_stall = min(100.0 * (d_stall_ns / 1e9) / dt, 100.0)
                pct_bw = min(100.0 * (d_traffic / dt) / speed, 100.0)
                avg_pkt = d_traffic / d_packets if d_packets > 0 else 0.0
            else:
                pct_stall = pct_bw = avg_pkt = 0.0
            vals.append(max(pct_stall, 0.0))
            vals.append(max(pct_bw, 0.0))
            vals.append(max(avg_pkt, 0.0))
        self.set.set_values(vals)
        self._prev = {k: float(v) for k, v in data.items()}
        self._prev_ts = ts
