"""Synthetic Cray ``gpcdr`` HSN performance-counter interface.

On Blue Waters, Cray's ``gpcdr`` kernel module aggregates Gemini
network-tile performance counters into per-direction, node-level
metrics exposed as files under /sys (paper §III-C).  A userspace init
script configures which counters combine into which metrics using the
runtime routing data; the LDMS gpcdr sampler then just reads the files.

:class:`GpcdrModel` is the producer side of that interface for the
simulator: the Gemini network model pushes per-direction traffic and
stall time into it, and it renders the /sys file the sampler reads.

Exposed metrics per direction ``d`` in X+/X-/Y+/Y-/Z+/Z-:

* ``traffic_<d>`` — delivered bytes (cumulative)
* ``packets_<d>`` — delivered packets (cumulative)
* ``stalled_<d>`` — output-credit-stall time, nanoseconds (cumulative)
* ``linkstatus_<d>`` — number of live lanes (0 = link down)
* ``linkspeed_<d>`` — static theoretical max bandwidth, bytes/s (from
  the link media type; used to derive percent-bandwidth)
"""

from __future__ import annotations

from typing import Callable

from repro.nodefs.fs import SynthFS

__all__ = ["GpcdrModel", "GEMINI_DIRECTIONS", "LINK_BANDWIDTH"]

GEMINI_DIRECTIONS = ("X+", "X-", "Y+", "Y-", "Z+", "Z-")

#: Theoretical max bandwidth by link media type, bytes/s.  Gemini torus
#: links are backplane (within chassis), mezzanine (within cage) or
#: cable (between cabinets); values follow the published Gemini specs.
LINK_BANDWIDTH = {
    "backplane": 9.375e9,
    "mezzanine": 6.25e9,
    "cable": 4.68e9,
}

GPCDR_PATH = "/sys/devices/virtual/gpcdr/gpcdr/metricsets/links/metrics"


class GpcdrModel:
    """Per-node (per-Gemini) HSN counter state.

    Parameters
    ----------
    clock:
        Zero-argument callable returning now (seconds).
    media:
        Mapping direction -> link media type (defaults: X/Z backplane-ish
        topology is machine specific; the torus builder supplies this).
    fs:
        SynthFS to register the metrics file into.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        media: dict[str, str] | None = None,
        fs: SynthFS | None = None,
    ):
        self.clock = clock
        self.fs = fs if fs is not None else SynthFS()
        media = media or {d: "cable" for d in GEMINI_DIRECTIONS}
        unknown = set(media.values()) - set(LINK_BANDWIDTH)
        if unknown:
            raise ValueError(f"unknown link media types: {sorted(unknown)}")
        self.media = {d: media.get(d, "cable") for d in GEMINI_DIRECTIONS}
        self.traffic = {d: 0.0 for d in GEMINI_DIRECTIONS}  # bytes
        self.packets = {d: 0.0 for d in GEMINI_DIRECTIONS}
        self.stall_ns = {d: 0.0 for d in GEMINI_DIRECTIONS}
        self.lanes = {d: 3 for d in GEMINI_DIRECTIONS}  # 3 live lanes = healthy
        #: Optional zero-arg callable invoked before rendering — the
        #: network model hooks this to lazily integrate link counters
        #: up to "now" (mirrors gpcdr reading hardware counters on
        #: demand).
        self.sync_hook = None
        self.fs.register(GPCDR_PATH, self.render)

    def link_speed(self, direction: str) -> float:
        return LINK_BANDWIDTH[self.media[direction]]

    # ------------------------------------------------------------------
    # producer API (called by the Gemini network model)
    # ------------------------------------------------------------------
    def add_traffic(self, direction: str, nbytes: float, npackets: float | None = None) -> None:
        self.traffic[direction] += nbytes
        self.packets[direction] += npackets if npackets is not None else nbytes / 64.0

    def add_stall(self, direction: str, seconds: float) -> None:
        self.stall_ns[direction] += seconds * 1e9

    # ------------------------------------------------------------------
    def render(self) -> str:
        if self.sync_hook is not None:
            self.sync_hook()
        lines = [f"timestamp {self.clock():.6f}"]
        for d in GEMINI_DIRECTIONS:
            lines.append(f"traffic_{d} {int(self.traffic[d])}")
            lines.append(f"packets_{d} {int(self.packets[d])}")
            lines.append(f"stalled_{d} {int(self.stall_ns[d])}")
            lines.append(f"linkstatus_{d} {self.lanes[d]}")
            lines.append(f"linkspeed_{d} {int(self.link_speed(d))}")
        return "\n".join(lines) + "\n"
