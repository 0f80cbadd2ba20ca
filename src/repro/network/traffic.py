"""Flow engine: per-link load accounting over a torus.

Jobs (and the monitoring system itself) register *flows* — steady
byte/s streams between nodes.  The engine routes each flow with the
torus's deterministic algorithm and maintains a ``(n_geminis, 6)``
offered-load array.  Because flows change only at job events, counter
integration between events is linear and fully vectorised:

    delivered = delivered_bandwidth(load, capacity)        # (G, 6)
    stall     = stall_fraction(load, capacity)             # (G, 6)
    traffic  += delivered * dt
    stall_ns += stall * dt * 1e9

:meth:`FlowEngine.accumulate` advances those cumulative counters; the
per-node gpcdr view (what the sampler reads) is either a live
:class:`~repro.nodefs.gpcdr.GpcdrModel` attached via
:meth:`attach_gpcdr`, or — for full-machine traces — direct access to
the counter arrays (the ``repro.sim.fleet`` fast path).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.network.congestion import delivered_bandwidth, stall_fraction
from repro.network.torus import GeminiTorus
from repro.util.errors import SimulationError

__all__ = ["Flow", "FlowEngine"]


@dataclass
class Flow:
    """A steady stream of ``bps`` bytes/s from ``src_node`` to ``dst_node``."""

    src_node: int
    dst_node: int
    bps: float
    tag: str = ""
    # (gemini, direction) hops filled in by the engine.
    hops: list[tuple[int, int]] = field(default_factory=list, repr=False)
    active: bool = False


class FlowEngine:
    """Routes flows and integrates per-link counters."""

    def __init__(self, torus: GeminiTorus, clock=None):
        self.torus = torus
        #: Optional zero-arg "now" callable.  When set, flow mutations
        #: auto-integrate the elapsed window first (so a rate change
        #: mid-interval is accounted at the right time) and
        #: :meth:`accumulate_to` advances to the clock.
        self.clock = clock
        self._last_t = float(clock()) if clock is not None else 0.0
        G = torus.n_geminis
        self.load = np.zeros((G, 6))  # offered bytes/s per (gemini, dir)
        self.traffic = np.zeros((G, 6))  # delivered bytes, cumulative
        self.packets = np.zeros((G, 6))
        self.stall_ns = np.zeros((G, 6))
        self.capacity = np.broadcast_to(torus.capacities(), (G, 6))
        self._gpcdrs: dict[int, object] = {}
        self._last_counters: dict[int, np.ndarray] = {}
        self.flows: set[int] = set()
        self._flow_objs: dict[int, Flow] = {}
        self._next_id = 1
        self.mean_packet = 1024.0  # bytes, for the packets counter

    # ------------------------------------------------------------------
    # flows
    # ------------------------------------------------------------------
    def add_flow(self, src_node: int, dst_node: int, bps: float, tag: str = "") -> int:
        """Register a flow; returns its id.  O(path length)."""
        if bps < 0:
            raise SimulationError("flow rate must be >= 0")
        self.accumulate_to()
        flow = Flow(src_node, dst_node, bps, tag)
        src_g = self.torus.node_gemini(src_node)
        dst_g = self.torus.node_gemini(dst_node)
        flow.hops = self.torus.route(src_g, dst_g)
        for gem, d in flow.hops:
            self.load[gem, d] += bps
        flow.active = True
        fid = self._next_id
        self._next_id += 1
        self._flow_objs[fid] = flow
        self.flows.add(fid)
        return fid

    def remove_flow(self, fid: int) -> None:
        self.accumulate_to()
        flow = self._flow_objs.pop(fid, None)
        if flow is None or not flow.active:
            raise SimulationError(f"no active flow {fid}")
        for gem, d in flow.hops:
            self.load[gem, d] -= flow.bps
        flow.active = False
        self.flows.discard(fid)
        # Guard against floating-point drift going negative.
        np.clip(self.load, 0.0, None, out=self.load)

    # ------------------------------------------------------------------
    # integration
    # ------------------------------------------------------------------
    def accumulate_to(self, now: float | None = None) -> None:
        """Integrate counters from the last sync point up to ``now``.

        A no-op when no clock is configured and ``now`` is omitted.
        """
        if now is None:
            if self.clock is None:
                return
            now = float(self.clock())
        dt = now - self._last_t
        if dt > 0:
            self.accumulate(dt)
            self._last_t = now

    def accumulate(self, dt: float) -> None:
        """Advance cumulative counters by ``dt`` seconds of current load."""
        if dt < 0:
            raise SimulationError("dt must be >= 0")
        if dt == 0:
            return
        delivered = delivered_bandwidth(self.load, self.capacity)
        stall = stall_fraction(self.load, self.capacity)
        self.traffic += delivered * dt
        self.packets += delivered * dt / self.mean_packet
        self.stall_ns += stall * dt * 1e9
        self._sync_gpcdrs()

    # -- live gpcdr views -------------------------------------------------
    def attach_gpcdr(self, gemini: int, model) -> None:
        """Mirror a Gemini's counters into a live GpcdrModel."""
        self._gpcdrs[gemini] = model
        self._last_counters[gemini] = np.zeros((3, 6))

    def _sync_gpcdrs(self) -> None:
        from repro.network.torus import DIRS

        for gem, model in self._gpcdrs.items():
            prev = self._last_counters[gem]
            cur = np.stack([self.traffic[gem], self.packets[gem], self.stall_ns[gem]])
            delta = cur - prev
            for j, d in enumerate(DIRS):
                if delta[0, j] > 0:
                    model.add_traffic(d, float(delta[0, j]), float(delta[1, j]))
                if delta[2, j] > 0:
                    model.add_stall(d, float(delta[2, j]) / 1e9)
            self._last_counters[gem] = cur

    # ------------------------------------------------------------------
    # instantaneous views
    # ------------------------------------------------------------------
    def utilization(self) -> np.ndarray:
        """(G, 6) offered load / capacity."""
        return self.load / self.capacity

    def stall_now(self) -> np.ndarray:
        """(G, 6) instantaneous stall fraction."""
        return stall_fraction(self.load, self.capacity)

    def percent_bw_now(self) -> np.ndarray:
        """(G, 6) instantaneous delivered bandwidth as % of theoretical max."""
        return 100.0 * delivered_bandwidth(self.load, self.capacity) / self.capacity

    def latency(self, src_node: int, dst_node: int, nbytes: int,
                per_hop: float = 105e-9) -> float:
        """Model one-way latency for the monitoring fabric hook.

        Base per-hop latency (Gemini ~105 ns/hop) plus serialization at
        the bottleneck link's delivered share, plus a stall penalty on
        the most congested hop of the path.
        """
        src_g = self.torus.node_gemini(src_node)
        dst_g = self.torus.node_gemini(dst_node)
        hops = self.torus.hop_count(src_g, dst_g)
        path = self.torus.route(src_g, dst_g)
        worst_stall = 0.0
        for gem, d in path:
            worst_stall = max(worst_stall, float(stall_fraction(self.load[gem, d],
                                                                self.capacity[gem, d])))
        cap = min((float(self.capacity[gem, d]) for gem, d in path), default=1e9)
        ser = nbytes / cap
        return hops * per_hop + ser * (1.0 + 4.0 * worst_stall)
