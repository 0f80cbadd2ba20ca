"""Vectorised full-machine trace generation.

Running 27,648 ldmsd daemon objects through the DES for a simulated day
is not tractable in Python; the paper's Figs. 9-11 need exactly that
scale.  This module provides the *fleet fast path*: the same producer
mathematics (flow-engine link loads -> stall/bandwidth counters; host
rate integration -> counter deltas) evaluated directly with NumPy at
one sample per collection interval — which is precisely what the
stored LDMS data contains.  Fidelity of the fast path against the real
daemon pipeline is cross-checked in ``tests/test_fleet.py``.

Two generators:

* :class:`HsnFleetTrace` — torus link metrics.  Jobs register flows at
  scheduled times; each sample records per-Gemini percent-time-stalled
  and percent-bandwidth for requested directions (what the gpcdr
  sampler derives, §IV-F).
* :class:`RateFleet` — generic per-node counter deltas (Lustre opens,
  etc.): scheduled rate changes, jittered integration per interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.network.torus import DIR_INDEX, GeminiTorus
from repro.network.traffic import FlowEngine
from repro.util.errors import SimulationError
from repro.util.rngtools import spawn_rng

__all__ = ["HsnFleetTrace", "RateFleet", "HsnTraceResult"]


@dataclass
class HsnTraceResult:
    """Per-sample, per-Gemini link metrics for selected directions."""

    times: np.ndarray  # (T,)
    stall_pct: dict[str, np.ndarray]  # dir -> (T, G) percent of time stalled
    bw_pct: dict[str, np.ndarray]  # dir -> (T, G) percent of max bandwidth
    torus: GeminiTorus

    def node_view(self, direction: str, kind: str = "stall") -> np.ndarray:
        """(T, n_nodes) array: each node shows its Gemini's value
        (2 nodes share a Gemini, §VI-A1)."""
        grid = (self.stall_pct if kind == "stall" else self.bw_pct)[direction]
        return np.repeat(grid, self.torus.nodes_per_gemini, axis=1)

    def snapshot(self, direction: str, t_index: int, kind: str = "stall"):
        """(coords (G,3), values (G,)) at one sample — the Fig. 9-bottom
        3-D mesh view."""
        grid = (self.stall_pct if kind == "stall" else self.bw_pct)[direction]
        values = grid[t_index]
        coords = np.array([self.torus.coord(g) for g in range(self.torus.n_geminis)])
        return coords, values

    def argmax(self, direction: str, kind: str = "stall") -> tuple[int, int, float]:
        grid = (self.stall_pct if kind == "stall" else self.bw_pct)[direction]
        flat = int(np.nanargmax(grid))
        t_i, g_i = np.unravel_index(flat, grid.shape)
        return int(t_i), int(g_i), float(grid[t_i, g_i])


@dataclass(frozen=True)
class _FlowEvent:
    t: float
    kind: str  # "add" | "remove"
    key: object
    src: int = 0
    dst: int = 0
    bps: float = 0.0


class HsnFleetTrace:
    """Scheduled-flow trace over a Gemini torus."""

    def __init__(self, torus: GeminiTorus, sample_interval: float = 60.0):
        self.torus = torus
        self.sample_interval = sample_interval
        self._events: list[_FlowEvent] = []
        self._key_seq = 0

    # ------------------------------------------------------------------
    def add_flow_window(self, t0: float, t1: float, src_node: int,
                        dst_node: int, bps: float) -> None:
        """One steady flow active during [t0, t1)."""
        if t1 <= t0:
            raise SimulationError("flow window must have positive duration")
        key = self._key_seq
        self._key_seq += 1
        self._events.append(_FlowEvent(t0, "add", key, src_node, dst_node, bps))
        self._events.append(_FlowEvent(t1, "remove", key))

    def add_job(self, t0: float, t1: float, nodes: np.ndarray,
                bps_per_node: float, pattern: str = "ring",
                rng: np.random.Generator | None = None) -> None:
        """A job's communication: one flow per node to a peer.

        Patterns: ``ring`` (rank i -> i+1) or ``random`` pairs.
        """
        nodes = np.asarray(nodes)
        if pattern == "ring":
            peers = np.roll(nodes, -1)
        elif pattern == "random":
            if rng is None:
                raise SimulationError("random pattern needs an rng")
            peers = rng.permutation(nodes)
        else:
            raise SimulationError(f"unknown pattern {pattern!r}")
        for src, dst in zip(nodes, peers):
            if src != dst:
                self.add_flow_window(t0, t1, int(src), int(dst), bps_per_node)

    # ------------------------------------------------------------------
    def run(self, duration: float,
            directions: tuple[str, ...] = ("X+", "Y+")) -> HsnTraceResult:
        """Evaluate the trace."""
        engine = FlowEngine(self.torus)
        events = sorted(self._events, key=lambda e: (e.t, e.kind == "add"))
        fids: dict[object, int] = {}
        n_samples = int(round(duration / self.sample_interval))
        G = self.torus.n_geminis
        times = (np.arange(n_samples) + 1) * self.sample_interval
        dir_idx = {d: DIR_INDEX[d] for d in directions}
        shape = (n_samples, G)
        stall = {d: np.empty(shape, dtype=np.float32) for d in directions}
        bw = {d: np.empty(shape, dtype=np.float32) for d in directions}

        ei = 0
        t = 0.0
        for s in range(n_samples):
            t_next = (s + 1) * self.sample_interval
            # Apply events due before this sample boundary.  Loads are
            # piecewise constant; the recorded value is the average over
            # the interval, weighted by sub-interval durations.
            acc_stall = {d: np.zeros(G) for d in directions}
            acc_bw = {d: np.zeros(G) for d in directions}
            t_cursor = t
            while ei < len(events) and events[ei].t < t_next:
                ev = events[ei]
                dt = max(ev.t - t_cursor, 0.0)
                if dt > 0:
                    self._accumulate(engine, dir_idx, acc_stall, acc_bw, dt)
                    t_cursor = ev.t
                if ev.kind == "add":
                    fids[ev.key] = engine.add_flow(ev.src, ev.dst, ev.bps)
                else:
                    fid = fids.pop(ev.key, None)
                    if fid is not None:
                        engine.remove_flow(fid)
                ei += 1
            dt = t_next - t_cursor
            if dt > 0:
                self._accumulate(engine, dir_idx, acc_stall, acc_bw, dt)
            span = t_next - t
            for d in directions:
                stall[d][s] = 100.0 * acc_stall[d] / span
                bw[d][s] = 100.0 * acc_bw[d] / span
            t = t_next
        return HsnTraceResult(times=times, stall_pct=stall, bw_pct=bw,
                              torus=self.torus)

    def _accumulate(self, engine: FlowEngine, dir_idx, acc_stall, acc_bw,
                    dt: float) -> None:
        stall_now = engine.stall_now()
        bw_now = engine.percent_bw_now() / 100.0
        for d, j in dir_idx.items():
            acc_stall[d] += stall_now[:, j] * dt
            acc_bw[d] += bw_now[:, j] * dt


class RateFleet:
    """Per-node counter-delta traces from scheduled rates.

    The host-model integration (rate x dt x jitter) applied across all
    nodes at once; output is what an aggregator stores per interval:
    counter deltas.
    """

    def __init__(self, n_nodes: int, sample_interval: float = 60.0,
                 seed: int = 0, jitter: float = 0.05):
        self.n_nodes = n_nodes
        self.sample_interval = sample_interval
        self.jitter = jitter
        self.rng = spawn_rng(seed, "rate-fleet", n_nodes)
        self._windows: list[tuple[float, float, np.ndarray, float]] = []
        self.base_rate = 0.0

    def add_rate_window(self, t0: float, t1: float, nodes, rate: float) -> None:
        """Additive rate on ``nodes`` during [t0, t1)."""
        if t1 <= t0:
            raise SimulationError("rate window must have positive duration")
        self._windows.append((t0, t1, np.asarray(nodes, dtype=np.int64), rate))

    def run(self, duration: float) -> tuple[np.ndarray, np.ndarray]:
        """Returns (times (T,), deltas (T, n_nodes)) of per-interval counts."""
        n_samples = int(round(duration / self.sample_interval))
        times = (np.arange(n_samples) + 1) * self.sample_interval
        deltas = np.empty((n_samples, self.n_nodes), dtype=np.float32)
        iv = self.sample_interval
        for s in range(n_samples):
            t1 = (s + 1) * iv
            t0 = t1 - iv
            rates = np.full(self.n_nodes, self.base_rate)
            for w0, w1, nodes, rate in self._windows:
                overlap = max(min(w1, t1) - max(w0, t0), 0.0)
                if overlap > 0:
                    rates[nodes] += rate * (overlap / iv)
            noise = 1.0 + self.jitter * self.rng.standard_normal(self.n_nodes)
            deltas[s] = np.clip(rates * iv * noise, 0.0, None)
        return times, deltas
