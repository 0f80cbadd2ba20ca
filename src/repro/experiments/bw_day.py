"""The shared 24-hour Blue Waters HSN trace behind Figs. 9 and 10.

The paper's day of data shows (§VI-A):

* (label A) regions sustaining 20-45% X+ credit-stall time for up to
  ~20 hours;
* (label B) 60+% stall durations of ~1.5 hours;
* (label C) a maximum of ~85% stall in X+ whose congestion region wraps
  around the torus in X;
* (label D) another high region extending from an XY plane into Z;
* (Fig. 10) a maximum of ~63% of theoretical link bandwidth in Y+,
  "significantly higher than typically observed values".

The workload script below reproduces those features with scheduled
flows: a light random background plus four engineered jobs.  All node/
coordinate choices scale with the torus dimensions so tests can run a
small torus while the benchmark runs the full 24x24x24.
"""

from __future__ import annotations

import numpy as np

from repro.network.torus import GeminiTorus
from repro.sim.fleet import HsnFleetTrace, HsnTraceResult
from repro.util.rngtools import spawn_rng

__all__ = ["build_trace", "run_day", "HOUR", "DAY"]

HOUR = 3600.0
DAY = 24 * HOUR

CABLE = 4.68e9  # X/Z link capacity in the default media map
MEZZ = 6.25e9  # Y


def _row_nodes(torus: GeminiTorus, y: int, z: int) -> np.ndarray:
    """Node ids of the first node on each Gemini along an X row."""
    gems = [torus.gemini_index((x, y, z)) for x in range(torus.dims[0])]
    return np.array([g * torus.nodes_per_gemini for g in gems])


def _x_corridor(trace: HsnFleetTrace, torus: GeminiTorus, t0: float,
                t1: float, y: int, z: int, x0: int, span: int,
                utilization: float, n_flows: int = 3) -> None:
    """Load the X+ links of geminis x0..x0+span-1 (mod X) at the given
    utilization with ``n_flows`` parallel flows."""
    X = torus.dims[0]
    src = torus.gemini_index((x0 % X, y, z)) * torus.nodes_per_gemini
    dst = torus.gemini_index(((x0 + span) % X, y, z)) * torus.nodes_per_gemini
    bps = utilization * CABLE / n_flows
    for k in range(n_flows):
        trace.add_flow_window(t0, t1, src + (k % torus.nodes_per_gemini), dst, bps)


def build_trace(dims: tuple[int, int, int] = (24, 24, 24),
                sample_interval: float = 60.0,
                seed: int = 9,
                background_jobs: int = 40) -> tuple[HsnFleetTrace, GeminiTorus]:
    torus = GeminiTorus(dims=dims)
    trace = HsnFleetTrace(torus, sample_interval=sample_interval)
    rng = spawn_rng(seed, "bw-day", dims)
    X, Y, Z = dims
    n_nodes = torus.n_nodes

    # --- light background: short jobs, modest ring traffic -------------
    for j in range(background_jobs):
        t0 = float(rng.uniform(0.0, DAY - HOUR))
        t1 = min(t0 + float(rng.uniform(0.5, 6.0)) * HOUR, DAY)
        size = int(rng.integers(8, max(n_nodes // 64, 9)))
        if j % 2 == 0:
            # Compact allocation: contiguous node ids, ring pattern.
            start = int(rng.integers(0, n_nodes - size))
            nodes = np.arange(start, start + size)
            trace.add_job(t0, t1, nodes, float(rng.uniform(0.1e9, 0.6e9)),
                          pattern="ring")
        else:
            # Fragmented allocation: scattered nodes exercise all
            # dimensions (the shared-network placement effect of §II).
            nodes = rng.choice(n_nodes, size=size, replace=False)
            trace.add_job(t0, t1, nodes, float(rng.uniform(0.05e9, 0.25e9)),
                          pattern="random", rng=rng)

    # --- label A: 20-45% X+ stalls for ~20 h ----------------------------
    # A communication-heavy job parked on a few X rows, utilization
    # drifting between 0.75 and 1.3 in 4-hour phases.
    for i, u in enumerate((0.8, 1.1, 0.75, 1.25, 0.9)):
        t0, t1 = i * 4 * HOUR, (i + 1) * 4 * HOUR
        for dy in range(2):
            for dz in range(2):
                _x_corridor(trace, torus, t0, t1, (Y // 3 + dy) % Y,
                            (Z // 3 + dz) % Z, x0=1, span=max(X // 3, 2),
                            utilization=u)

    # --- label B: 60+% stalls for ~1.5 h ---------------------------------
    for dz in range(2):
        _x_corridor(trace, torus, 10 * HOUR, 11.5 * HOUR, (2 * Y // 3) % Y,
                    (Z // 2 + dz) % Z, x0=max(X // 2, 1), span=max(X // 4, 2),
                    utilization=2.1)

    # --- label C: ~85% peak, region wrapping in X ------------------------
    # Flows crossing the X boundary load the wrap links hard for ~40 min.
    for dy in range(2):
        _x_corridor(trace, torus, 14 * HOUR, 14 * HOUR + 2400.0,
                    (Y // 2 + dy) % Y, Z // 4, x0=X - max(X // 8, 2),
                    span=2 * max(X // 8, 2), utilization=3.4, n_flows=4)

    # --- label D: a region in the XY plane extending into Z --------------
    for dz in range(max(Z // 4, 2)):
        _x_corridor(trace, torus, 6 * HOUR, 9 * HOUR, (3 * Y // 4) % Y,
                    dz, x0=2, span=max(X // 6, 2), utilization=1.5)

    # --- Fig. 10: Y+ bandwidth peak ~63% ---------------------------------
    # A single heavy Y-direction stream, below saturation (u = 0.66), so
    # percent-bandwidth peaks near 63 with negligible stalls elsewhere.
    src = torus.gemini_index((X // 5, 1, Z // 5)) * torus.nodes_per_gemini
    dst = torus.gemini_index((X // 5, (1 + max(Y // 3, 1)) % Y, Z // 5))
    trace.add_flow_window(17 * HOUR, 18 * HOUR, src,
                          dst * torus.nodes_per_gemini, 0.63 * MEZZ)

    return trace, torus


def run_day(dims: tuple[int, int, int] = (24, 24, 24),
            sample_interval: float = 60.0, seed: int = 9,
            background_jobs: int = 40,
            directions: tuple[str, ...] = ("X+", "Y+")
            ) -> tuple[HsnTraceResult, GeminiTorus]:
    """Run the full day."""
    trace, torus = build_trace(dims, sample_interval, seed, background_jobs)
    return trace.run(DAY, directions=directions), torus
