"""A two-level Infiniband fat tree (SNL's Chama, §III-B/§IV-G).

Chama is an Infiniband-connected commodity cluster: nodes hang off leaf
switches whose uplinks feed core switches.  We model:

* ``radix`` nodes per leaf switch;
* each leaf has ``uplinks`` links to distinct core switches;
* routing: same-leaf traffic stays on the leaf; cross-leaf traffic
  takes a deterministic uplink chosen by destination-leaf hash (static
  IB LID routing), up to the core and back down.

Per-link load/stall accounting mirrors :class:`~repro.network.traffic.
FlowEngine`, reusing the same congestion model; link capacity defaults
to QDR IB (4 GB/s).
"""

from __future__ import annotations

import numpy as np

from repro.network.congestion import stall_fraction
from repro.util.errors import SimulationError

__all__ = ["FatTree"]

QDR_BPS = 4.0e9


class FatTree:
    """Two-level fat tree with static routing and link-load accounting."""

    def __init__(
        self,
        n_nodes: int = 1296,  # Chama (§IV-D)
        radix: int = 18,
        uplinks: int = 9,
        link_bps: float = QDR_BPS,
    ):
        if n_nodes <= 0 or radix <= 0 or uplinks <= 0:
            raise SimulationError("fat tree parameters must be positive")
        self.n_nodes = n_nodes
        self.radix = radix
        self.uplinks = uplinks
        self.link_bps = link_bps
        self.n_leaves = (n_nodes + radix - 1) // radix
        # Link arrays: node<->leaf "access" links (up and down folded into
        # one full-duplex budget each) and leaf<->core uplinks.
        self.access_up = np.zeros(n_nodes)
        self.access_down = np.zeros(n_nodes)
        self.uplink_up = np.zeros((self.n_leaves, uplinks))
        self.uplink_down = np.zeros((self.n_leaves, uplinks))
        self._flows: dict[int, tuple] = {}
        self._next_id = 1

    def leaf_of(self, node: int) -> int:
        if not (0 <= node < self.n_nodes):
            raise SimulationError(f"node {node} out of range")
        return node // self.radix

    def _uplink_for(self, src_leaf: int, dst_leaf: int) -> int:
        # Deterministic static route (IB LID-style).
        return (src_leaf * 31 + dst_leaf * 17) % self.uplinks

    def add_flow(self, src: int, dst: int, bps: float, tag: str = "") -> int:
        sl, dl = self.leaf_of(src), self.leaf_of(dst)
        self.access_up[src] += bps
        self.access_down[dst] += bps
        up = None
        if sl != dl:
            up = self._uplink_for(sl, dl)
            self.uplink_up[sl, up] += bps
            self.uplink_down[dl, up] += bps
        fid = self._next_id
        self._next_id += 1
        self._flows[fid] = (src, dst, bps, sl, dl, up)
        return fid

    def remove_flow(self, fid: int) -> None:
        try:
            src, dst, bps, sl, dl, up = self._flows.pop(fid)
        except KeyError:
            raise SimulationError(f"no flow {fid}") from None
        self.access_up[src] -= bps
        self.access_down[dst] -= bps
        if up is not None:
            self.uplink_up[sl, up] -= bps
            self.uplink_down[dl, up] -= bps
        for arr in (self.access_up, self.access_down, self.uplink_up, self.uplink_down):
            np.clip(arr, 0.0, None, out=arr)

    # ------------------------------------------------------------------
    def path_stall(self, src: int, dst: int) -> float:
        """Worst stall fraction along the src -> dst path."""
        sl, dl = self.leaf_of(src), self.leaf_of(dst)
        worst = max(
            stall_fraction(self.access_up[src], self.link_bps),
            stall_fraction(self.access_down[dst], self.link_bps),
        )
        if sl != dl:
            up = self._uplink_for(sl, dl)
            worst = max(
                worst,
                stall_fraction(self.uplink_up[sl, up], self.link_bps),
                stall_fraction(self.uplink_down[dl, up], self.link_bps),
            )
        return float(worst)

    def latency(self, src: int, dst: int, nbytes: int,
                per_hop: float = 1.0e-6) -> float:
        """One-way latency for the monitoring fabric hook."""
        hops = 2 if self.leaf_of(src) == self.leaf_of(dst) else 4
        ser = nbytes / self.link_bps
        return hops * per_hop + ser * (1.0 + 4.0 * self.path_stall(src, dst))
