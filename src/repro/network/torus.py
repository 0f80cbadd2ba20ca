"""The Gemini 3-D torus (Blue Waters' interconnect).

Geometry and routing facts used (paper §II, §VI-A):

* The network is a 3-D torus of Gemini routers; Blue Waters is
  24 x 24 x 24 (13,824 Geminis).
* Two compute nodes share one Gemini ("2 nodes share a Gemini and thus
  have the same value", §VI-A1).
* "The routing algorithm between any 2 Gemini is well-defined; thus the
  links that are involved in an application's communication paths can
  be statically determined" — Gemini uses deterministic
  dimension-ordered routing; we route X, then Y, then Z, taking the
  shorter wrap direction in each dimension.
* Link media (and hence theoretical max bandwidth, used for Fig. 10's
  percent-bandwidth) differs per dimension.  We model X and Z as cable
  links and Y as mezzanine/backplane, approximating the XE6 cabling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nodefs.gpcdr import LINK_BANDWIDTH

__all__ = ["GeminiTorus", "DIRS", "DIR_INDEX"]

DIRS = ("X+", "X-", "Y+", "Y-", "Z+", "Z-")
DIR_INDEX = {d: i for i, d in enumerate(DIRS)}

#: dimension -> media type (model choice, documented above)
DEFAULT_MEDIA = {"X": "cable", "Y": "mezzanine", "Z": "backplane"}


@dataclass(frozen=True)
class GeminiTorus:
    """Static torus geometry + deterministic routing."""

    dims: tuple[int, int, int] = (24, 24, 24)
    nodes_per_gemini: int = 2
    media: tuple[str, str, str] = (
        DEFAULT_MEDIA["X"],
        DEFAULT_MEDIA["Y"],
        DEFAULT_MEDIA["Z"],
    )

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def n_geminis(self) -> int:
        x, y, z = self.dims
        return x * y * z

    @property
    def n_nodes(self) -> int:
        return self.n_geminis * self.nodes_per_gemini

    def gemini_index(self, coord: tuple[int, int, int]) -> int:
        x, y, z = coord
        dx, dy, dz = self.dims
        if not (0 <= x < dx and 0 <= y < dy and 0 <= z < dz):
            raise ValueError(f"coordinate {coord} outside torus {self.dims}")
        return (x * dy + y) * dz + z

    def coord(self, gemini: int) -> tuple[int, int, int]:
        dx, dy, dz = self.dims
        if not (0 <= gemini < self.n_geminis):
            raise ValueError(f"gemini index {gemini} out of range")
        z = gemini % dz
        y = (gemini // dz) % dy
        x = gemini // (dy * dz)
        return (x, y, z)

    def node_gemini(self, node: int) -> int:
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node {node} out of range")
        return node // self.nodes_per_gemini

    def gemini_nodes(self, gemini: int) -> list[int]:
        base = gemini * self.nodes_per_gemini
        return list(range(base, base + self.nodes_per_gemini))

    # ------------------------------------------------------------------
    # links
    # ------------------------------------------------------------------
    def link_capacity(self, direction: int | str) -> float:
        """Theoretical max bandwidth of a link in the given direction."""
        if isinstance(direction, str):
            direction = DIR_INDEX[direction]
        return LINK_BANDWIDTH[self.media[direction // 2]]

    def capacities(self) -> np.ndarray:
        """(6,) per-direction link capacities in bytes/s."""
        return np.array([self.link_capacity(i) for i in range(6)])

    def neighbor(self, gemini: int, direction: int | str) -> int:
        """The Gemini one hop away in the given direction (with wrap)."""
        if isinstance(direction, str):
            direction = DIR_INDEX[direction]
        dim, sign = divmod(direction, 2)
        step = 1 if sign == 0 else -1
        c = list(self.coord(gemini))
        c[dim] = (c[dim] + step) % self.dims[dim]
        return self.gemini_index(tuple(c))

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _dim_steps(self, a: int, b: int, size: int) -> tuple[int, int]:
        """(hops, direction_sign) for the shorter wrap path a -> b."""
        fwd = (b - a) % size
        back = (a - b) % size
        if fwd == 0:
            return 0, +1
        # Tie (fwd == back) routes in + (deterministic, like the mesh
        # coordinate rule Gemini applies).
        return (fwd, +1) if fwd <= back else (back, -1)

    def route(self, src_gemini: int, dst_gemini: int) -> list[tuple[int, int]]:
        """Dimension-ordered path as [(gemini, direction index), ...].

        Each entry is a link *departing* the named Gemini in the named
        direction; traversing all entries reaches ``dst_gemini``.
        """
        if src_gemini == dst_gemini:
            return []
        path: list[tuple[int, int]] = []
        cur = list(self.coord(src_gemini))
        dst = self.coord(dst_gemini)
        for dim in range(3):
            hops, sign = self._dim_steps(cur[dim], dst[dim], self.dims[dim])
            direction = dim * 2 + (0 if sign > 0 else 1)
            for _ in range(hops):
                path.append((self.gemini_index(tuple(cur)), direction))
                cur[dim] = (cur[dim] + sign) % self.dims[dim]
        assert tuple(cur) == dst
        return path

    def hop_count(self, src_gemini: int, dst_gemini: int) -> int:
        """Minimal dimension-ordered hop count (no path materialised)."""
        total = 0
        a, b = self.coord(src_gemini), self.coord(dst_gemini)
        for dim in range(3):
            hops, _ = self._dim_steps(a[dim], b[dim], self.dims[dim])
            total += hops
        return total

    def media_map(self) -> dict[str, str]:
        """direction-name -> media type (for GpcdrModel construction)."""
        return {d: self.media[DIR_INDEX[d] // 2] for d in DIRS}
