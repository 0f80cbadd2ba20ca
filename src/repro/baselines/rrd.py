"""RRDTool-style round-robin storage.

Ganglia stores to RRDTool, "which ages out data and thus requires a
separate data move if long term storage is desired" (paper §IV-E).  An
RRD holds a fixed number of *consolidated* rows per archive (RRA): a
high-resolution archive covering the recent past and coarser archives
covering longer windows, each consolidating N primary points into one
(average/max).  Once the ring wraps, old rows are overwritten — data is
lost, unlike LDMS's append-only stores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RRArchive", "RoundRobinDatabase"]


@dataclass
class RRArchive:
    """One RRA: ``rows`` consolidated points, ``steps`` primary points
    per consolidated point, consolidated with ``cf`` (AVERAGE/MAX)."""

    steps: int
    rows: int
    cf: str = "AVERAGE"

    def __post_init__(self) -> None:
        if self.cf not in ("AVERAGE", "MAX", "MIN", "LAST"):
            raise ValueError(f"unknown consolidation function {self.cf!r}")
        self._data = np.full(self.rows, np.nan)
        self._times = np.full(self.rows, np.nan)
        self._head = 0
        self._pending: list[float] = []
        self.overwritten = 0

    def update(self, t: float, value: float) -> None:
        self._pending.append(value)
        if len(self._pending) < self.steps:
            return
        block = np.asarray(self._pending)
        self._pending.clear()
        cons = {
            "AVERAGE": np.mean,
            "MAX": np.max,
            "MIN": np.min,
            "LAST": lambda a: a[-1],
        }[self.cf](block)
        if not np.isnan(self._times[self._head]):
            self.overwritten += 1
        self._data[self._head] = cons
        self._times[self._head] = t
        self._head = (self._head + 1) % self.rows

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) oldest-first, NaN rows dropped."""
        order = np.argsort(self._times)
        t, v = self._times[order], self._data[order]
        keep = ~np.isnan(t)
        return t[keep], v[keep]

    @property
    def span(self) -> int:
        """Primary points this archive can represent before aging out."""
        return self.steps * self.rows


class RoundRobinDatabase:
    """A set of archives fed by one metric's primary data points.

    Default layout mirrors Ganglia's stock RRAs (scaled): fine recent
    data plus coarse long-term consolidations.
    """

    def __init__(self, archives: list[RRArchive] | None = None):
        self.archives = archives or [
            RRArchive(steps=1, rows=240),  # recent, full resolution
            RRArchive(steps=24, rows=240),  # consolidated 24:1
            RRArchive(steps=168, rows=240),  # consolidated 168:1
        ]
        self.updates = 0

    def update(self, t: float, value: float) -> None:
        self.updates += 1
        for rra in self.archives:
            rra.update(t, value)

    def fetch(self, max_age_points: int) -> tuple[np.ndarray, np.ndarray]:
        """Best-resolution series whose span covers ``max_age_points``
        primary points; falls back to the coarsest archive."""
        for rra in sorted(self.archives, key=lambda r: r.steps):
            if rra.span >= max_age_points:
                return rra.series()
        return self.archives[-1].series()
