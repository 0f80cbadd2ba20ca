"""Small statistics helpers used by the impact analyses and experiments.

These are intentionally simple, NumPy-vectorised implementations: the
experiments generate millions of loop timings (PSNAP runs 16M samples in
the paper) and per-sample Python loops would dominate run time.
numpy is imported by the first call, not by this module: the ledger's
real-TCP workload imports :func:`percentile` and must not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Histogram", "normalized", "percentile"]


@dataclass
class Histogram:
    """A fixed-bin histogram over float samples.

    Mirrors the paper's PSNAP presentation (occurrences vs loop time in
    microseconds, log-scale counts).  Bins are half-open ``[lo, hi)``
    except the last, which is closed.
    """

    edges: np.ndarray
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        import numpy as np

        self.edges = np.asarray(self.edges, dtype=np.float64)
        if self.edges.ndim != 1 or self.edges.size < 2:
            raise ValueError("edges must be a 1-D array of at least 2 values")
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        if self.counts is None:
            self.counts = np.zeros(self.edges.size - 1, dtype=np.int64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.shape != (self.edges.size - 1,):
                raise ValueError("counts shape does not match edges")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def add(self, samples: np.ndarray) -> None:
        """Accumulate more samples into the existing bins."""
        import numpy as np

        lo, hi = self.edges[0], self.edges[-1]
        clipped = np.clip(np.asarray(samples, dtype=np.float64), lo, np.nextafter(hi, lo))
        counts, _ = np.histogram(clipped, bins=self.edges)
        self.counts += counts

    def tail_count(self, threshold: float) -> int:
        """Number of samples in bins whose left edge is >= threshold."""
        mask = self.edges[:-1] >= threshold
        return int(self.counts[mask].sum())

    def tail_fraction(self, threshold: float) -> float:
        """Fraction of all samples at or beyond ``threshold``."""
        total = self.total
        return self.tail_count(threshold) / total if total else 0.0

    def rows(self) -> list[tuple[float, int]]:
        """(bin center, count) rows — what the figure plots."""
        return list(zip(self.centers.tolist(), self.counts.tolist()))


def normalized(values, reference: float) -> np.ndarray:
    """Normalize values to a reference (the paper's Fig. 6/7 y-axes).

    >>> normalized([10.0, 11.0], 10.0).tolist()
    [1.0, 1.1]
    """
    if reference == 0:
        raise ValueError("reference must be nonzero")
    import numpy as np

    return np.asarray(values, dtype=np.float64) / float(reference)


def percentile(values, q: float) -> float:
    """Convenience wrapper keeping analysis code NumPy-free at call sites."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
