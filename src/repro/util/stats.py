"""Small statistics helpers used by the impact analyses and experiments.

These are intentionally simple, NumPy-vectorised implementations: the
experiments generate millions of loop timings (PSNAP runs 16M samples in
the paper) and per-sample Python loops would dominate run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Histogram", "Summary", "normalized", "percentile"]


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


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample set."""

    n: int
    mean: float
    std: float
    min: float
    max: float
    p50: float
    p99: float

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "Summary":
        a = np.asarray(samples, dtype=np.float64)
        if a.size == 0:
            raise ValueError("cannot summarize an empty sample set")
        return cls(
            n=int(a.size),
            mean=float(a.mean()),
            std=float(a.std(ddof=1)) if a.size > 1 else 0.0,
            min=float(a.min()),
            max=float(a.max()),
            p50=float(np.percentile(a, 50)),
            p99=float(np.percentile(a, 99)),
        )

    @property
    def range(self) -> float:
        return self.max - self.min


def normalized(values, reference: float) -> np.ndarray:
    """Normalize values to a reference (the paper's Fig. 6/7 y-axes).

    >>> normalized([10.0, 11.0], 10.0).tolist()
    [1.0, 1.1]
    """
    if reference == 0:
        raise ValueError("reference must be nonzero")
    return np.asarray(values, dtype=np.float64) / float(reference)


def percentile(values, q: float) -> float:
    """Convenience wrapper keeping analysis code NumPy-free at call sites."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
