"""CPU-core noise accounting.

:class:`CpuCore` records *busy intervals* attributed to background
daemons.  Application models ask the core how much extra delay a
nominal compute burst of length ``L`` starting at time ``t``
experiences; this is the OS-noise coupling that the paper's PSNAP and
application impact experiments measure.  (Worker pools are counted
FIFO queues owned by ``repro.core.env``'s simulated environment.)
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.util.errors import SimulationError

__all__ = ["CpuCore", "NoiseRecord"]


@dataclass(frozen=True)
class NoiseRecord:
    """One busy interval on a core: [start, start+duration), with a tag."""

    start: float
    duration: float
    tag: str


class CpuCore:
    """A core that accumulates daemon busy-time for noise accounting.

    The monitoring daemon calls :meth:`add_noise` each time its sampler
    executes on this core.  An application model running a nominal
    compute burst calls :meth:`perturbed_finish` to learn when the burst
    actually completes: any noise interval that begins before the
    (extended) completion point preempts the application and pushes
    completion out by the noise duration.  This is the standard
    noise-absorption model used in the OS-noise literature the paper
    cites (Ferreira et al.).
    """

    __slots__ = ("index", "_starts", "_records", "busy_total")

    def __init__(self, index: int = 0):
        self.index = index
        self._starts: list[float] = []  # sorted noise start times
        self._records: list[NoiseRecord] = []
        self.busy_total = 0.0

    def add_noise(self, start: float, duration: float, tag: str = "ldmsd") -> None:
        if duration < 0:
            raise SimulationError("noise duration must be >= 0")
        pos = bisect.bisect_right(self._starts, start)
        self._starts.insert(pos, start)
        self._records.insert(pos, NoiseRecord(start, duration, tag))
        self.busy_total += duration

    def perturbed_finish(self, start: float, work: float) -> float:
        """Completion time of a burst of ``work`` seconds starting at ``start``.

        Iteratively absorbs noise intervals that begin before the current
        completion estimate (each absorbed interval can expose further
        intervals to absorption).  Noise that began strictly before
        ``start`` is ignored — it already delayed the *previous* burst.
        """
        finish = start + work
        lo = bisect.bisect_left(self._starts, start)
        i = lo
        while i < len(self._starts) and self._starts[i] < finish:
            finish += self._records[i].duration
            i += 1
        return finish

    def records(self) -> list[NoiseRecord]:
        return list(self._records)
