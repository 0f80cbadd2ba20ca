"""Host-speed calibration: how slow is this host right now?

The ledger runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes (neighbours come and go), far
more than the regression bounds.  So every CPU-bound timing is divided by
a *slowness* factor measured right beside it: the thread-CPU time of a
fixed, interpreter-bound loop over what that loop takes on the quiet
reference host.  A slowness of 1.0 means "as fast as the reference host
when quiet"; a reported ``sets_per_s`` is therefore what the program
would do there, and the raw figure is printed next to it.

Two sizes of the same loop:

``BURST``
    ~5 ms, run before and after each slice of a single-threaded (DES)
    workload and around each timed set-up.
``PULSE``
    ~0.6 ms, run every 43 ms by the pacing thread of the real-time
    workload while the daemons work: short enough not to hold the GIL
    against them, and 43 ms walks through every phase of their 20 ms
    tick.  ``thread_time`` counts only this thread, so waiting for the
    GIL is not mistaken for a slow host.
"""

from __future__ import annotations

import struct
import time

__all__ = ["BURST", "PULSE", "slowness"]

#: (loop iterations, thread-CPU seconds on the quiet reference host).
#: The references are scale constants only: they make a quiet reference
#: host read 1.0 and cancel out of every comparison.
BURST = (20000, 4.9e-3)
PULSE = (2000, 0.60e-3)

_pack = struct.Struct("<8Q").pack


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 1
        self.b = 2.5

    def step(self, i: int) -> int:
        self.a = (self.a + i) & 0xFFFF
        return self.a


def _spin(n: int) -> float:
    """Thread-CPU seconds of ``n`` rounds of the kind of work the
    program does: method calls, dict and list traffic, number rendering,
    struct packing."""
    cell = _Cell()
    table: dict[int, int] = {}
    rows: list[tuple[int, int]] = []
    t0 = time.thread_time()
    for i in range(n):
        v = cell.step(i)
        table[v & 63] = i
        rows.append((v, i))
        if not i & 15:
            ",".join(map(str, (v, i, cell.b, v * 3, i + 7, v ^ i)))
            _pack(v, i, 1, 2, 3, 4, 5, 6)
            rows.clear()
    return time.thread_time() - t0


def slowness(size: tuple[int, float]) -> float:
    """One calibration sample of the given size, as a slowness factor."""
    n, ref = size
    return _spin(n) / ref
