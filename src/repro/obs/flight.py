"""Always-on flight recorder + postmortem dumps.

When a daemon dies at 02:00 the question is never "what is it doing
now" but "what was it doing just before".  Every daemon owns a
:class:`FlightRecorder` — a fixed-size ring of recent events (connection
state changes, updater FSM transitions, store submits, watchdog checks,
fault injections) recorded as flat scalar tuples, so the steady-state
cost is one list append per *event of interest* (never per update) and
memory is strictly bounded.

A *postmortem* (:func:`postmortem`) freezes the rings of the involved
daemons into one JSON-serializable document.  Triggers are wired where
failures surface: watchdog promotion (:mod:`repro.faults.watchdog`),
fault injection (:mod:`repro.faults.inject`), and sanitizer violations
(:mod:`repro.core.sanitize` raise path).  Dumps are retained in-process
(``postmortems`` ring, for tests and the ``prof`` verb) and optionally
written to disk — pass ``path=`` or set ``REPRO_POSTMORTEM_DIR``.

The module-level trigger registry deliberately holds *weak* references:
a recorder must never keep a dead daemon's object graph alive.
"""

from __future__ import annotations

import json
import os
import weakref
from collections import deque
from typing import Iterable, Optional

__all__ = [
    "FlightRecorder",
    "register_daemon",
    "registered_daemons",
    "postmortem",
    "postmortems",
    "reset_postmortems",
]


class FlightRecorder:
    """Bounded ring buffer of recent daemon events.

    Events are ``(t, category, event, a, b)`` tuples of scalars
    (floats/ints/short strings) — no dicts, no formatting — so a
    ``record`` call is one tuple build and one list append; the list
    runs to twice the ring size and is then cut back in one slice, so
    trimming is amortised.  A list, not a ``deque``: every daemon
    records its own start, and a deque's first block is 0.7 kB however
    few events it holds.
    """

    __slots__ = ("daemon", "_events", "total", "_ring")

    #: Event categories in use (documentation, not enforcement).
    CATEGORIES = ("daemon", "conn", "updater", "store",
                  "watchdog", "fault", "sanitize")

    def __init__(self, daemon: str, ring: int = 512):
        self.daemon = daemon
        self._ring = ring
        self._events: list[tuple] = []  # oldest first, < 2 * ring
        self.total = 0  # events ever recorded (ring overwrites don't hide rate)

    def record(self, t: float, category: str, event: str,
               a=0, b=0) -> None:
        events = self._events
        events.append((t, category, event, a, b))
        if len(events) >= 2 * self._ring:
            del events[:-self._ring]
        self.total += 1

    @property
    def events(self) -> list[tuple]:
        """The last ``ring`` events, oldest first."""
        return self._events[-self._ring:]

    def snapshot(self) -> list[dict]:
        return [
            {"t": t, "category": cat, "event": ev, "a": a, "b": b}
            for (t, cat, ev, a, b) in self.events
        ]

    def window(self) -> tuple[float, float]:
        """(oldest, newest) event times; (0, 0) when empty."""
        events = self.events
        if not events:
            return (0.0, 0.0)
        return (events[0][0], events[-1][0])


# ---------------------------------------------------------------------------
# postmortem coordination
# ---------------------------------------------------------------------------

#: Weakly-referenced daemons considered "the fleet" for triggers that
#: have no better scoping information (sanitizer violations).
_registry: list = []

#: Retained postmortem documents, newest last.
postmortems: deque[dict] = deque(maxlen=8)

_dump_seq = 0

#: Registry size that triggers the next dead-ref compaction.  Doubles
#: after each sweep so registering N daemons costs amortized O(N) —
#: compacting on *every* insert past a fixed cap is O(N²) at full-scale
#: fan-in (9k+ daemons in one process).
_compact_at = 128


def register_daemon(daemon) -> None:
    """Track a daemon for fleet-scoped postmortems (weakly referenced)."""
    global _compact_at
    _registry.append(weakref.ref(daemon))
    if len(_registry) >= _compact_at:
        _registry[:] = [r for r in _registry if r() is not None]
        _compact_at = max(128, 2 * len(_registry))


def registered_daemons() -> list:
    return [d for d in (r() for r in _registry) if d is not None]


def postmortem(reason: str, now: float, daemons: Optional[Iterable] = None,
               path: Optional[str] = None) -> dict:
    """Freeze flight-recorder rings into a postmortem document.

    ``daemons`` scopes the dump (watchdog/injector pass the daemons
    involved); when omitted, every registered daemon with a recorder is
    included.  Returns the document; also retains it in
    :data:`postmortems` and writes JSON to ``path`` (or a sequenced file
    under ``$REPRO_POSTMORTEM_DIR``) when requested.
    """
    global _dump_seq
    if daemons is None:
        daemons = registered_daemons()
    recorders = []
    for d in daemons:
        rec = getattr(d, "flight", None)
        if rec is None or not isinstance(rec, FlightRecorder):
            continue
        lo, hi = rec.window()
        recorders.append({
            "daemon": rec.daemon,
            "total_events": rec.total,
            "window": [lo, hi],
            "events": rec.snapshot(),
        })
    doc = {
        "reason": reason,
        "t": now,
        "daemons": recorders,
    }
    postmortems.append(doc)
    _dump_seq += 1
    if path is None:
        outdir = os.environ.get("REPRO_POSTMORTEM_DIR")
        if outdir:
            slug = "".join(c if c.isalnum() else "-" for c in reason)[:48]
            path = os.path.join(outdir, f"postmortem-{_dump_seq:03d}-{slug}.json")
    if path is not None:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        doc["path"] = path
    return doc


def reset_postmortems() -> None:
    """Clear retained dumps and the fleet registry (test isolation)."""
    global _compact_at
    postmortems.clear()
    _registry.clear()
    _compact_at = 128
