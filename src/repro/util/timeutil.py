"""The sanctioned wall-clock boundary.

Everything under the DES takes time from the engine clock
(``env.now()``); the handful of places that legitimately need the host
clock — ``RealEnv``'s scheduler and the experiment drivers' elapsed-time
reporting — go through this module.  It is the only module that
imports ``time`` (``tests/test_source_tree.py`` fails on any other), so
every wall-clock dependency is findable from one import site.
"""

from __future__ import annotations

import time as _time

__all__ = ["monotonic", "perf_counter", "sleep", "thread_time",
           "wall_clock"]


#: Host monotonic clock, for real-time scheduling (``RealEnv``).  An
#: alias, not a wrapper: ``RealEnv.now()`` is then one C call.
monotonic = _time.monotonic


def perf_counter() -> float:
    """Highest-resolution host clock, for elapsed-time measurement."""
    return _time.perf_counter()


def thread_time() -> float:
    """CPU seconds the calling thread has run, for cost measurements a
    burst of other work on the host must not move (§IV-E)."""
    return _time.thread_time()


def sleep(seconds: float) -> None:
    """Host-clock sleep, for real-time pollers (``repro-top``).

    Nothing under the DES may block on host time; live CLIs pacing
    themselves against a real daemon are the only legitimate callers.
    """
    _time.sleep(seconds)


def wall_clock() -> float:
    """Host wall-clock epoch seconds, for human-facing timestamps only.

    Never feed this into DES state: it is not monotonic and differs
    across hosts.  Experiment drivers use it to stamp result files.
    """
    return _time.time()
