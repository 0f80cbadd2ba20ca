"""The sanctioned wall-clock boundary.

Everything under the DES takes time from the engine clock
(``env.now()``); the handful of places that legitimately need the host
clock — ``RealEnv``'s scheduler and the experiment drivers' elapsed-time
reporting — go through this module.  The ``flow-clock-boundary`` and
``flow-des-purity`` lint rules ban ``time.*`` clock calls across the tree
and exempt exactly this module (``boundary-modules =
["repro.util.timeutil"]`` in ``[tool.reprolint.flow]``), so every
wall-clock dependency is findable from one import site.
"""

from __future__ import annotations

import time as _time

__all__ = ["monotonic", "perf_counter", "sleep", "wall_clock"]


def monotonic() -> float:
    """Host monotonic clock, for real-time scheduling (``RealEnv``)."""
    return _time.monotonic()


def perf_counter() -> float:
    """Highest-resolution host clock, for elapsed-time measurement."""
    return _time.perf_counter()


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
