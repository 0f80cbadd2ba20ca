"""Discrete-event simulation kernel.

The same ``ldmsd`` code that runs on real threads and sockets also runs
inside this kernel at cluster scale in simulated time.  The kernel is a
small callback-driven engine:

* :class:`~repro.sim.engine.Engine` — event heap + simulated clock,
  with bare ``call_later`` timers and reusable periodic timers.
* :class:`~repro.sim.engine.Event` — a waitable occurrence that runs
  its callbacks when it fires (a worker-pool grant).
* :class:`~repro.sim.resources.Resource` — FIFO server pools (CPU cores,
  worker threads).
* :class:`~repro.sim.resources.CpuCore` — a core that tracks busy
  intervals so application models can account for OS-noise-style
  perturbation from monitoring daemons.
"""

from repro.sim.engine import Engine, Event
from repro.sim.resources import Resource, CpuCore, NoiseRecord

__all__ = [
    "Engine",
    "Event",
    "Resource",
    "CpuCore",
    "NoiseRecord",
]
