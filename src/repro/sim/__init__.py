"""Discrete-event simulation kernel.

The same ``ldmsd`` code that runs on real threads and sockets also runs
inside this kernel at cluster scale in simulated time.  The kernel is a
small callback-driven engine:

* :class:`~repro.sim.engine.Engine` — event heap + simulated clock,
  with bare ``call_later`` timers and reusable periodic timers.  It
  schedules callbacks only; worker pools (``repro.core.env``) keep
  their own FIFO of waiting tasks and push one when a worker frees.
* :class:`~repro.sim.resources.CpuCore` — a core that tracks busy
  intervals so application models can account for OS-noise-style
  perturbation from monitoring daemons.
"""

from repro.sim.engine import Engine
from repro.sim.resources import CpuCore, NoiseRecord

__all__ = [
    "Engine",
    "CpuCore",
    "NoiseRecord",
]
