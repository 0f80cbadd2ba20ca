"""Deterministic fault injection and failover (paper §IV-B).

The paper's resilience story has three legs: standby connections held
by a neighbouring aggregator, failover "driven by an external
watchdog", and bypass of non-reporting hosts.  This package supplies
the two pieces the daemon itself does not implement:

* :class:`FaultPlan` / :class:`FaultInjector` — a declarative,
  seed-reproducible schedule of daemon crashes/restarts, link drops and
  partitions, link slowdowns, frame drops, and store write failures,
  applied entirely on the DES clock (no wall-clock, like the rest of
  the simulated world).
* :class:`Watchdog` — the external watchdog of §IV-B: it monitors
  producer progress (``last_update_ts``), declares a target dead after
  ``k`` missed check intervals, promotes the matching standby
  producers via ``activate_standby``, and demotes them when the
  primary recovers.

Faults are exercised deterministically (Jepsen-style schedules): the
same seed yields the same injection log, so failover behaviour is a
regression-testable property, not an anecdote.
"""

from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.inject import FaultInjector
from repro.faults.watchdog import Watchdog

__all__ = ["FaultEvent", "FaultPlan", "FaultInjector", "Watchdog"]
