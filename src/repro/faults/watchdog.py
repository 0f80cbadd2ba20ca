"""The external failover watchdog of paper §IV-B.

The paper's aggregators hold *standby* connections to another
aggregator's collection targets but deliberately do not decide failover
themselves: "failover is driven by an external watchdog".  This module
is that watchdog.  It polls a heartbeat per watched target — for an
aggregator, the most recent ``last_update_ts`` across its producers —
on a fixed check interval, declares the target dead after ``k``
consecutive checks without progress, and fires the registered failover
action (promoting standby producers via ``activate_standby``).  If the
heartbeat later advances again, the target is declared recovered and
the standbys are demoted.

Detection latency is bounded: a target that stops making progress is
declared dead within ``(k + 1) * check_interval`` of its last
heartbeat (one interval to notice no progress, ``k`` to confirm), so
with ``check_interval`` equal to the collection interval the paper's
fast-failover configuration promotes within ``k`` intervals plus one.

The watchdog runs entirely on the injected environment clock, so it is
deterministic under the DES and wall-clock-driven under ``RealEnv``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.env import Env
from repro.obs.spans import postmortem
from repro.util.errors import ConfigError

__all__ = ["Watchdog", "WatchedTarget"]


@dataclass
class WatchedTarget:
    """Liveness state of one watched name."""

    name: str
    #: Zero-argument callable returning a monotonically non-decreasing
    #: progress stamp (e.g. the newest producer ``last_update_ts``).
    heartbeat: Callable[[], float]
    on_dead: Callable[[], None]
    on_recover: Optional[Callable[[], None]] = None
    #: Last observed stamp; ``None`` until the baseline check has run,
    #: so a freshly watched target is never declared dead for history
    #: that predates the watchdog.
    last: Optional[float] = None
    missed: int = 0
    dead: bool = False
    deaths: int = 0
    recoveries: int = 0


@dataclass
class WatchdogEvent:
    """One state transition, recorded for post-run inspection."""

    time: float
    target: str
    kind: str  # "dead" | "recovered"
    missed: int = 0

    def describe(self) -> str:
        return f"t={self.time:.3f} {self.target} {self.kind}"


class Watchdog:
    """Poll heartbeats; declare death after ``k`` stalled checks.

    Parameters
    ----------
    env:
        Clock/scheduler the checks run on.
    check_interval:
        Seconds between liveness checks.  Must be no shorter than the
        heartbeat's natural period, otherwise healthy targets look
        stalled between legitimate updates.
    k:
        Consecutive stalled checks before a target is declared dead
        (the paper's "missed intervals" threshold).
    """

    def __init__(self, env: Env, check_interval: float, k: int = 3):
        if check_interval <= 0:
            raise ConfigError("watchdog check_interval must be positive")
        if k < 1:
            raise ConfigError("watchdog k must be >= 1")
        self.env = env
        self.check_interval = float(check_interval)
        self.k = int(k)
        self.targets: dict[str, WatchedTarget] = {}
        self.events: list[WatchdogEvent] = []
        #: Postmortem documents of the promotions this watchdog made.
        self.postmortems: list[dict] = []
        self.checks_run = 0
        self._handle = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def watch(
        self,
        name: str,
        heartbeat: Callable[[], float],
        on_dead: Callable[[], None],
        on_recover: Optional[Callable[[], None]] = None,
    ) -> WatchedTarget:
        """Watch an arbitrary heartbeat; fire ``on_dead`` on stall."""
        if name in self.targets:
            raise ConfigError(f"already watching {name!r}")
        tgt = WatchedTarget(name=name, heartbeat=heartbeat,
                            on_dead=on_dead, on_recover=on_recover)
        self.targets[name] = tgt
        return tgt

    def watch_aggregator(
        self,
        primary,
        standby_owner,
        standby_producers: Optional[Sequence[str]] = None,
    ) -> WatchedTarget:
        """Wire the §IV-B loop: watch ``primary``'s collection progress
        and fail over to ``standby_owner``'s standby producers.

        ``primary`` and ``standby_owner`` are :class:`~repro.core.ldmsd.Ldmsd`
        instances.  The heartbeat is the newest ``last_update_ts`` across
        the primary's producers — an aggregator that crashed (or lost its
        whole fan-in) stops advancing it.  On death every named standby
        producer on the owner is promoted with ``activate_standby``; on
        recovery they are demoted so the primary's data is not stored
        twice.  Promotions surface in the owner's telemetry as
        ``watchdog.promotions`` (exported by ``ldmsd_self``).  The
        owner's span ring logs every check, promotion and recovery, and
        a promotion freezes both daemons' rings into a postmortem kept
        in :attr:`postmortems`: the dead primary's ring still holds
        what it was doing before the stall.
        """
        if standby_producers is None:
            standby_producers = tuple(
                n for n, p in standby_owner.producers.items() if p.cfg.standby
            )
        names = tuple(standby_producers)
        if not names:
            raise ConfigError(
                f"{standby_owner.name!r} holds no standby producers for "
                f"{primary.name!r}"
            )
        promotions = standby_owner.obs.counter("watchdog.promotions")
        demotions = standby_owner.obs.counter("watchdog.demotions")
        log = standby_owner.spans.record_event
        now = self.env.now

        def heartbeat() -> float:
            log(now(), "watchdog", "check", tgt.missed, 1 if tgt.dead else 0)
            return max(
                (p.stats.last_update_ts for p in primary.producers.values()),
                default=0.0,
            )

        def on_dead() -> None:
            t = now()
            log(t, "watchdog", "promote", tgt.missed)
            for n in names:
                if n in standby_owner.producers:
                    standby_owner.activate_standby(n)
                    promotions.inc()
            self.postmortems.append(postmortem(
                f"watchdog_promotion:{primary.name}", t,
                (primary, standby_owner)))

        def on_recover() -> None:
            log(now(), "watchdog", "recovered")
            for n in names:
                prod = standby_owner.producers.get(n)
                if prod is not None:
                    prod.deactivate()
                    demotions.inc()

        tgt = self.watch(primary.name, heartbeat, on_dead, on_recover)
        return tgt

    # ------------------------------------------------------------------
    # the check loop
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._handle is not None

    def start(self) -> None:
        if self._handle is not None:
            return
        self._handle = self.env.call_every(self.check_interval, self._check)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _check(self) -> None:
        self.checks_run += 1
        now = self.env.now()
        for tgt in self.targets.values():
            hb = tgt.heartbeat()
            if tgt.last is None:
                # Baseline: the first check only records where the
                # heartbeat stands; stalls are counted from here.
                tgt.last = hb
                continue
            if hb > tgt.last:
                tgt.last = hb
                tgt.missed = 0
                if tgt.dead:
                    tgt.dead = False
                    tgt.recoveries += 1
                    self.events.append(
                        WatchdogEvent(time=now, target=tgt.name, kind="recovered")
                    )
                    if tgt.on_recover is not None:
                        tgt.on_recover()
                continue
            tgt.missed += 1
            if not tgt.dead and tgt.missed >= self.k:
                tgt.dead = True
                tgt.deaths += 1
                self.events.append(
                    WatchdogEvent(time=now, target=tgt.name, kind="dead",
                                  missed=tgt.missed)
                )
                tgt.on_dead()
