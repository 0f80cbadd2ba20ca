"""Applying a :class:`~repro.faults.plan.FaultPlan` to a live topology.

The injector schedules every event of an armed plan on the environment
clock and applies it at its simulation instant:

* ``crash``/``restart`` — hard-stop a daemon (``shutdown()``; peers
  observe the close after the transport's propagation delay, like a
  TCP reset) and optionally rebuild it through a caller-supplied
  ``restart`` factory;
* link faults — drive :class:`repro.transport.simfabric.FabricFaults`
  (block/unblock, extra latency, partitions);
* ``drop_frames`` — a self-retiring fabric filter that eats the next
  ``count`` frames on a directed link, optionally only frames of one
  message type (the lost-LOOKUP_REPLY fault);
* ``store_fail``/``store_heal`` — flip ``fail_writes`` on every store
  plugin of a daemon.

Every applied event is appended to :attr:`FaultInjector.log` as
``(time, description)`` and counted on the targeted daemon's telemetry
registry as ``faults.injected`` (exported by ``ldmsd_self``), so a
seeded plan yields an identical, inspectable injection log on every
run.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core import wire
from repro.core.env import Env
from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs import flight as flightmod
from repro.util.errors import ConfigError

__all__ = ["FaultInjector"]


class FaultInjector:
    """Arms fault plans against a registry of daemons and a fabric.

    Parameters
    ----------
    env:
        Clock the events are scheduled on.
    daemons:
        Mutable mapping of daemon name -> ``Ldmsd``.  The injector
        crashes daemons through it and writes restarted instances back,
        so callers sharing the mapping see replacements.
    fabric:
        The :class:`~repro.transport.simfabric.SimFabric` whose fault
        state link events drive.  Optional when the plan has no link or
        frame-drop events.
    restart:
        ``restart(name) -> Ldmsd`` factory used by ``restart`` events.
        Optional when the plan never restarts anything.
    """

    def __init__(
        self,
        env: Env,
        daemons: Optional[dict] = None,
        fabric=None,
        restart: Optional[Callable[[str], object]] = None,
    ):
        self.env = env
        self.daemons = daemons if daemons is not None else {}
        self.fabric = fabric
        self.restart = restart
        #: (sim time, event description) per applied event.
        self.log: list[tuple[float, str]] = []
        self.injected = 0
        self._handles: list = []

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    _LINK_KINDS = frozenset(
        {"link_down", "link_up", "slow_link", "link_normal",
         "partition", "heal", "drop_frames"}
    )

    def arm(self, plan: FaultPlan) -> None:
        """Schedule every event of ``plan`` relative to the current
        clock.  Validation is up-front: a plan that needs a fabric or a
        restart factory the injector does not have is rejected before
        anything is scheduled."""
        for ev in plan.events:
            if ev.kind in self._LINK_KINDS and self.fabric is None:
                raise ConfigError(f"{ev.describe()} needs a fabric")
            if ev.kind == "restart" and self.restart is None:
                raise ConfigError(f"{ev.describe()} needs a restart factory")
        now = self.env.now()
        for ev in plan.events:
            self._handles.append(
                self.env.call_later(max(ev.at - now, 0.0),
                                    lambda e=ev: self._apply(e))
            )

    def disarm(self) -> None:
        """Cancel every not-yet-applied event."""
        for h in self._handles:
            h.cancel()
        self._handles.clear()

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def _count_on(self, name: str) -> None:
        d = self.daemons.get(name)
        if d is not None:
            d.obs.counter("faults.injected").inc()

    def _apply(self, ev: FaultEvent) -> None:
        self.injected += 1
        self.log.append((self.env.now(), ev.describe()))
        faults = self.fabric.faults if self.fabric is not None else None
        if ev.kind == "crash":
            name = ev.target[0]
            self._count_on(name)
            d = self.daemons.get(name)
            if d is not None:
                # The victim's flight ring gets the crash as its final
                # event, then the ring is frozen into a postmortem dump
                # *before* shutdown tears anything down.
                now = self.env.now()
                d.flight.record(now, "fault", "crash")
                flightmod.postmortem(f"fault_crash:{name}", now, (d,))
                d.shutdown()
        elif ev.kind == "restart":
            name = ev.target[0]
            self.daemons[name] = self.restart(name)
            self._count_on(name)
        elif ev.kind == "link_down":
            faults.block(*ev.target)
        elif ev.kind == "link_up":
            faults.unblock(*ev.target)
        elif ev.kind == "slow_link":
            faults.set_latency(*ev.target, ev.extra_latency)
        elif ev.kind == "link_normal":
            faults.clear_latency(*ev.target)
        elif ev.kind == "partition":
            group_a, group_b = ev.target
            for a in group_a:
                for b in group_b:
                    faults.block(a, b)
        elif ev.kind == "heal":
            group_a, group_b = ev.target
            for a in group_a:
                for b in group_b:
                    faults.unblock(a, b)
        elif ev.kind == "drop_frames":
            faults.add_filter(self._make_frame_eater(ev, faults))
        elif ev.kind == "store_fail":
            name = ev.target[0]
            self._count_on(name)
            d = self.daemons.get(name)
            if d is not None:
                for store in d.stores:
                    store.fail_writes = True
        elif ev.kind == "store_heal":
            d = self.daemons.get(ev.target[0])
            if d is not None:
                for store in d.stores:
                    store.fail_writes = False

    @staticmethod
    def _make_frame_eater(ev: FaultEvent, faults):
        """Filter eating the next ``ev.count`` matching frames on the
        directed link ``ev.target``; retires itself when spent."""
        want_src, want_dst = ev.target
        state = {"left": ev.count}

        def fn(src, dst, frame: bytes) -> bool:
            if (src, dst) != (want_src, want_dst):
                return False
            if (
                ev.msg_type is not None
                and wire.decode_frame(frame).msg_type != ev.msg_type
            ):
                return False
            state["left"] -= 1
            if state["left"] <= 0:
                # This frame is the last one to eat: drop it, then get
                # out of the fast path.
                faults.remove_filter(fn)
            return True

        return fn
