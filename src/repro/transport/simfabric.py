"""Simulated transports for the discrete-event simulator.

A :class:`SimFabric` is the process-wide wiring: an address table plus
optional hooks into a network model (latency per message, traffic
accounting).  A :class:`SimTransport` is one daemon's attachment to the
fabric with a named cost profile (``sock``/``rdma``/``ugni``).

Cost semantics (see :data:`repro.transport.base.PROFILES`):

* every message/read experiences ``base_latency + nbytes * per_byte``
  plus whatever the injected network-model latency function adds;
* an RDMA read consumes **zero CPU on the target** for the ``rdma`` and
  ``ugni`` profiles; the ``sock`` profile charges the target's core,
  which is how monitoring traffic perturbs applications on sampler
  nodes (§V impact testing: "no net" variants isolate exactly this);
* a transport refuses connections beyond ``max_connections``, the
  transport-level fan-in bound (§IV-A).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.sim.engine import Engine
from repro.sim.resources import CpuCore
from repro.transport.base import (
    Endpoint,
    Listener,
    Transport,
    TransportProfile,
    get_transport_profile,
)
from repro.util.errors import TransportError

__all__ = ["SimFabric", "SimTransport", "FabricFaults"]

#: latency_fn(src_node_id, dst_node_id, nbytes) -> extra seconds
LatencyFn = Callable[[object, object, int], float]
#: traffic_cb(src_node_id, dst_node_id, nbytes, time)
TrafficCb = Callable[[object, object, int, float], None]


class FabricFaults:
    """Link-level fault state consulted by simulated endpoints.

    Injected by :class:`repro.faults.FaultInjector` (or directly by
    tests): blocked links black-hole frames and fail one-sided reads,
    ``extra_latency`` slows a link, and frame filters drop individual
    frames (e.g. one LOOKUP_REPLY).  Links are undirected for
    block/slow state; filters see the direction of each frame.  All
    state changes take effect at the simulation instant they are made —
    the injector schedules them on the engine clock.
    """

    def __init__(self) -> None:
        self._down: set[frozenset] = set()
        self._slow: dict[frozenset, float] = {}
        #: fn(src, dst, frame) -> True to drop.  Filters run in
        #: registration order; the first hit wins.
        self._filters: list = []
        self.frames_dropped = 0
        self.reads_failed = 0
        #: Whether any fault is live.  Endpoints test this on every
        #: frame and read, so it is a plain attribute the mutators keep
        #: current, not a property recomputed per hop.
        self.active = False

    def _refresh(self) -> None:
        self.active = bool(self._down or self._slow or self._filters)

    @staticmethod
    def _key(a, b) -> frozenset:
        return frozenset((a, b))

    def block(self, a, b) -> None:
        self._down.add(self._key(a, b))
        self._refresh()

    def unblock(self, a, b) -> None:
        self._down.discard(self._key(a, b))
        self._refresh()

    def blocked(self, a, b) -> bool:
        return self._key(a, b) in self._down

    def set_latency(self, a, b, extra: float) -> None:
        self._slow[self._key(a, b)] = max(extra, 0.0)
        self._refresh()

    def clear_latency(self, a, b) -> None:
        self._slow.pop(self._key(a, b), None)
        self._refresh()

    def extra_latency(self, a, b) -> float:
        return self._slow.get(self._key(a, b), 0.0)

    def add_filter(self, fn) -> None:
        self._filters.append(fn)
        self._refresh()

    def remove_filter(self, fn) -> None:
        if fn in self._filters:
            self._filters.remove(fn)
        self._refresh()

    def drops_frame(self, src, dst, frame: bytes) -> bool:
        """Whether the fault state eats this frame on the wire."""
        if self._key(src, dst) in self._down:
            return True
        for fn in self._filters:
            if fn(src, dst, frame):
                return True
        return False


class SimFabric:
    """Address table + network-model hooks shared by simulated daemons."""

    def __init__(
        self,
        engine: Engine,
        latency_fn: Optional[LatencyFn] = None,
        traffic_cb: Optional[TrafficCb] = None,
    ):
        self.engine = engine
        self.latency_fn = latency_fn
        self.traffic_cb = traffic_cb
        self._listeners: dict[object, "_SimListener"] = {}
        self.total_bytes = 0
        self.total_messages = 0
        #: Fault-injection state; endpoints consult it only while a
        #: fault is live (one attribute check on the no-fault path).
        self.faults = FabricFaults()
        #: The engine clock, made once: every endpoint's clock until a
        #: daemon adopts it (the establish-time anchor is on this clock).
        self.clock = partial(getattr, engine, "_now")

    def _account(self, src, dst, nbytes: int) -> float:
        """Record traffic and return the model's extra latency."""
        self.total_bytes += nbytes
        self.total_messages += 1
        if self.traffic_cb is not None:
            self.traffic_cb(src, dst, nbytes, self.engine.now)
        if self.latency_fn is not None:
            return max(self.latency_fn(src, dst, nbytes), 0.0)
        return 0.0


class _SimRead:
    """A single-region read in flight: one engine item, fired at the
    target hop (snapshot the region) and again at the reply hop (reap
    the completion).  Failed reads complete through ``call_later``."""

    __slots__ = ("ep", "region_id", "on_complete", "trace", "data",
                 "at_target")

    def __init__(self, ep: "_SimEndpoint", region_id: int, on_complete,
                 trace) -> None:
        self.ep = ep
        self.region_id = region_id
        self.on_complete = on_complete
        self.trace = trace
        self.data: Optional[bytes] = None
        self.at_target = False

    def _fire(self) -> None:
        if self.at_target:
            self.ep._read_complete(self.on_complete, self.data)
        else:
            self.at_target = True
            self.ep._read_at_target(self)


class _SimEndpoint(Endpoint):
    def __init__(self, transport: "SimTransport", node_id):
        super().__init__()
        self.transport = transport
        self.node_id = node_id
        self.peer: Optional["_SimEndpoint"] = None
        # Bound once: every hop reads both.
        self.fabric: SimFabric = transport.fabric
        self.engine: Engine = transport.fabric.engine
        self.clock = self.fabric.clock

    def _wire_delay(self, nbytes: int, dst) -> float:
        p = self.transport.profile
        fabric = self.fabric
        if fabric.traffic_cb is None and fabric.latency_fn is None:
            # No network-model hooks (the common sweep configuration):
            # account inline rather than through _account.
            fabric.total_bytes += nbytes
            fabric.total_messages += 1
            extra = 0.0
        else:
            extra = fabric._account(self.node_id, dst, nbytes)
        faults = fabric.faults
        if faults.active:
            extra += faults.extra_latency(self.node_id, dst)
        return p.base_latency + nbytes * p.per_byte + extra

    def send(self, frame: bytes) -> None:
        if self.closed or self.peer is None:
            raise TransportError("send on closed sim endpoint")
        self.bytes_sent += len(frame)
        peer = self.peer
        faults = self.fabric.faults
        if faults.active and faults.drops_frame(self.node_id, peer.node_id, frame):
            # Lost on the faulted link: the sender paid for the send,
            # the receiver never hears it (no error, no close — exactly
            # the silence a lost reply produces).
            faults.frames_dropped += 1
            return
        delay = self._wire_delay(len(frame), peer.node_id)
        # Bound method + timer args instead of a per-frame closure: the
        # fan-in hot path sends tens of thousands of frames per simulated
        # second, and each closure cell is an allocation the engine's
        # bare ``_Timer`` otherwise avoids.
        self.engine.call_later(delay, peer._deliver_if_open, frame)

    def _deliver_if_open(self, frame: bytes) -> None:
        if not self.closed:
            self._deliver(frame)

    def rdma_read(self, region_id: int, on_complete, trace=None) -> None:
        if self.closed or self.peer is None:
            on_complete(None)
            return
        peer = self.peer
        p = self.transport.profile
        faults = self.fabric.faults
        if faults.active and faults.blocked(self.node_id, peer.node_id):
            # Link down at issue time: the read completes in error after
            # the transport's detection latency, never silently hangs —
            # the in-flight flag must always be released.
            faults.reads_failed += 1
            self.engine.call_later(p.base_latency, on_complete, None)
            return
        # Request travels to the target... (a trace-context blob rides
        # in the request frame: 15 bytes per entry, see wire.py)
        nreq = 64 if trace is None else 64 + 1 + 15 * len(trace)
        req_delay = self._wire_delay(nreq, peer.node_id)
        self.engine._push(_SimRead(self, region_id, on_complete, trace),
                          req_delay)

    def _read_at_target(self, read: "_SimRead") -> None:
        peer = self.peer
        p = self.transport.profile
        faults = self.fabric.faults
        if faults.active and faults.blocked(self.node_id, peer.node_id):
            # Link went down mid-flight: completion error on the
            # initiator after the detection latency.
            faults.reads_failed += 1
            self.engine.call_later(p.base_latency, read.on_complete, None)
            return
        if peer is None or peer.closed:
            self.engine.call_later(p.base_latency, read.on_complete, None)
            return
        trace = read.trace
        if trace is not None and peer.on_traced_read is not None:
            for _idx, tid, sid, hop in trace:
                peer.on_traced_read(tid, sid, hop, read.region_id)
        reader = peer._regions.get(read.region_id)
        data = bytes(reader()) if reader is not None else None
        nbytes = len(data) if data is not None else 0
        # Target CPU cost (zero for true RDMA).
        cost = p.target_cpu_per_read + nbytes * p.target_cpu_per_byte
        if cost > 0.0 and peer.transport.core is not None:
            peer.transport.core.add_noise(self.engine.now, cost, tag="netmon")
        reply_delay = cost + peer._wire_delay(nbytes, self.node_id)
        if data is not None:  # one completed read (``_account_read``)
            self.rdma_reads += 1
            self.rdma_bytes_read += nbytes
        read.data = data
        self.engine._push(read, reply_delay)

    def _read_complete(self, on_complete, data) -> None:
        # Initiator CPU to reap the completion.
        p = self.transport.profile
        if self.transport.core is not None and p.initiator_cpu_per_read > 0:
            self.transport.core.add_noise(
                self.engine.now, p.initiator_cpu_per_read, tag="agg"
            )
        on_complete(data)

    def rdma_read_multi(self, region_ids, on_complete, trace=None) -> None:
        """Coalesced batch read: one request hop, one reply hop.

        Cost semantics match N single reads exactly for CPU (per-read
        target and initiator charges are summed), so §IV-D utilization
        numbers are unchanged; only the per-message wire latency and the
        simulator's event count are amortised over the batch — which is
        the point of update coalescing.
        """
        n = len(region_ids)
        if self.closed or self.peer is None:
            on_complete([None] * n)
            return
        peer = self.peer
        p = self.transport.profile
        faults = self.fabric.faults
        if faults.active and faults.blocked(self.node_id, peer.node_id):
            faults.reads_failed += 1
            self.engine.call_later(p.base_latency, on_complete, [None] * n)
            return
        # One request frame naming all N regions (8 bytes per id), plus
        # any trace-context blob (15 bytes per traced region).
        nreq = 64 + 8 * n
        if trace is not None:
            nreq += 1 + 15 * len(trace)
        req_delay = self._wire_delay(nreq, peer.node_id)
        self.engine.call_later(
            req_delay, self._multi_at_target, region_ids, on_complete, trace)

    def _multi_at_target(self, region_ids, on_complete, trace=None) -> None:
        peer = self.peer
        p = self.transport.profile
        n = len(region_ids)
        faults = self.fabric.faults
        if faults.active and faults.blocked(self.node_id, peer.node_id):
            faults.reads_failed += 1
            self.engine.call_later(p.base_latency, on_complete, [None] * n)
            return
        if peer is None or peer.closed:
            self.engine.call_later(p.base_latency, on_complete, [None] * n)
            return
        if trace is not None and peer.on_traced_read is not None:
            for idx, tid, sid, hop in trace:
                if idx < n:
                    peer.on_traced_read(tid, sid, hop, region_ids[idx])
        results = peer.read_regions(region_ids)
        nbytes = sum(len(d) for d in results if d is not None)
        cost = n * p.target_cpu_per_read + nbytes * p.target_cpu_per_byte
        if cost > 0.0 and peer.transport.core is not None:
            peer.transport.core.add_noise(self.engine.now, cost, tag="netmon")
        # One reply frame: per-region 8-byte status/len headers + data.
        reply_delay = cost + peer._wire_delay(nbytes + 8 * n, self.node_id)
        if nbytes:  # one completed read (``_account_read``)
            self.rdma_reads += 1
            self.rdma_bytes_read += nbytes
        self.engine.call_later(reply_delay, self._multi_complete, results, on_complete)

    def _multi_complete(self, results, on_complete) -> None:
        p = self.transport.profile
        if self.transport.core is not None and p.initiator_cpu_per_read > 0:
            self.transport.core.add_noise(
                self.engine.now, len(results) * p.initiator_cpu_per_read, tag="agg"
            )
        on_complete(results)

    def close(self) -> None:
        if self.closed:
            return
        peer = self.peer
        self._closed()
        self.transport._conn_count -= 1
        if peer is not None and not peer.closed:
            # Peer learns of the close after a propagation delay.
            def tell_peer() -> None:
                if not peer.closed:
                    peer.transport._conn_count -= 1
                    peer._closed()

            self.engine.call_later(self.transport.profile.base_latency, tell_peer)


class _SimListener(Listener):
    __slots__ = ("transport", "addr")

    def __init__(self, transport: "SimTransport", addr, on_connect):
        super().__init__(on_connect)
        self.transport = transport
        self.addr = addr

    def close(self) -> None:
        self.transport.fabric._listeners.pop(self.addr, None)


class SimTransport(Transport):
    """One daemon's attachment to the fabric.

    Parameters
    ----------
    fabric:
        The shared :class:`SimFabric`.
    profile:
        Transport type name (``sock``/``rdma``/``ugni``) or a custom
        :class:`TransportProfile`.
    node_id:
        Identifier passed to the fabric's network-model hooks (e.g. a
        torus coordinate or node index).
    core:
        The :class:`CpuCore` this daemon's transport work is charged to.
    """

    __slots__ = ("fabric", "profile", "node_id", "core", "_conn_count",
                 "refused_connections")

    def __init__(
        self,
        fabric: SimFabric,
        profile: str | TransportProfile = "sock",
        node_id=None,
        core: Optional[CpuCore] = None,
    ):
        self.fabric = fabric
        self.profile = (
            profile if isinstance(profile, TransportProfile) else get_transport_profile(profile)
        )
        self.node_id = node_id
        self.core = core
        self._conn_count = 0
        self.refused_connections = 0

    @property
    def connections(self) -> int:
        return self._conn_count

    def listen(self, addr, on_connect) -> _SimListener:
        if addr in self.fabric._listeners:
            raise TransportError(f"sim address {addr!r} already listening")
        lst = _SimListener(self, addr, on_connect)
        self.fabric._listeners[addr] = lst
        return lst

    def connect(self, addr, on_connected) -> None:
        eng = self.fabric.engine
        lst = self.fabric._listeners.get(addr)
        if lst is None:
            eng.call_later(self.profile.connect_latency, lambda: on_connected(None))
            return
        target = lst.transport
        if (
            self._conn_count >= self.profile.max_connections
            or target._conn_count >= target.profile.max_connections
        ):
            # Transport endpoint capacity exhausted: the fan-in wall.
            (target if target._conn_count >= target.profile.max_connections else self).refused_connections += 1
            eng.call_later(self.profile.connect_latency, lambda: on_connected(None))
            return

        a = _SimEndpoint(self, self.node_id)
        b = _SimEndpoint(target, target.node_id)
        a.peer, b.peer = b, a
        self._conn_count += 1
        target._conn_count += 1

        def establish() -> None:
            # Both clocks are the shared DES clock (each endpoint reads
            # the engine's until a daemon installs its own, the same
            # one), so the peer-age anchor a stream transport's HELLO
            # carries is exact here.
            a._peer_clock = b._peer_clock = (0.0, 0.0)
            lst.on_connect(b)
            on_connected(a)

        eng.call_later(self.profile.connect_latency, establish)
