"""Transport plugin interface and per-transport cost profiles.

An :class:`Endpoint` is one side of an established connection.  It moves
opaque *frames* (encoded by :mod:`repro.core.wire`) and supports
one-sided reads of *registered regions* — the RDMA abstraction through
which aggregators pull data chunks.  Over true-RDMA transports a region
read consumes no CPU on the target; the socket transport emulates the
read with an internal request/reply that does.

All endpoint callbacks (``on_message``, ``on_close``, read completions)
are invoked from transport machinery; owners must provide their own
serialization (ldmsd uses one daemon lock).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.util.errors import ConfigError, TransportError
from repro.util.timeutil import monotonic as _monotonic

__all__ = [
    "BASE_FEATURES",
    "Endpoint",
    "Listener",
    "Transport",
    "TransportProfile",
    "transport_registry",
    "register_transport",
    "get_transport_profile",
    "PROFILES",
]


@dataclass(frozen=True)
class TransportProfile:
    """Cost/capacity model of a transport type.

    The numbers matter only for the simulated fabric; the real ``sock``
    transport has whatever cost the machine gives it.
    Values are calibrated in DESIGN.md §"Numbers we calibrate".

    Attributes
    ----------
    connect_latency:
        Seconds to establish a connection.
    base_latency:
        One-way message/RDMA-read initiation latency, seconds.
    per_byte:
        Serialization time per byte (1/bandwidth), seconds.
    target_cpu_per_read:
        CPU seconds consumed *on the target node* to service one data
        fetch.  Zero for RDMA transports ("the data fetching {f} will
        not consume CPU cycles", paper Fig. 2).
    target_cpu_per_byte:
        Additional target CPU per fetched byte (socket copies).
    initiator_cpu_per_read:
        CPU seconds on the aggregator to initiate+complete one fetch.
    max_connections:
        Endpoint capacity of one daemon — the transport-level fan-in
        bound (paper §IV-A: ~9,000:1 sock and IB RDMA, >15,000:1 ugni).
    registered_mem_per_region:
        Bytes of registered memory per exposed region ("a few kB",
        §IV-D).
    """

    name: str
    connect_latency: float
    base_latency: float
    per_byte: float
    target_cpu_per_read: float
    target_cpu_per_byte: float
    initiator_cpu_per_read: float
    max_connections: int
    registered_mem_per_region: int = 4096


#: Built-in profiles.  sock ~ commodity GigE/IPoIB; rdma ~ IB verbs;
#: ugni ~ Cray Gemini.  Fan-in capacities follow §IV-A.
PROFILES: dict[str, TransportProfile] = {
    "sock": TransportProfile(
        name="sock",
        connect_latency=200e-6,
        base_latency=40e-6,
        per_byte=1.0 / 1.0e9,  # ~1 GB/s effective stream bandwidth
        target_cpu_per_read=12e-6,  # syscall + copy at the sampler
        target_cpu_per_byte=0.3e-9,
        initiator_cpu_per_read=20e-6,
        max_connections=9_216,  # fd-limit bound: ~9,000:1 fan-in
    ),
    "rdma": TransportProfile(
        name="rdma",
        connect_latency=500e-6,  # QP bring-up is slower than TCP accept
        base_latency=4e-6,
        per_byte=1.0 / 3.2e9,  # QDR IB
        target_cpu_per_read=0.0,  # one-sided read: zero target CPU
        target_cpu_per_byte=0.0,
        initiator_cpu_per_read=15e-6,
        max_connections=9_216,  # QP context limit: ~9,000:1
    ),
    "ugni": TransportProfile(
        name="ugni",
        connect_latency=400e-6,
        base_latency=2.5e-6,
        per_byte=1.0 / 4.7e9,  # Gemini link
        target_cpu_per_read=0.0,
        target_cpu_per_byte=0.0,
        initiator_cpu_per_read=10e-6,
        max_connections=16_384,  # >15,000:1 (paper §IV-A)
    ),
}


def get_transport_profile(name: str) -> TransportProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigError(f"unknown transport {name!r}; know {sorted(PROFILES)}") from None


def _noop_inc(n: int = 1) -> None:
    """Stand-in for a counter ``inc`` on endpoints with no registry."""


#: Features this build's endpoints advertise during connection setup.
#: "trace-ctx": the peer may set :data:`repro.core.wire.TRACE_FLAG` and
#: attach trace-context blobs to frames it sends us.
#: "query": the peer may send ``MsgType.QUERY_REQ`` frames (serving
#: tier, PR 9) — old builds would reject the unknown message type.
BASE_FEATURES = frozenset({"trace-ctx", "query"})


class Endpoint:
    """One side of a connection.  Subclasses implement the four verbs."""

    def __init__(self) -> None:
        self.on_message: Optional[Callable[[bytes], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.bytes_sent = 0
        self.bytes_received = 0
        self.rdma_bytes_read = 0
        self.closed = False
        self._obs = None
        self._inc_frames_rx = _noop_inc
        self._inc_bytes_rx = _noop_inc
        self._inc_reads = _noop_inc
        self._inc_read_bytes = _noop_inc
        #: Version negotiation (PR 7): what we speak, and what the peer
        #: told us it speaks.  ``trace_ok`` is the pre-computed "may I
        #: attach trace context to frames for this peer" bit, so the
        #: exemplar path tests one attribute.  Until the peer's feature
        #: set arrives (simfabric: at establish; sock: HELLO frame;
        #: never, for old builds) we assume nothing.
        self.features: frozenset[str] = BASE_FEATURES
        self.peer_features: frozenset[str] = frozenset()
        self.trace_ok = False
        self.query_ok = False
        #: Serve-side hook invoked once per trace-context entry on an
        #: inbound traced read: ``fn(trace_id, parent_span, hop,
        #: region_id)``.  Installed by the serving daemon.
        self.on_traced_read: Optional[Callable[[int, int, int, int], None]] = None
        #: Daemon clock of the owning daemon (``env.now``), installed by
        #: the owner; stream transports stamp it into their HELLO.
        self.clock: Optional[Callable[[], float]] = None
        #: (peer_now, local_now) pair captured when the peer's HELLO
        #: arrived — the clock anchor behind :meth:`peer_age`.
        self._peer_clock: Optional[tuple[float, float]] = None
        #: region_id -> zero-argument callable returning the region bytes
        self._regions: dict[int, Callable[[], bytes]] = {}

    @property
    def obs(self):
        """Telemetry registry of the owning daemon, attached when the
        endpoint is bound (``Ldmsd``/``Producer``).  Assigning binds the
        frame/read counter ``inc`` methods once, so per-event accounting
        is a single call with no registry lookup on the hot path."""
        return self._obs

    @obs.setter
    def obs(self, registry) -> None:
        self._obs = registry
        if registry is None:
            self._inc_frames_rx = _noop_inc
            self._inc_bytes_rx = _noop_inc
            self._inc_reads = _noop_inc
            self._inc_read_bytes = _noop_inc
        else:
            (self._inc_frames_rx, self._inc_bytes_rx,
             self._inc_reads, self._inc_read_bytes) = registry.endpoint_incs()

    # -- negotiation -------------------------------------------------------
    def _negotiate(self, peer_features: frozenset[str]) -> None:
        """Record the peer's advertised feature set."""
        self.peer_features = peer_features
        self.trace_ok = "trace-ctx" in peer_features
        self.query_ok = "query" in peer_features

    def peer_age(self, ts: float) -> Optional[float]:
        """Age of a peer-clock timestamp ``ts`` in seconds, or ``None``.

        Daemon clocks are monotonic-since-start (not wall time), so a
        transaction timestamp from a remote set is meaningless locally
        until the peer's HELLO anchors its clock against ours.  In-sim
        endpoints share the DES clock, so the anchor is exact there.
        """
        anchor = self._peer_clock
        if anchor is None:
            return None
        peer_then, local_then = anchor
        clock = self.clock
        # Ownerless endpoints (CLI clients) fall back to the host
        # monotonic clock; the HELLO capture used the same fallback, so
        # the anchor arithmetic stays consistent either way.
        local_now = clock() if clock is not None else _monotonic()
        peer_now = peer_then + (local_now - local_then)
        age = peer_now - ts
        return age if age > 0.0 else 0.0

    def _anchor_peer_clock(self, peer_now: float) -> None:
        """Record the peer-clock anchor for :meth:`peer_age`."""
        clock = self.clock
        local_now = clock() if clock is not None else _monotonic()
        self._peer_clock = (peer_now, local_now)

    # -- messaging ---------------------------------------------------------
    def send(self, frame: bytes) -> None:
        raise NotImplementedError

    # -- one-sided reads -----------------------------------------------------
    def register_region(self, region_id: int, reader: Callable[[], bytes]) -> None:
        """Expose memory for one-sided reads by the peer.

        ``reader`` must return the *current* raw bytes of the region —
        an RDMA read sees whatever is in memory at fetch time, including
        torn mid-transaction data (the consistent flag exists for this).
        """
        if region_id in self._regions:
            raise TransportError(f"region {region_id} already registered")
        self._regions[region_id] = reader

    def unregister_region(self, region_id: int) -> None:
        self._regions.pop(region_id, None)

    def read_regions(self, region_ids) -> list:
        """Serve-side materialization of a coalesced read request: one
        entry per region in request order, ``None`` where the region is
        not registered on this endpoint."""
        regions = self._regions
        out = []
        for rid in region_ids:
            reader = regions.get(rid)
            out.append(bytes(reader()) if reader is not None else None)
        return out

    @property
    def registered_regions(self) -> int:
        return len(self._regions)

    def rdma_read(
        self, region_id: int, on_complete: Callable[[Optional[bytes]], None],
        trace: tuple | None = None,
    ) -> None:
        """Fetch the peer's registered region; completion gets the bytes
        or ``None`` if the region is gone / connection failed.

        ``trace`` optionally carries trace-context entries (see
        :func:`repro.core.wire.pack_trace_ctx`) to the serving side;
        callers must only pass it when :attr:`trace_ok` is set.
        """
        raise NotImplementedError

    def rdma_read_multi(
        self,
        region_ids: list[int],
        on_complete: Callable[[list[Optional[bytes]]], None],
        trace: tuple | None = None,
    ) -> None:
        """Fetch several registered regions in one logical operation.

        ``on_complete`` receives one entry per requested region, in
        request order (``None`` per region that is gone / failed).  One
        request and one reply amortise framing and wire hops over the
        whole batch (§IV-D update coalescing).  ``trace`` entries carry
        the index of the region they belong to.
        """
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- plumbing ----------------------------------------------------------
    def _deliver(self, frame: bytes) -> None:
        self.bytes_received += len(frame)
        self._inc_frames_rx()
        self._inc_bytes_rx(len(frame))
        if self.on_message is not None:
            self.on_message(frame)

    def _account_read(self, nbytes: int) -> None:
        """Initiator-side accounting of one completed one-sided read."""
        self.rdma_bytes_read += nbytes
        self._inc_reads()
        self._inc_read_bytes(nbytes)

    def _closed(self) -> None:
        if not self.closed:
            self.closed = True
            if self.on_close is not None:
                self.on_close()


class Listener:
    """A listening endpoint; calls ``on_connect(endpoint)`` per accept."""

    def __init__(self, on_connect: Callable[[Endpoint], None]):
        self.on_connect = on_connect

    def close(self) -> None:
        raise NotImplementedError


class Transport:
    """Factory for listeners and outgoing connections."""

    name: str = "abstract"

    def listen(self, addr, on_connect: Callable[[Endpoint], None]) -> Listener:
        raise NotImplementedError

    def connect(
        self,
        addr,
        on_connected: Callable[[Optional[Endpoint]], None],
    ) -> None:
        """Open a connection; ``on_connected`` receives the endpoint or
        ``None`` on failure.  Asynchronous in all implementations —
        connection setup runs on the connection thread pool (§IV-B)."""
        raise NotImplementedError


#: name -> callable(**kwargs) -> Transport
transport_registry: dict[str, Callable[..., Transport]] = {}


def register_transport(name: str):
    """Class decorator registering a transport factory by name."""

    def deco(cls):
        transport_registry[name] = cls
        cls.name = name
        return cls

    return deco
