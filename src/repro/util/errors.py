"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch package failures with a single ``except`` clause while
still being able to discriminate by subsystem.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A configuration command or parameter was invalid.

    Raised by the control channel (bad command syntax, unknown plugin,
    duplicate instance names) and by plugin ``config()`` implementations.
    """


class TransportError(ReproError):
    """A transport operation failed (connect, send, fetch, listen)."""


class WireError(ReproError):
    """A peer's frame or payload is malformed (short, overrunning, not
    UTF-8).  Raised by every :mod:`repro.core.wire` decoder up front;
    message handlers drop and count the frame."""


class LookupError_(ReproError):
    """A metric-set lookup failed (set not found on the peer).

    Named with a trailing underscore to avoid shadowing the builtin.
    The aggregator treats this as retryable: the update thread keeps
    performing the lookup on the next update loop (paper Fig. 2, flow
    {a}/{b}).
    """


class StoreError(ReproError):
    """A storage plugin failed to open, write, or flush."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an inconsistency."""


class OutOfMemory(ReproError):
    """The arena memory manager could not satisfy an allocation.

    Mirrors ldmsd behaviour: metric-set creation fails when the memory
    configured at daemon start (``-m`` option) is exhausted.
    """
