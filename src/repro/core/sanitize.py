"""Runtime sanitizer for the metric-set memory discipline (§IV-B).

The paper's consumers detect torn and stale data with three header
fields — DGN, consistent flag, MGN — which only works if every producer
write honors the discipline: values change only inside a transaction,
every value write bumps the DGN, and the metadata chunk is immutable
after publication.  This module checks that at run time, in the spirit
of ASan shadow memory; tier-1 runs under it in CI, which is why no
static rule bans raw buffer writes (DESIGN.md "Static enforcement").

With ``REPRO_SANITIZE`` set, every :class:`~repro.core.metric_set.
MetricSet` keeps a shadow record — CRC of the data chunk's payload
(bytes beyond the 24-byte header), CRC of the metadata chunk that
``meta_bytes()`` stamps, and the last sanctioned DGN.  The sanctioned
mutators re-commit the shadow; checkpoints on the read/publish paths
recompute and compare:

* **torn write** — payload bytes changed while the DGN did not: someone
  wrote values behind the API's back;
* **DGN regression** — the DGN moved backwards (stale data would be
  accepted as fresh downstream);
* **metadata mutation** — the metadata chunk ``meta_bytes()`` stamps
  changed after construction, invalidating every consumer's cached
  layout, or the set's metadata reservation was committed (a stray
  ``arena.view``: the chunk is stamped on LOOKUP, never held);
* **inconsistent read** — a mirror's values were decoded while its
  consistent flag was clear (the §IV-B check the consumer must make);
* **inconsistent apply** — a fetched chunk whose consistent flag is
  clear was installed into a mirror instead of being discarded.

Modes (``REPRO_SANITIZE=...``): ``1``/``raise`` raises
:class:`SanitizerError` at the checkpoint (tests, CI); ``count``/``obs``
increments ``sanitizer.<kind>`` plus the aggregate
``sanitizer.violations`` on every registered telemetry registry
(``ldmsd_self`` exports the aggregate), letting production runs surface
corruption without dying.  Unset/``0``/``off`` disables everything:
sets carry no shadow and the hot path pays one ``is None`` branch.
"""

from __future__ import annotations

import os
import weakref
import zlib
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.metric_set import MetricSet
    from repro.obs.registry import Telemetry

__all__ = [
    "SanitizerError",
    "VIOLATION_KINDS",
    "configure",
    "enabled",
    "mode",
    "register_registry",
]

VIOLATION_KINDS = (
    "torn_write",
    "dgn_regression",
    "meta_mutation",
    "inconsistent_read",
    "inconsistent_apply",
)

#: Data-chunk header size; the payload CRC covers everything after it,
#: so sanctioned header updates (DGN/flag/timestamp) never perturb it.
_HDR = 24


class SanitizerError(Exception):
    """A metric-set memory-discipline violation (REPRO_SANITIZE=raise)."""


def _parse_mode(value: str) -> str:
    v = value.strip().lower()
    if v in ("", "0", "off", "false", "no"):
        return "off"
    if v in ("1", "raise", "true", "yes", "on"):
        return "raise"
    if v in ("count", "obs"):
        return "count"
    raise ValueError(
        f"REPRO_SANITIZE={value!r}: expected 0/1/raise/count"
    )


_mode: str = _parse_mode(os.environ.get("REPRO_SANITIZE", ""))

#: Telemetry registries that receive violation counts in count mode.
#: Weak references: a daemon's registry dies with the daemon.
_registries: list = []


def mode() -> str:
    """Current mode: ``off``, ``raise``, or ``count``."""
    return _mode


def enabled() -> bool:
    return _mode != "off"


def configure(new_mode: str) -> str:
    """Set the sanitizer mode (tests); returns the previous mode.

    Only sets constructed while the sanitizer is enabled carry a
    shadow, so flip the mode before building the sets under test.
    """
    global _mode
    prev = _mode
    _mode = _parse_mode(new_mode)
    return prev


def register_registry(telemetry: "Telemetry") -> None:
    """Count future violations into ``telemetry`` (count mode).

    Idempotent per registry; registries are held weakly.
    """
    _registries[:] = [r for r in _registries if r() is not None]
    if any(r() is telemetry for r in _registries):
        return
    _registries.append(weakref.ref(telemetry))


def _violation(kind: str, message: str) -> None:
    if _mode == "raise":
        raise SanitizerError(f"[{kind}] {message}")
    if _mode == "count":
        for ref in _registries:
            reg = ref()
            if reg is not None:
                reg.counter(f"sanitizer.{kind}").inc()
                reg.counter("sanitizer.violations").inc()


class Shadow:
    """Per-set shadow state; exists only while the sanitizer is on."""

    __slots__ = ("payload_crc", "meta_crc", "dgn", "is_mirror")

    def __init__(self) -> None:
        self.payload_crc = 0
        self.meta_crc = 0
        self.dgn = 0
        self.is_mirror = False


def attach(mset: "MetricSet") -> Optional[Shadow]:
    """Give a freshly constructed set a shadow (None when disabled)."""
    if _mode == "off":
        return None
    shadow = Shadow()
    shadow.payload_crc = zlib.crc32(mset._data[_HDR:])
    shadow.meta_crc = zlib.crc32(mset.meta_bytes())
    shadow.dgn = mset._dgn
    return shadow


def commit(mset: "MetricSet") -> None:
    """Re-baseline after a sanctioned data-chunk mutation."""
    shadow = mset._shadow
    shadow.payload_crc = zlib.crc32(mset._data[_HDR:])
    shadow.dgn = mset._dgn


def check(mset: "MetricSet", where: str) -> None:
    """Checkpoint: verify the chunks still match the shadow."""
    shadow = mset._shadow
    if mset.arena.committed_at(mset._meta_off):
        _violation(
            "meta_mutation",
            f"set {mset.name!r}: metadata reservation committed (detected "
            f"at {where}); the chunk is stamped on LOOKUP, never held",
        )
    if zlib.crc32(mset.meta_bytes()) != shadow.meta_crc:
        _violation(
            "meta_mutation",
            f"set {mset.name!r}: metadata chunk changed after publication "
            f"(detected at {where}); consumers' cached layouts are invalid",
        )
    dgn = mset.dgn
    if dgn < shadow.dgn:
        _violation(
            "dgn_regression",
            f"set {mset.name!r}: DGN moved backwards "
            f"({shadow.dgn} -> {dgn}, detected at {where})",
        )
    if zlib.crc32(mset._data[_HDR:]) != shadow.payload_crc and dgn == shadow.dgn:
        _violation(
            "torn_write",
            f"set {mset.name!r}: data payload changed without a DGN bump "
            f"(detected at {where}) — a write bypassed the MetricSet API",
        )


def check_read(mset: "MetricSet") -> None:
    """Mirror value decode: the §IV-B consistent-flag check."""
    shadow = mset._shadow
    if shadow.is_mirror and not mset.is_consistent:
        _violation(
            "inconsistent_read",
            f"set {mset.name!r}: values decoded from a mirror whose "
            f"consistent flag is clear — the sample must be discarded",
        )


def check_apply(mset: "MetricSet", dgn: int, consistent: bool) -> None:
    """Mirror install: fetched chunks must be consistent and fresh."""
    if not consistent:
        _violation(
            "inconsistent_apply",
            f"set {mset.name!r}: installing a fetched data chunk whose "
            f"consistent flag is clear (a torn RDMA-style read)",
        )
    shadow = mset._shadow
    if dgn < shadow.dgn:
        _violation(
            "dgn_regression",
            f"set {mset.name!r}: applying data with DGN {dgn} over newer "
            f"DGN {shadow.dgn}",
        )
