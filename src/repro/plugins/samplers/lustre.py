"""Lustre client sampler: /proc/fs/lustre/llite/*/stats.

Collects the §II "Shared File System information (e.g. Lustre): Opens,
Closes, Reads, Writes".  Metric names are suffixed with the stats
source exactly as in the paper's example metric set (§IV-B)::

    open#stats.snx11024
    close#stats.snx11024
    read_bytes#stats.snx11024
    ...
"""

from __future__ import annotations

from repro.core.metric import MetricType
from repro.core.metric_set import set_template
from repro.core.sampler import SamplerPlugin, register_sampler
from repro.plugins.samplers.parsers import parse_lustre_stats
from repro.util.errors import ConfigError

__all__ = ["LustreSampler", "LUSTRE_EVENTS"]

LUSTRE_EVENTS = (
    "dirty_pages_hits",
    "dirty_pages_misses",
    "read_bytes",
    "write_bytes",
    "open",
    "close",
)

LLITE_ROOT = "/proc/fs/lustre/llite"


@register_sampler("lustre")
class LustreSampler(SamplerPlugin):
    """One metric set covering every configured Lustre mount.

    Config options
    --------------
    mounts:
        Comma string of filesystem names (``snx11024``) or ``"auto"``
        (default) to discover mounts by listing the llite directory.
    events:
        Event counters to collect per mount; default the paper's six.
    root:
        llite directory (default ``/proc/fs/lustre/llite``).
    """

    def config(self, instance: str, component_id: int = 0, mounts="auto",
               events=None, root: str = LLITE_ROOT, **kwargs) -> None:
        super().config(instance, component_id, **kwargs)
        self.root = root
        if isinstance(events, str):
            events = tuple(e for e in events.split(",") if e)
        self.events = tuple(events) if events else LUSTRE_EVENTS
        if isinstance(mounts, str) and mounts != "auto":
            mounts = tuple(m for m in mounts.split(",") if m)
        if mounts == "auto":
            try:
                entries = self.daemon.fs.listdir(root)
            except FileNotFoundError:
                raise ConfigError(f"lustre: no llite directory at {root}") from None
            # Directory entries look like <fsname>-<instance-id>.
            self._dirs = {e.rsplit("-", 1)[0]: e for e in entries}
        else:
            try:
                entries = self.daemon.fs.listdir(root)
            except FileNotFoundError:
                entries = []
            by_fs = {e.rsplit("-", 1)[0]: e for e in entries}
            missing = [m for m in mounts if m not in by_fs]
            if missing:
                raise ConfigError(f"lustre: mounts not present: {missing}")
            self._dirs = {m: by_fs[m] for m in mounts}
        if not self._dirs:
            raise ConfigError("lustre: no mounts found")
        self._mounts = tuple(sorted(self._dirs))
        names = [f"{event}#stats.{fsname}"
                 for fsname in self._mounts for event in self.events]
        self.set = self.create_set(instance, "lustre",
                                   set_template(names, MetricType.U64))
        # Stats-file paths in mount (= metric-index) order, resolved once.
        self._stat_paths = tuple(
            f"{self.root}/{self._dirs[m]}/stats" for m in self._mounts
        )

    def do_sample(self, now: float) -> None:
        read = self.daemon.fs.read
        vals: list[int] = []
        for path in self._stat_paths:
            stats = parse_lustre_stats(read(path))
            get = stats.get
            vals.extend(get(event, 0) for event in self.events)
        self.set.set_values(vals)
