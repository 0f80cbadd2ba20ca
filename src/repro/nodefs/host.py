"""Per-node counter models rendering a synthetic /proc and /sys.

A :class:`HostModel` owns the kernel-style counters of one node — CPU
jiffies, memory levels, Lustre/NFS client statistics, Ethernet and
Infiniband traffic counters, LNET totals — and registers text renderers
for them into a :class:`~repro.nodefs.fs.SynthFS`.

Counters *integrate* workload rates over time: experiments and the
cluster/job models set the rate fields (``cpu_user_frac``,
``lustre_open_rate``, ``eth_tx_bps``, ...) and every file read advances
the integration to the current clock.  Levels (memory) are set
directly.  A small multiplicative jitter models real-world counter
noise; it is driven by a per-host RNG so runs are reproducible.

The rendered formats match Linux closely enough that the sampler
plugins parse real /proc files with the same code (verified in tests on
the host running the suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.nodefs.fs import SynthFS
from repro.util.rngtools import spawn_rng

__all__ = ["HostProfile", "HostModel"]

#: numpy, bound by the first :class:`HostModel`: the models vectorize,
#: but a real daemon imports this module (through the ``RealFS``
#: samplers) without ever building one.
np = None


@dataclass(frozen=True)
class HostProfile:
    """Static hardware/software shape of a node."""

    ncpus: int = 16
    mem_total_kb: int = 64 * 1024 * 1024  # Chama: 64 GB/node (paper §VI-B)
    hz: int = 100  # jiffies per second
    lustre_mounts: tuple[str, ...] = ("snx11024",)
    nfs: bool = True
    eth_ifaces: tuple[str, ...] = ("eth0",)
    ib_devices: tuple[str, ...] = ("mlx4_0",)
    lnet: bool = True


# Idle-baseline rates applied when no workload is set.
_IDLE_CPU_USER = 0.002
_IDLE_CPU_SYS = 0.004


class HostModel:
    """Evolving counter state of one node.

    Parameters
    ----------
    name:
        Node name (only used in repr/debug).
    clock:
        Zero-argument callable returning "now" in seconds (the sim
        engine's clock, or ``time.monotonic`` for demos).
    profile:
        Hardware shape.
    seed:
        RNG seed for counter jitter.
    fs:
        SynthFS to register renderers into (a private one is created if
        omitted).
    """

    def __init__(
        self,
        name: str,
        clock: Callable[[], float],
        profile: HostProfile = HostProfile(),
        seed: int = 0,
        fs: SynthFS | None = None,
    ):
        global np
        import numpy as np

        self.name = name
        self.clock = clock
        self.profile = profile
        self.rng = spawn_rng(seed, "host", name)
        self.fs = fs if fs is not None else SynthFS()
        self._last = float(clock())

        p = profile
        # --- workload rate fields (set by job/cluster models) -------------
        self.cpu_user_frac = 0.0  # of total node CPU, [0, 1]
        self.cpu_sys_frac = 0.0
        self.cpu_iowait_frac = 0.0
        self.loadavg_bias = 0.0
        self.lustre_open_rate = 0.05  # per second, idle baseline
        self.lustre_close_rate = 0.05
        self.lustre_read_bps = 0.0
        self.lustre_write_bps = 0.0
        self.lustre_dirty_hit_rate = 0.0
        self.lustre_dirty_miss_rate = 0.0
        self.nfs_ops_rate = 0.1
        self.eth_rx_bps = 2e3
        self.eth_tx_bps = 2e3
        self.ib_rx_bps = 0.0
        self.ib_tx_bps = 0.0
        self.lnet_send_bps = 0.0
        self.lnet_recv_bps = 0.0

        # --- levels --------------------------------------------------------
        self.mem_active_kb = int(0.02 * p.mem_total_kb)
        self.mem_cached_kb = int(0.05 * p.mem_total_kb)
        self.mem_dirty_kb = 64
        self.mem_used_extra_kb = 0  # non-active, non-cached use

        # --- counters -------------------------------------------------------
        ncpu = p.ncpus
        # jiffies per cpu: user, nice, system, idle, iowait, irq, softirq, steal
        self.cpu_jiffies = np.zeros((ncpu, 8), dtype=np.float64)
        self.ctxt = 0.0
        self.processes = 0.0
        self.lustre = {
            m: dict(
                open=0.0,
                close=0.0,
                read_bytes=0.0,
                write_bytes=0.0,
                dirty_pages_hits=0.0,
                dirty_pages_misses=0.0,
            )
            for m in p.lustre_mounts
        }
        self.nfs_ops = 0.0
        self.eth = {i: dict(rx_bytes=0.0, tx_bytes=0.0, rx_packets=0.0, tx_packets=0.0,
                            rx_errors=0.0, tx_errors=0.0, rx_dropped=0.0, tx_dropped=0.0)
                    for i in p.eth_ifaces}
        self.ib = {d: dict(port_rcv_data=0.0, port_xmit_data=0.0,
                           port_rcv_packets=0.0, port_xmit_packets=0.0)
                   for d in p.ib_devices}
        self.lnet_counters = dict(send_count=0.0, recv_count=0.0,
                                  send_length=0.0, recv_length=0.0, drop_count=0.0)

        self._register()

    # ------------------------------------------------------------------
    # workload helpers
    # ------------------------------------------------------------------
    def set_workload(self, **rates) -> None:
        """Set any rate/level fields by keyword, advancing first so the
        change takes effect from "now"."""
        self.advance()
        for key, value in rates.items():
            if not hasattr(self, key):
                raise AttributeError(f"HostModel has no workload field {key!r}")
            setattr(self, key, value)

    def idle(self) -> None:
        """Reset workload fields to the idle baseline."""
        self.set_workload(
            cpu_user_frac=0.0, cpu_sys_frac=0.0, cpu_iowait_frac=0.0,
            lustre_open_rate=0.05, lustre_close_rate=0.05,
            lustre_read_bps=0.0, lustre_write_bps=0.0,
            lustre_dirty_hit_rate=0.0, lustre_dirty_miss_rate=0.0,
            ib_rx_bps=0.0, ib_tx_bps=0.0,
            lnet_send_bps=0.0, lnet_recv_bps=0.0,
        )
        self.mem_active_kb = int(0.02 * self.profile.mem_total_kb)

    # ------------------------------------------------------------------
    # integration
    # ------------------------------------------------------------------
    def _jitter(self) -> float:
        return float(np.clip(1.0 + 0.05 * self.rng.standard_normal(), 0.0, None))

    def advance(self) -> float:
        """Integrate counters up to the clock; returns now."""
        now = float(self.clock())
        dt = now - self._last
        if dt <= 0:
            return now
        self._last = now
        p = self.profile
        hz = p.hz

        # CPU jiffies: distribute the node-level fractions over cpus with
        # mild imbalance, fold in the idle baseline.
        user = min(self.cpu_user_frac + _IDLE_CPU_USER, 1.0)
        sys_ = min(self.cpu_sys_frac + _IDLE_CPU_SYS, 1.0 - user)
        iow = min(self.cpu_iowait_frac, max(1.0 - user - sys_, 0.0))
        idle = max(1.0 - user - sys_ - iow, 0.0)
        share = np.full(p.ncpus, 1.0 / p.ncpus)
        share *= self.rng.uniform(0.9, 1.1, p.ncpus)
        share /= share.sum()
        node_jiffies = dt * hz * p.ncpus
        self.cpu_jiffies[:, 0] += node_jiffies * user * share
        self.cpu_jiffies[:, 2] += node_jiffies * sys_ * share
        self.cpu_jiffies[:, 3] += node_jiffies * idle * share
        self.cpu_jiffies[:, 4] += node_jiffies * iow * share
        self.ctxt += dt * (500 + 5e4 * (user + sys_)) * self._jitter()
        self.processes += dt * 2.0 * self._jitter()

        # Lustre
        for ctrs in self.lustre.values():
            ctrs["open"] += dt * self.lustre_open_rate * self._jitter()
            ctrs["close"] += dt * self.lustre_close_rate * self._jitter()
            ctrs["read_bytes"] += dt * self.lustre_read_bps * self._jitter()
            ctrs["write_bytes"] += dt * self.lustre_write_bps * self._jitter()
            ctrs["dirty_pages_hits"] += dt * self.lustre_dirty_hit_rate * self._jitter()
            ctrs["dirty_pages_misses"] += dt * self.lustre_dirty_miss_rate * self._jitter()

        self.nfs_ops += dt * self.nfs_ops_rate * self._jitter()

        for ctrs in self.eth.values():
            rx = dt * self.eth_rx_bps * self._jitter()
            tx = dt * self.eth_tx_bps * self._jitter()
            ctrs["rx_bytes"] += rx
            ctrs["tx_bytes"] += tx
            ctrs["rx_packets"] += rx / 1000.0
            ctrs["tx_packets"] += tx / 1000.0

        for ctrs in self.ib.values():
            rx = dt * self.ib_rx_bps * self._jitter()
            tx = dt * self.ib_tx_bps * self._jitter()
            # IB port data counters count 4-byte words, like real hardware.
            ctrs["port_rcv_data"] += rx / 4.0
            ctrs["port_xmit_data"] += tx / 4.0
            ctrs["port_rcv_packets"] += rx / 2048.0
            ctrs["port_xmit_packets"] += tx / 2048.0

        self.lnet_counters["send_length"] += dt * self.lnet_send_bps * self._jitter()
        self.lnet_counters["recv_length"] += dt * self.lnet_recv_bps * self._jitter()
        self.lnet_counters["send_count"] += dt * self.lnet_send_bps / 4096.0
        self.lnet_counters["recv_count"] += dt * self.lnet_recv_bps / 4096.0
        return now

    # ------------------------------------------------------------------
    # renderers
    # ------------------------------------------------------------------
    def _register(self) -> None:
        fs, p = self.fs, self.profile
        fs.register("/proc/stat", self._render_stat)
        fs.register("/proc/meminfo", self._render_meminfo)
        fs.register("/proc/loadavg", self._render_loadavg)
        for mount in p.lustre_mounts:
            fs.register(
                f"/proc/fs/lustre/llite/{mount}-ffff0000/stats",
                lambda m=mount: self._render_lustre(m),
            )
        if p.nfs:
            fs.register("/proc/net/rpc/nfs", self._render_nfs)
        for iface in p.eth_ifaces:
            for ctr in ("rx_bytes", "tx_bytes", "rx_packets", "tx_packets",
                        "rx_errors", "tx_errors", "rx_dropped", "tx_dropped"):
                fs.register(
                    f"/sys/class/net/{iface}/statistics/{ctr}",
                    lambda i=iface, c=ctr: self._render_eth(i, c),
                )
        for dev in p.ib_devices:
            for ctr in ("port_rcv_data", "port_xmit_data",
                        "port_rcv_packets", "port_xmit_packets"):
                fs.register(
                    f"/sys/class/infiniband/{dev}/ports/1/counters/{ctr}",
                    lambda d=dev, c=ctr: self._render_ib(d, c),
                )
        if p.lnet:
            fs.register("/proc/sys/lnet/stats", self._render_lnet)

    def _render_stat(self) -> str:
        self.advance()
        total = self.cpu_jiffies.sum(axis=0)
        lines = ["cpu  " + " ".join(str(int(v)) for v in total)]
        for i in range(self.profile.ncpus):
            lines.append(f"cpu{i} " + " ".join(str(int(v)) for v in self.cpu_jiffies[i]))
        lines.append(f"ctxt {int(self.ctxt)}")
        lines.append("btime 1400000000")
        lines.append(f"processes {int(self.processes)}")
        lines.append("procs_running 1")
        lines.append("procs_blocked 0")
        return "\n".join(lines) + "\n"

    def _render_meminfo(self) -> str:
        self.advance()
        p = self.profile
        active = int(self.mem_active_kb)
        cached = int(self.mem_cached_kb)
        used = active + cached + int(self.mem_used_extra_kb)
        free = max(p.mem_total_kb - used, 0)
        rows = [
            ("MemTotal", p.mem_total_kb),
            ("MemFree", free),
            ("Buffers", 2048),
            ("Cached", cached),
            ("SwapCached", 0),
            ("Active", active),
            ("Inactive", cached // 2),
            ("Dirty", int(self.mem_dirty_kb)),
            ("Writeback", 0),
            ("AnonPages", active),
            ("Mapped", 4096),
            ("Shmem", 1024),
            ("Slab", 65536),
            ("SwapTotal", 0),
            ("SwapFree", 0),
            ("CommitLimit", p.mem_total_kb // 2),
            ("Committed_AS", used),
            ("VmallocTotal", 34359738367),
            ("VmallocUsed", 0),
            ("HugePages_Total", 0),
        ]
        return "".join(f"{k}:{str(v).rjust(15)} kB\n" if k != "HugePages_Total"
                       else f"{k}:{str(v).rjust(15)}\n" for k, v in rows)

    def _render_loadavg(self) -> str:
        self.advance()
        load = self.profile.ncpus * (self.cpu_user_frac + self.cpu_sys_frac) + self.loadavg_bias
        l1 = max(load * self._jitter(), 0.0)
        return f"{l1:.2f} {load:.2f} {load:.2f} 1/{int(self.processes) + 100} {int(self.processes) + 1000}\n"

    def _render_lustre(self, mount: str) -> str:
        self.advance()
        c = self.lustre[mount]
        now = self._last
        lines = [f"snapshot_time {now:.6f} secs.usecs"]
        for key in ("dirty_pages_hits", "dirty_pages_misses"):
            lines.append(f"{key} {int(c[key])} samples [regs]")
        for key in ("read_bytes", "write_bytes"):
            n_ops = int(c[key] / 1048576.0) + 1
            lines.append(f"{key} {int(c[key])} samples [bytes] 4096 1048576 {int(c[key])}")
            del n_ops
        for key in ("open", "close"):
            lines.append(f"{key} {int(c[key])} samples [regs]")
        return "\n".join(lines) + "\n"

    def _render_nfs(self) -> str:
        self.advance()
        ops = int(self.nfs_ops)
        return (
            f"net {ops} {ops} 0 0\n"
            f"rpc {ops} 0 0\n"
            f"proc3 22 0 {ops} 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
        )

    def _render_eth(self, iface: str, ctr: str) -> str:
        self.advance()
        return f"{int(self.eth[iface][ctr])}\n"

    def _render_ib(self, dev: str, ctr: str) -> str:
        self.advance()
        return f"{int(self.ib[dev][ctr])}\n"

    def _render_lnet(self) -> str:
        self.advance()
        c = self.lnet_counters
        # msgs_alloc msgs_max errors send_count recv_count route_count
        # drop_count send_length recv_length route_length drop_length
        return (
            f"0 2048 0 {int(c['send_count'])} {int(c['recv_count'])} 0 "
            f"{int(c['drop_count'])} {int(c['send_length'])} {int(c['recv_length'])} 0 0\n"
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<HostModel {self.name!r} ncpus={self.profile.ncpus}>"
