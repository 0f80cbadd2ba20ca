"""Machine assembly: nodes + network + DES plumbing + LDMS deployment.

A :class:`Machine` owns the simulation engine, the transport fabric,
the per-node counter models, and the network model.  Its
:meth:`~Machine.deploy_ldms` method stands up the monitoring hierarchy
the paper describes: one sampler ldmsd per compute node (started "at
boot"), first-level aggregators on service nodes pulling over RDMA,
and optionally a second-level aggregator with a store (Chama's
configuration, Fig. 4) or aggregators writing stores directly (Blue
Waters' configuration, Fig. 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.node import Node
from repro.core.env import SimEnv
from repro.core.ldmsd import Ldmsd
from repro.faults import FaultInjector, Watchdog
from repro.network.fattree import FatTree
from repro.network.torus import GeminiTorus
from repro.network.traffic import FlowEngine
from repro.nodefs.fs import SynthFS
from repro.nodefs.gpcdr import GpcdrModel
from repro.nodefs.host import HostModel, HostProfile
from repro.sim.engine import Engine
from repro.sim.resources import CpuCore
from repro.transport.simfabric import SimFabric, SimTransport
from repro.util.errors import ConfigError

__all__ = ["Machine", "blue_waters", "chama", "LdmsDeployment"]


@dataclass
class LdmsDeployment:
    """Handles to a deployed monitoring hierarchy."""

    samplers: list[Ldmsd] = field(default_factory=list)
    level1: list[Ldmsd] = field(default_factory=list)
    level2: Optional[Ldmsd] = None
    stores: list[object] = field(default_factory=list)
    #: Failover wiring of the standby config: primary aggregator name ->
    #: (name of the aggregator holding its standbys, standby producer
    #: names on that owner).  Empty unless deployed with standby=True.
    standby_plan: dict[str, tuple[str, tuple[str, ...]]] = field(default_factory=dict)

    @property
    def store(self):
        """The (single) store instance, when exactly one was configured."""
        if len(self.stores) != 1:
            raise ConfigError(f"deployment has {len(self.stores)} stores")
        return self.stores[0]

    def all_daemons(self) -> list[Ldmsd]:
        out = list(self.samplers) + list(self.level1)
        if self.level2 is not None:
            out.append(self.level2)
        return out

    def by_name(self, name: str) -> Ldmsd:
        for d in self.all_daemons():
            if d.name == name:
                return d
        raise ConfigError(f"no daemon named {name!r} in deployment")

    def shutdown(self) -> None:
        for d in self.all_daemons():
            d.shutdown()


class Machine:
    """A simulated cluster.

    Parameters
    ----------
    name:
        Machine name.
    n_nodes:
        Compute node count.
    engine:
        DES engine (a private one is created if omitted).
    network:
        ``GeminiTorus`` or ``FatTree`` (or None for no network model).
    host_profile:
        Per-node hardware shape.
    seed:
        Base RNG seed for per-host jitter streams.
    """

    def __init__(
        self,
        name: str,
        n_nodes: int,
        engine: Optional[Engine] = None,
        network: GeminiTorus | FatTree | None = None,
        host_profile: HostProfile = HostProfile(),
        seed: int = 0,
    ):
        self.name = name
        self.engine = engine if engine is not None else Engine()
        self.env = SimEnv(self.engine)
        self.network = network
        clock_fn = lambda: self.engine.now  # noqa: E731
        self.flow_engine: Optional[FlowEngine] = (
            FlowEngine(network, clock=clock_fn)
            if isinstance(network, GeminiTorus)
            else None
        )
        self.fabric = SimFabric(
            self.engine,
            latency_fn=self._latency,
            traffic_cb=self._traffic,
        )
        self.seed = seed
        self.monitor_bytes = 0  # total monitoring traffic over the fabric
        self.monitor_bytes_by_node: dict[object, int] = {}

        if isinstance(network, GeminiTorus) and n_nodes > network.n_nodes:
            raise ConfigError(
                f"{n_nodes} nodes exceed torus capacity {network.n_nodes}"
            )
        if isinstance(network, FatTree) and n_nodes > network.n_nodes:
            raise ConfigError(f"{n_nodes} nodes exceed fat tree capacity")

        clock = lambda: self.engine.now  # noqa: E731
        self.nodes: list[Node] = []
        for i in range(n_nodes):
            fs = SynthFS()
            host = HostModel(f"{name}-n{i}", clock, host_profile, seed=seed + i, fs=fs)
            cores = [CpuCore(c) for c in range(host_profile.ncpus)]
            gpcdr = None
            if isinstance(network, GeminiTorus):
                gpcdr = GpcdrModel(clock, media=network.media_map(), fs=fs)
                if self.flow_engine is not None:
                    gem = network.node_gemini(i)
                    # Attach one live gpcdr per Gemini (nodes sharing a
                    # Gemini see the same values, §VI-A1) — the second
                    # node's fs gets the same model's render.
                    if network.gemini_nodes(gem)[0] == i:
                        self.flow_engine.attach_gpcdr(gem, gpcdr)
                        gpcdr.sync_hook = self.flow_engine.accumulate_to
                    else:
                        first = self.nodes[network.gemini_nodes(gem)[0]]
                        gpcdr = first.gpcdr
                        fs.unregister("/sys/devices/virtual/gpcdr/gpcdr/metricsets/links/metrics")
                        fs.register(
                            "/sys/devices/virtual/gpcdr/gpcdr/metricsets/links/metrics",
                            gpcdr.render,
                        )
            node = Node(index=i, name=f"n{i}", host=host, fs=fs,
                        cores=cores, gpcdr=gpcdr)
            # The resource-manager prolog drops the current job id where
            # the jobid sampler can read it (0 = no job).
            fs.register("/var/run/ldms_jobid",
                        lambda n=node: f"{n.job_id or 0}\n")
            self.nodes.append(node)

    # ------------------------------------------------------------------
    # fabric hooks
    # ------------------------------------------------------------------
    def _node_index(self, node_id) -> Optional[int]:
        if isinstance(node_id, int):
            return node_id
        if isinstance(node_id, str) and node_id.startswith("svc"):
            # Service nodes sit at evenly spaced network positions.
            try:
                k = int(node_id[3:])
            except ValueError:
                return None  # diskfull/storage hosts sit off the HSN
            return (k * 7919) % max(len(self.nodes), 1)
        return None

    def _latency(self, src, dst, nbytes: int) -> float:
        s, d = self._node_index(src), self._node_index(dst)
        if s is None or d is None:
            return 0.0
        if self.flow_engine is not None:
            return self.flow_engine.latency(s, d, nbytes)
        if isinstance(self.network, FatTree):
            return self.network.latency(s % self.network.n_nodes,
                                        d % self.network.n_nodes, nbytes)
        return 1e-6

    def _traffic(self, src, dst, nbytes: int, t: float) -> None:
        self.monitor_bytes += nbytes
        self.monitor_bytes_by_node[src] = self.monitor_bytes_by_node.get(src, 0) + nbytes

    # ------------------------------------------------------------------
    # LDMS deployment
    # ------------------------------------------------------------------
    def deploy_ldms(
        self,
        plugins: list[tuple[str, dict]] | None = None,
        interval: float = 20.0,
        xprt: str = "rdma",
        fanin: int = 256,
        second_level: bool = True,
        store: str = "memory",
        store_kwargs: dict | None = None,
        collect_interval: Optional[float] = None,
        sync_offset: Optional[float] = None,
        standby: bool = False,
        mem: str = "2MB",
    ) -> LdmsDeployment:
        """Stand up monitoring across the machine.

        Parameters
        ----------
        plugins:
            ``[(plugin_name, extra_config), ...]`` per node; defaults to
            the machine's flavour (gpcdr-centric on a torus, the 7-set
            Chama list on a fat tree).
        interval:
            Sampling interval (seconds).
        fanin:
            Samplers per first-level aggregator.
        second_level:
            Chama-style second level aggregating the first level over
            ``sock`` and owning the store (Fig. 4); otherwise the
            first-level aggregators store directly (Fig. 3).
        store:
            Store plugin name (``"memory"``, ``"store_csv"``, ...).
        collect_interval:
            Aggregator pull interval; defaults to the sampling interval.
        sync_offset:
            Non-None makes sampling synchronous at this wall offset.
        standby:
            Give each sampler a standby connection from the *next*
            aggregator (Blue Waters' fast-failover config, Fig. 3).
        """
        if plugins is None:
            plugins = self.default_plugins()
        collect_interval = collect_interval or interval
        store_kwargs = store_kwargs or {}

        dep = LdmsDeployment()
        # --- samplers ------------------------------------------------------
        for node in self.nodes:
            x = SimTransport(self.fabric, xprt, node_id=node.index,
                             core=node.daemon_core)
            d = Ldmsd(f"{self.name}-n{node.index}", env=self.env,
                      transports={xprt: x}, mem=mem, fs=node.fs,
                      core=node.daemon_core, workers=2, conn_threads=1,
                      flush_threads=1)
            for pname, extra in plugins:
                inst = f"n{node.index}/{pname}"
                d.load_sampler(pname, instance=inst,
                               component_id=node.index + 1, **extra)
                d.start_sampler(inst, interval=interval, offset=sync_offset)
            d.listen(xprt, f"n{node.index}:411")
            node.daemon = d
            dep.samplers.append(d)

        # --- first-level aggregators ---------------------------------------
        n_agg = max(1, math.ceil(len(self.nodes) / fanin))
        agg_mem_bytes = max(64 * 1024 * 1024, 1024 * 1024)
        for a in range(n_agg):
            xa = SimTransport(self.fabric, xprt, node_id=f"svc{a}")
            xs = SimTransport(self.fabric, "sock", node_id=f"svc{a}")
            agg = Ldmsd(f"{self.name}-agg{a}", env=self.env,
                        transports={xprt: xa, "sock": xs}, mem=agg_mem_bytes,
                        workers=4, conn_threads=2, flush_threads=2)
            lo, hi = a * fanin, min((a + 1) * fanin, len(self.nodes))
            for i in range(lo, hi):
                agg.add_producer(f"n{i}", xprt, f"n{i}:411",
                                 interval=collect_interval)
            if standby and n_agg > 1:
                nxt = (a + 1) % n_agg
                lo2, hi2 = nxt * fanin, min((nxt + 1) * fanin, len(self.nodes))
                names = []
                for i in range(lo2, hi2):
                    agg.add_producer(f"standby-n{i}", xprt, f"n{i}:411",
                                     interval=collect_interval, standby=True)
                    names.append(f"standby-n{i}")
                # agg `a` covers for agg `nxt`: record the wiring so a
                # watchdog can be attached without re-deriving the
                # group arithmetic.
                dep.standby_plan[f"{self.name}-agg{nxt}"] = (
                    f"{self.name}-agg{a}", tuple(names))
            agg.listen("sock", f"svc{a}:411")
            dep.level1.append(agg)

        # --- storage level ----------------------------------------------------
        if second_level:
            xs = SimTransport(self.fabric, "sock", node_id="svc-l2")
            l2 = Ldmsd(f"{self.name}-l2", env=self.env,
                       transports={"sock": xs}, mem=4 * agg_mem_bytes,
                       workers=4, conn_threads=2, flush_threads=2)
            for a in range(n_agg):
                l2.add_producer(f"agg{a}", "sock", f"svc{a}:411",
                                interval=collect_interval)
            dep.level2 = l2
            dep.stores.append(l2.add_store(store, **store_kwargs))
        else:
            for agg in dep.level1:
                dep.stores.append(agg.add_store(store, **store_kwargs))
        return dep

    # ------------------------------------------------------------------
    # resilience plumbing
    # ------------------------------------------------------------------
    def attach_watchdog(
        self,
        dep: LdmsDeployment,
        check_interval: Optional[float] = None,
        k: int = 3,
    ) -> Watchdog:
        """Stand up the §IV-B external watchdog over a standby
        deployment: every primary aggregator in ``dep.standby_plan`` is
        watched, and its standby producers (held by the neighbouring
        aggregator) are promoted when it stalls for ``k`` checks.
        ``check_interval`` defaults to the primaries' collection
        interval; the watchdog is started before being returned.
        """
        if not dep.standby_plan:
            raise ConfigError(
                "deployment has no standby plan (deploy_ldms(standby=True))"
            )
        if check_interval is None:
            primary = dep.by_name(next(iter(dep.standby_plan)))
            check_interval = max(
                p.cfg.interval for p in primary.producers.values()
            )
        wd = Watchdog(self.env, check_interval=check_interval, k=k)
        for primary_name, (owner_name, names) in dep.standby_plan.items():
            wd.watch_aggregator(dep.by_name(primary_name),
                                dep.by_name(owner_name), names)
        wd.start()
        return wd

    def fault_injector(self, dep: LdmsDeployment, restart=None) -> FaultInjector:
        """An injector wired to this machine's fabric and ``dep``'s
        daemons, ready to ``arm()`` a :class:`~repro.faults.FaultPlan`."""
        daemons = {d.name: d for d in dep.all_daemons()}
        return FaultInjector(self.env, daemons=daemons, fabric=self.fabric,
                             restart=restart)

    def default_plugins(self) -> list[tuple[str, dict]]:
        if isinstance(self.network, GeminiTorus):
            # Blue Waters: one combined custom set (§IV-F).
            return [("bw_custom", {})]
        # Chama: 7 independent sets (§IV-G).
        return [
            ("meminfo", {}),
            ("procstat", {"percpu": True}),
            ("loadavg", {}),
            ("lustre", {}),
            ("nfs", {}),
            ("ethernet", {}),
            ("infiniband", {}),
        ]

    def run(self, until: float) -> None:
        self.engine.run(until=until)


# ---------------------------------------------------------------------------
# builders for the paper's machines
# ---------------------------------------------------------------------------


def blue_waters(
    n_nodes: int = 128,
    engine: Optional[Engine] = None,
    seed: int = 0,
    full_torus_dims: tuple[int, int, int] | None = None,
) -> Machine:
    """NCSA Blue Waters (§III-A): Cray XE/XK, Gemini 3-D torus.

    The real machine is 27,648 nodes on a 24x24x24 torus; DES runs use a
    scaled node count on a proportionally scaled torus unless
    ``full_torus_dims`` pins the geometry.  Node profile: 32 integer
    cores (XE6), 64 GB.
    """
    if full_torus_dims is not None:
        dims = full_torus_dims
    else:
        # Smallest cube (even-ish) torus holding n_nodes at 2 nodes/Gemini.
        side = max(2, math.ceil((n_nodes / 2) ** (1 / 3)))
        dims = (side, side, side)
        while dims[0] * dims[1] * dims[2] * 2 < n_nodes:
            dims = (dims[0] + 1, dims[1], dims[2])
    torus = GeminiTorus(dims=dims)
    profile = HostProfile(ncpus=32, mem_total_kb=64 * 1024 * 1024,
                          lustre_mounts=("snx11001", "snx11002", "snx11003"),
                          nfs=False, eth_ifaces=(), ib_devices=(), lnet=True)
    return Machine("bluewaters", n_nodes, engine=engine, network=torus,
                   host_profile=profile, seed=seed)


def chama(
    n_nodes: int = 64,
    engine: Optional[Engine] = None,
    seed: int = 0,
) -> Machine:
    """SNL Chama (§III-B): 1,296-node IB capacity cluster, 16 cores and
    64 GB per node, Lustre shared with another cluster."""
    tree = FatTree(n_nodes=max(n_nodes, 18), radix=18, uplinks=9)
    profile = HostProfile(ncpus=16, mem_total_kb=64 * 1024 * 1024,
                          lustre_mounts=("snx11024",), nfs=True,
                          eth_ifaces=("eth0",), ib_devices=("mlx4_0",),
                          lnet=False)
    return Machine("chama", n_nodes, engine=engine, network=tree,
                   host_profile=profile, seed=seed)
