"""Monitoring specs, noise models, and the BSP application skeleton."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.sampler import default_sample_cost

__all__ = ["MonitoringSpec", "NoiseModel", "RunResult", "BspApp"]


@dataclass(frozen=True)
class MonitoringSpec:
    """An LDMS monitoring configuration as an application sees it.

    Attributes
    ----------
    interval:
        Sampling period in seconds; ``None`` = unmonitored.
    sample_cost:
        CPU seconds one sampling event occupies on the node.  The paper
        measures "the known sampling execution time of order 400 us"
        for the Blue Waters set (§V-A1); the Chama 7-plugin set costs
        about the same in aggregate via
        :func:`~repro.core.sampler.default_sample_cost`.
    synchronized:
        Wall-aligned sampling across nodes (§IV-B); bounds the number of
        perturbed iterations for coupled applications.
    aggregation:
        False models the paper's "no net" variants: sampling runs but
        no data is pulled off the node (Fig. 6 legend "60s, no net").
    net_bytes_per_interval:
        Data-chunk bytes pulled per node per collection interval (Chama:
        4 kB over 7 sets, §IV-D).
    metric_fraction:
        Fraction of the full sampler list that is active (Fig. 8's
        HM_HALF runs "samplers contributing about half the metrics").
        When a per-plugin cost list is given, the cheapest plugins are
        kept (heavy per-cpu collectors are the natural ones to drop).
    plugin_costs:
        Optional per-plugin sampling costs.  Chama runs 7 independent
        sampler plugins per node (§IV-G), each firing asynchronously
        with its own cost; empty means "one combined sampling event of
        ``sample_cost``" (the Blue Waters single-set configuration).
    """

    interval: float | None
    sample_cost: float = 400e-6
    synchronized: bool = False
    aggregation: bool = True
    net_bytes_per_interval: float = 4096.0
    metric_fraction: float = 1.0
    plugin_costs: tuple[float, ...] = ()

    # ------------------------------------------------------------------
    @classmethod
    def unmonitored(cls) -> "MonitoringSpec":
        return cls(interval=None)

    @classmethod
    def interval_1s(cls, **kw) -> "MonitoringSpec":
        return cls(interval=1.0, **kw)

    @classmethod
    def interval_20s(cls, **kw) -> "MonitoringSpec":
        return cls(interval=20.0, **kw)

    @classmethod
    def interval_60s(cls, **kw) -> "MonitoringSpec":
        return cls(interval=60.0, **kw)

    @classmethod
    def chama_plugins(cls, interval: float = 1.0,
                      metric_fraction: float = 1.0) -> "MonitoringSpec":
        """The 7-plugin Chama sampler mix (§IV-G): one heavy per-cpu
        collector plus six light ones."""
        return cls(interval=interval, metric_fraction=metric_fraction,
                   plugin_costs=(400e-6, 60e-6, 50e-6, 45e-6, 40e-6,
                                 35e-6, 30e-6))

    def without_network(self) -> "MonitoringSpec":
        return replace(self, aggregation=False)

    @property
    def monitored(self) -> bool:
        return self.interval is not None

    @property
    def active_plugin_costs(self) -> tuple[float, ...]:
        """Per-plugin costs of the active samplers.

        With explicit ``plugin_costs``, ``metric_fraction`` keeps the
        cheapest ``ceil(frac * n)`` plugins.  Otherwise a single
        combined event whose cost scales with the metric fraction
        (fixed + per-metric components).
        """
        if not self.monitored:
            return ()
        if self.plugin_costs:
            n_keep = max(int(np.ceil(self.metric_fraction * len(self.plugin_costs))), 0)
            return tuple(sorted(self.plugin_costs))[:n_keep]
        base = default_sample_cost(0)
        return (base + (self.sample_cost - base) * self.metric_fraction,)

    @property
    def effective_cost(self) -> float:
        """Total sampler CPU per node per interval (all active plugins)."""
        return float(sum(self.active_plugin_costs))

    def label(self) -> str:
        if not self.monitored:
            return "unmonitored"
        tag = f"{self.interval:g}s"
        if self.metric_fraction < 1.0:
            tag += f" ({self.metric_fraction:.0%} metrics)"
        if not self.aggregation:
            tag += ", no net"
        return tag


class NoiseModel:
    """Vectorised sampler-fire bookkeeping for one run.

    Generates per-node sampler fire times over a run window and answers
    "how much sampler time lands on node n during [t, t+dt)?" in bulk.
    Asynchronous sampling gives every node an independent phase;
    synchronized sampling fires all nodes at common wall times.
    """

    def __init__(self, spec: MonitoringSpec, n_nodes: int,
                 rng: np.random.Generator):
        self.spec = spec
        self.n_nodes = n_nodes
        self.rng = rng
        if spec.monitored:
            if spec.synchronized:
                self.offsets = np.zeros(n_nodes)
            else:
                self.offsets = rng.uniform(0.0, spec.interval, n_nodes)
        else:
            self.offsets = None

    def fires_in(self, t0: float, t1) -> np.ndarray:
        """Number of sampler fires per node with fire time in [t0, t1).

        ``t1`` may be scalar or an (n_nodes,) array (per-node windows).
        """
        if not self.spec.monitored:
            return np.zeros(self.n_nodes, dtype=np.int64)
        t1 = np.broadcast_to(np.asarray(t1, dtype=np.float64), (self.n_nodes,))
        iv = self.spec.interval
        lo = np.ceil((t0 - self.offsets) / iv)
        hi = np.ceil((t1 - self.offsets) / iv)
        return np.maximum(hi - lo, 0).astype(np.int64)


@dataclass
class RunResult:
    """Outcome of one application run."""

    app: str
    spec_label: str
    wall_time: float
    phases: dict[str, float] = field(default_factory=dict)
    iterations: int = 0
    perturbed_iterations: int = 0

    def phase(self, name: str) -> float:
        return self.phases[name]


class BspApp:
    """Bulk-synchronous application skeleton.

    One iteration is: every rank computes (compute phase), then all
    ranks synchronize and communicate (comm phase).  Iteration time::

        T_iter = max_over_nodes(compute * (1 + imbalance_n)
                                + sampler_fires_n * cost)
                 + comm * (1 + comm_jitter) * (1 + net_overhead)

    ``net_overhead`` is the monitoring traffic's share of per-node link
    bandwidth, scaled by the app's communication sensitivity — zero for
    "no net" configurations.

    Run-to-run variability (``run_sigma``) models the background the
    paper reports (e.g. the 200 s spread across unmonitored 8,192-PE
    Nalu runs): a per-run multiplicative factor on both phases.

    Subclasses define class attributes (or pass constructor overrides):
    ``name``, ``n_nodes``, ``ranks_per_node``, ``iterations``,
    ``compute_time``, ``comm_time``, ``imbalance_sigma``,
    ``comm_sigma``, ``run_sigma``, ``net_sensitivity``.
    """

    name = "bsp"
    n_nodes = 64
    ranks_per_node = 16
    iterations = 100
    compute_time = 0.05  # seconds per iteration per rank
    comm_time = 0.01
    imbalance_sigma = 0.01
    comm_sigma = 0.05
    run_sigma = 0.01
    net_sensitivity = 1.0
    link_bandwidth = 4.7e9  # bytes/s per node injection

    #: extra named phases: {phase_name: fraction_of_comm}
    phase_fractions: dict[str, float] = {}

    def __init__(self, **overrides):
        for key, value in overrides.items():
            if not hasattr(type(self), key):
                raise TypeError(f"{type(self).__name__} has no parameter {key!r}")
            setattr(self, key, value)

    # ------------------------------------------------------------------
    def net_overhead(self, spec: MonitoringSpec) -> float:
        """Fractional comm-phase slowdown from monitoring traffic."""
        if not (spec.monitored and spec.aggregation):
            return 0.0
        bps = spec.net_bytes_per_interval / spec.interval
        return self.net_sensitivity * bps / self.link_bandwidth

    def run(self, spec: MonitoringSpec, rng: np.random.Generator) -> RunResult:
        noise = NoiseModel(spec, self.n_nodes, rng)
        run_factor = float(rng.normal(1.0, self.run_sigma))
        run_factor = max(run_factor, 0.5)
        compute = self.compute_time * run_factor
        comm = self.comm_time * run_factor
        net = self.net_overhead(spec)

        t = 0.0
        total_comm = 0.0
        perturbed = 0
        cost = spec.effective_cost
        for _ in range(self.iterations):
            imb = rng.normal(0.0, self.imbalance_sigma, self.n_nodes)
            node_compute = compute * (1.0 + np.abs(imb))
            fires = noise.fires_in(t, t + node_compute)
            node_total = node_compute + fires * cost
            iter_compute = float(node_total.max())
            if fires.max() > 0 and cost > 0:
                # Did noise actually extend the critical path?
                if iter_compute > float(node_compute.max()) + 1e-12:
                    perturbed += 1
            iter_comm = comm * (1.0 + abs(float(rng.normal(0.0, self.comm_sigma))))
            iter_comm *= 1.0 + net
            t += iter_compute + iter_comm
            total_comm += iter_comm
        phases = {"comm": total_comm, "compute": t - total_comm}
        for pname, frac in self.phase_fractions.items():
            jitter = 1.0 + abs(float(rng.normal(0.0, self.comm_sigma)))
            phases[pname] = total_comm * frac * jitter
        return RunResult(
            app=self.name,
            spec_label=spec.label(),
            wall_time=t,
            phases=phases,
            iterations=self.iterations,
            perturbed_iterations=perturbed,
        )

    def ensemble(self, spec: MonitoringSpec, rng: np.random.Generator,
                 repeats: int = 3) -> list[RunResult]:
        """Repeat runs under one configuration (paper's methodology)."""
        return [self.run(spec, rng) for _ in range(repeats)]
