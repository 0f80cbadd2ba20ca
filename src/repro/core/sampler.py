"""Sampler plugin framework.

A sampling plugin defines a collection of metrics called a metric set
and periodically overwrites the set's data chunk in place; no sample
history is retained on the node (paper §IV-A).  Plugins are registered
by name and loaded/configured/started dynamically by ldmsd.

Plugin lifecycle::

    plugin = sampler_registry["meminfo"](daemon)
    plugin.config(instance="node1/meminfo", component_id=1, ...)
    # daemon schedules:
    plugin.begin_sample()          # opens transactions (consistent := 0)
    plugin.finish_sample(now)      # do_sample() + close transactions

The begin/finish split exists so the simulator can model the sampling
busy window: a data fetch that lands inside the window sees the
consistent flag clear and is discarded by the consumer, exactly as a
torn RDMA read would be (§IV-A: "Collection of a metric set whose data
has not been updated or is incomplete does not result in a write").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.metric import MetricType
from repro.core.metric_set import MetricSet
from repro.util.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ldmsd import Ldmsd

__all__ = ["SamplerPlugin", "sampler_registry", "register_sampler", "default_sample_cost"]

#: Calibration (DESIGN.md): fixed per-sample overhead plus per-metric
#: collection cost.  The per-metric figure is the paper's measured
#: 1.3 us/metric for LDMS; the base term makes a ~200-metric set cost
#: ~0.4 ms, matching the PSNAP-observed sampler execution time.
SAMPLE_BASE_COST = 150e-6
SAMPLE_PER_METRIC_COST = 1.3e-6


def default_sample_cost(total_metrics: int) -> float:
    """Simulated CPU seconds for one sampling event of a plugin."""
    return SAMPLE_BASE_COST + SAMPLE_PER_METRIC_COST * total_metrics


class SamplerPlugin:
    """Base class for sampler plugins.

    Subclasses set :attr:`plugin_name`, implement :meth:`config` (which
    must create metric sets via :meth:`create_set`) and
    :meth:`do_sample` (which writes current values with
    ``set.set_value``).
    """

    plugin_name: str = "abstract"

    def __init__(self, daemon: "Ldmsd"):
        self.daemon = daemon
        self.instance: str = ""
        self.component_id: int = 0
        self._sets: list[MetricSet] = []
        self.samples_taken = 0
        #: Set by the daemon around each scheduled sampling event:
        #: when the last sample finished and the cumulative busy time
        #: (seconds) spent sampling — the per-plugin view of the
        #: ``sample.duration`` telemetry histogram.
        self.last_sample_ts = 0.0
        self.sample_time_total = 0.0
        self._sample_t0 = 0.0
        self.configured = False

    # -- configuration -------------------------------------------------------
    def config(self, instance: str, component_id: int = 0, **kwargs) -> None:
        """Configure the plugin.  Subclasses should call ``super().config``
        first, then create their set(s)."""
        if self.configured:
            raise ConfigError(f"plugin {self.plugin_name!r} already configured")
        if not instance:
            raise ConfigError("sampler config requires instance=")
        self.instance = instance
        self.component_id = int(component_id)
        self.configured = True

    def create_set(
        self, name: str, schema: str, metrics: list[tuple[str, MetricType]]
    ) -> MetricSet:
        """Create (and publish) a metric set owned by this plugin."""
        mset = self.daemon.create_set(
            name, schema, [(m, t, self.component_id) for m, t in metrics]
        )
        self._sets.append(mset)
        return mset

    @property
    def sets(self) -> list[MetricSet]:
        return list(self._sets)

    @property
    def total_metrics(self) -> int:
        return sum(s.card for s in self._sets)

    @property
    def sample_cost(self) -> float:
        """Simulated cost of one sampling event (override to specialize)."""
        return default_sample_cost(self.total_metrics)

    # -- sampling --------------------------------------------------------------
    def begin_sample(self) -> None:
        for s in self._sets:
            s.begin_transaction()

    def finish_sample(self, now: float) -> None:
        try:
            self.do_sample(now)
            self.samples_taken += 1
        finally:
            for s in self._sets:
                s.end_transaction(now)

    def sample(self, now: float) -> None:
        """Single-shot convenience for direct (non-daemon) use."""
        self.begin_sample()
        self.finish_sample(now)

    def do_sample(self, now: float) -> None:
        raise NotImplementedError

    # -- columnar cohort protocol (set arena) ---------------------------------
    def cohort_key(self):
        """Vectorization key for arena sampler cohorts, or None.

        A non-None hashable key declares that every plugin instance
        returning the same key produces, at the same tick count, the
        same value row — so a cohort sweep can compute the row once and
        broadcast it to every member's arena row.  Plugins whose values
        depend on per-instance state (RNG draws, per-node files) must
        return None and keep the scalar path.
        """
        return None

    def cohort_advance(self) -> int:
        """Advance per-tick state exactly as one ``do_sample`` would and
        return the new tick count (cohort-path replacement for the
        value computation inside ``do_sample``)."""
        raise NotImplementedError

    def cohort_row(self, ticks: int, dtype):
        """The value row (1-D array, descriptor order) at ``ticks``."""
        raise NotImplementedError

    def term(self) -> None:
        """Unload: delete the plugin's sets."""
        for s in self._sets:
            self.daemon.delete_set(s.name)
        self._sets.clear()


#: plugin name -> plugin class
sampler_registry: dict[str, type[SamplerPlugin]] = {}


def register_sampler(name: str) -> Callable[[type], type]:
    """Class decorator registering a sampler plugin under ``name``."""

    def deco(cls: type) -> type:
        if name in sampler_registry:
            raise ConfigError(f"sampler plugin {name!r} already registered")
        cls.plugin_name = name
        sampler_registry[name] = cls
        return cls

    return deco
