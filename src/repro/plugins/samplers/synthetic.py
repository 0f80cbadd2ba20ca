"""Synthetic sampler: configurable metric count and value pattern.

Used by the footprint/fan-in benchmarks, by scale tests, and as a
template for user-written plugins.  Patterns:

* ``counter`` — each metric increments by its index+1 per sample;
* ``constant`` — metric i always holds i;
* ``random`` — uniform random u64 values (seeded).
"""

from __future__ import annotations

from repro.core.metric import MetricType
from repro.core.metric_set import set_template
from repro.core.sampler import SamplerPlugin, register_sampler
from repro.util.errors import ConfigError
from repro.util.rngtools import spawn_rng

__all__ = ["SyntheticSampler"]

#: Shared metric-name tuples keyed by count: a fan-in sweep configures
#: thousands of identical instances, and a kept tuple finds its layout's
#: template with one dict lookup instead of building the names again.
_NAMES_CACHE: dict[int, tuple[str, ...]] = {}


@register_sampler("synthetic")
class SyntheticSampler(SamplerPlugin):
    """N generated metrics in one set (schema ``synthetic``).

    Config options
    --------------
    num_metrics:
        How many metrics (default 100).
    pattern:
        ``counter`` (default) / ``constant`` / ``random``.
    value_type:
        Metric type name (default ``u64``).
    seed:
        RNG seed for the ``random`` pattern.
    """

    def config(self, instance: str, component_id: int = 0, num_metrics=100,
               pattern: str = "counter", value_type: str = "u64",
               seed: int = 0, **kwargs) -> None:
        super().config(instance, component_id, **kwargs)
        n = int(num_metrics)
        if n < 1:
            raise ConfigError("synthetic: num_metrics must be >= 1")
        if pattern not in ("counter", "constant", "random"):
            raise ConfigError(f"synthetic: unknown pattern {pattern!r}")
        self.pattern = pattern
        self.mtype = MetricType.parse(value_type)
        # Only the "random" pattern draws; spinning up a numpy Generator
        # costs tens of µs, noticeable when a fan-in sweep configures
        # thousands of counter-pattern instances.
        self.rng = (spawn_rng(int(seed), "synthetic", instance)
                    if pattern == "random" else None)
        names = _NAMES_CACHE.get(n)
        if names is None:
            width = len(str(n - 1))
            names = _NAMES_CACHE[n] = tuple(
                f"metric_{i:0{width}d}" for i in range(n)
            )
        self.names = names
        self.set = self.create_set(instance, "synthetic",
                                   set_template(names, self.mtype))
        self._ticks = 0
        self._cohort_base = None

    def do_sample(self, now: float) -> None:
        self._ticks += 1
        n = len(self.names)
        if self.pattern == "counter":
            vals = [self._ticks * (i + 1) for i in range(n)]
        elif self.pattern == "constant":
            vals = list(range(n))
        else:
            vals = [int(v) for v in self.rng.integers(0, 2**32, size=n)]
        self.set.set_values(vals)

    # -- columnar cohort protocol (set arena) -----------------------------
    def cohort_key(self):
        # Deterministic patterns produce the same row for every instance
        # at the same tick; "random" draws per-instance and must stay on
        # the scalar path.
        if self.pattern == "random":
            return None
        return ("synthetic", self.pattern, len(self.names), self.mtype)

    def cohort_advance(self) -> int:
        self._ticks += 1
        return self._ticks

    def cohort_row(self, ticks: int, dtype):
        import numpy as np

        base = self._cohort_base
        if base is None or base.dtype != dtype:
            base = self._cohort_base = np.arange(1, len(self.names) + 1,
                                                 dtype=dtype)
        if self.pattern == "counter":
            return base * ticks
        return base - 1  # constant: metric i always holds i
