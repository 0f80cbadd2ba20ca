"""Shared utilities: unit parsing, deterministic RNG, clocks, errors.

The numpy statistics helpers live in :mod:`repro.util.stats`, which
this package does not import: a real daemon never loads numpy."""

from repro.util.errors import (
    ReproError,
    ConfigError,
    TransportError,
    LookupError_,
    StoreError,
    SimulationError,
)
from repro.util.units import (
    parse_size,
    format_size,
    parse_interval,
    format_interval,
    KIB,
    MIB,
    GIB,
)
from repro.util.rngtools import spawn_rng, stable_seed
from repro.util.timeutil import monotonic, perf_counter, wall_clock

__all__ = [
    "ReproError",
    "ConfigError",
    "TransportError",
    "LookupError_",
    "StoreError",
    "SimulationError",
    "parse_size",
    "format_size",
    "parse_interval",
    "format_interval",
    "KIB",
    "MIB",
    "GIB",
    "spawn_rng",
    "stable_seed",
    "monotonic",
    "perf_counter",
    "wall_clock",
]
