"""Scope of the whole-program passes (``[tool.reprolint.flow]``).

The ``flow`` sub-table of ``[tool.reprolint]``:
:class:`repro.analysis.lint.engine.LintConfig` loads it and hands the
result to the call-graph contracts and the wire check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analysis.findings import LintConfigError


DEFAULT_DES_PURE_PACKAGES = (
    "repro.sim",
    "repro.core",
    "repro.cluster",
    "repro.faults",
)

DEFAULT_FORBIDDEN_EFFECTS = (
    "wall_clock",
    "ambient_rng",
    "unordered_iteration",
)

DEFAULT_BOUNDARY_MODULES = ("repro.util.timeutil",)

DEFAULT_ORDERED_PACKAGES = (
    "repro.sim",
    "repro.core",
    "repro.cluster",
    "repro.faults",
    "repro.plugins",
    "repro.transport",
    "repro.experiments",
)

DEFAULT_WIRE_MODULES = ("repro.core.wire",)

DEFAULT_TRANSPORT_MODULES = (
    "repro.core.wire",
    "repro.transport.base",
    "repro.transport.sock",
    "repro.transport.simfabric",
    "repro.core.ldmsd",
    "repro.core.aggregator",
)

DEFAULT_DISPATCH_ROOTS = (
    "repro.core.store.StorePlugin",
    "repro.core.sampler.SamplerPlugin",
    "repro.transport.base.Endpoint",
    "repro.transport.base.Transport",
)


def _str_list(table: dict[str, Any], key: str, default: tuple[str, ...]) -> tuple[str, ...]:
    value = table.pop(key, None)
    if value is None:
        return default
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise LintConfigError(f"[tool.reprolint.flow] {key} must be a list of strings")
    return tuple(value)


@dataclass
class FlowConfig:
    des_pure_packages: tuple[str, ...] = DEFAULT_DES_PURE_PACKAGES
    forbidden_effects: tuple[str, ...] = DEFAULT_FORBIDDEN_EFFECTS
    boundary_modules: tuple[str, ...] = DEFAULT_BOUNDARY_MODULES
    ordered_packages: tuple[str, ...] = DEFAULT_ORDERED_PACKAGES
    wire_modules: tuple[str, ...] = DEFAULT_WIRE_MODULES
    transport_modules: tuple[str, ...] = DEFAULT_TRANSPORT_MODULES
    dispatch_roots: tuple[str, ...] = DEFAULT_DISPATCH_ROOTS
    features_const: str = "BASE_FEATURES"
    msg_type_class: str = "MsgType"

    @classmethod
    def from_table(cls, table: dict[str, Any]) -> "FlowConfig":
        table = dict(table)
        cfg = cls(
            des_pure_packages=_str_list(
                table, "des-pure-packages", DEFAULT_DES_PURE_PACKAGES
            ),
            forbidden_effects=_str_list(
                table, "forbidden-effects", DEFAULT_FORBIDDEN_EFFECTS
            ),
            boundary_modules=_str_list(
                table, "boundary-modules", DEFAULT_BOUNDARY_MODULES
            ),
            ordered_packages=_str_list(
                table, "ordered-packages", DEFAULT_ORDERED_PACKAGES
            ),
            wire_modules=_str_list(table, "wire-modules", DEFAULT_WIRE_MODULES),
            transport_modules=_str_list(
                table, "transport-modules", DEFAULT_TRANSPORT_MODULES
            ),
            dispatch_roots=_str_list(table, "dispatch-roots", DEFAULT_DISPATCH_ROOTS),
        )
        features = table.pop("features-const", None)
        if features is not None:
            if not isinstance(features, str):
                raise LintConfigError("[tool.reprolint.flow] features-const must be a string")
            cfg.features_const = features
        msg_cls = table.pop("msg-type-class", None)
        if msg_cls is not None:
            if not isinstance(msg_cls, str):
                raise LintConfigError("[tool.reprolint.flow] msg-type-class must be a string")
            cfg.msg_type_class = msg_cls
        if table:
            unknown = ", ".join(sorted(table))
            raise LintConfigError(f"unknown [tool.reprolint.flow] key(s): {unknown}")
        return cfg

    def in_des_pure(self, module: str) -> bool:
        return any(module == p or module.startswith(p + ".") for p in self.des_pure_packages)

    def in_ordered(self, module: str) -> bool:
        return any(module == p or module.startswith(p + ".") for p in self.ordered_packages)

    def is_boundary(self, module: str) -> bool:
        return module in self.boundary_modules
