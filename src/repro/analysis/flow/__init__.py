"""The whole-program passes of ``repro-lint``.

These passes build an *interprocedural* view of the tree from the
modules ``repro-lint`` parsed: a call graph over every module
(import resolution, class-hierarchy method dispatch, annotation-typed
attribute dispatch, plugin-registry edges), an effect-inference lattice
seeded from a stdlib/numpy catalog and propagated transitively, and
determinism contracts for the packages declared DES-pure in
``[tool.reprolint.flow]``.  The wire protocol is not checked here: its
codecs and HELLO gates are pinned at run time by the wire tests.

The paper's evaluation (§IV) rests on same-seed byte-identical DES
replay; a single transitive call into wall-clock, unseeded RNG, or
set-iteration code breaks it silently.  Violations of the ``flow-*``
rules carry the full call chain.
:class:`repro.analysis.lint.engine.Engine` drives the passes and hands
them the trees it parsed; nothing here reads files.
"""

from repro.analysis.flow.catalog import EFFECTS, effect_of
from repro.analysis.flow.config import FlowConfig
from repro.analysis.flow.summary import ModuleSummary, extract_module
from repro.analysis.flow.graph import Program

__all__ = [
    "EFFECTS",
    "FlowConfig",
    "ModuleSummary",
    "Program",
    "effect_of",
    "extract_module",
]
