"""reprolint: static enforcement of the DES determinism contracts.

Every experiment here is a deterministic discrete-event run, so the
simulator's packages must not reach the host clock, an unseeded RNG or
hash-ordered iteration — directly or many calls away.  No test sees a
wall-clock stamp that happens not to change a row, so this package
checks it statically, over the whole call graph.  The other pipeline
contracts are checked where the code runs: the hot-path cost gates in
``tests/test_footprint.py``, the control and source-tree tests, and
:mod:`repro.core.sanitize` for data-chunk writes (§IV-B):

* :mod:`repro.analysis.lint.engine` — the one-parse-per-file engine:
  rule registry, ``[tool.reprolint]`` config read from
  ``pyproject.toml``, ``# reprolint: ignore[rule-id] -- why`` line
  suppressions, text/JSON/SARIF reporters, stable exit codes; it
  drives the whole-program passes of :mod:`repro.analysis.flow` over
  the trees it parsed;
* :mod:`repro.analysis.lint.rules` — the four ``flow-*`` contracts' ids
  and descriptions;
* :mod:`repro.analysis.lint.cli` — the ``repro-lint`` console script
  (not imported here, so ``python -m repro.analysis.lint.cli`` runs it
  as ``__main__`` exactly once).

Exit codes: 0 clean, 1 violations, 2 usage/configuration error.
"""

from repro.analysis.lint.engine import (
    Engine,
    LintConfig,
    LintConfigError,
    Report,
    Rule,
    Violation,
    all_rules,
)

__all__ = [
    "Engine",
    "LintConfig",
    "LintConfigError",
    "Report",
    "Rule",
    "Violation",
    "all_rules",
]
