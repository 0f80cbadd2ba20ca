"""reprolint: static enforcement of the paper's pipeline invariants.

The reproduction rests on contracts the paper states but Python cannot
express in types and the tests do not catch: samplers pay layout cost
once at ``config()`` and never resolve metric names in ``sample()``
(§IV-E), and everything under the discrete-event simulator is
deterministic.  This package is the static half of the enforcement
layer; the runtime half, :mod:`repro.core.sanitize`, checks that
data-chunk writes go through the MetricSet API and bump the DGN
(§IV-B):

* :mod:`repro.analysis.lint.engine` — the one-parse-per-file engine:
  rule registry, per-rule severity/config read from ``pyproject.toml``
  (``[tool.reprolint]``), ``# reprolint: ignore[rule-id] -- why``
  line suppressions, text/JSON/SARIF reporters, stable exit codes; it
  also drives the whole-program passes of :mod:`repro.analysis.flow`
  over the trees it parsed;
* :mod:`repro.analysis.lint.rules` — the project-specific rules;
* :mod:`repro.analysis.lint.cli` — the ``repro-lint`` console script
  (not imported here, so ``python -m repro.analysis.lint.cli`` runs it
  as ``__main__`` exactly once).

Exit codes: 0 clean (or warnings only), 1 error-severity violations,
2 usage/configuration error.
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
from repro.analysis.lint import rules as _rules  # noqa: F401  (registers rules)

__all__ = [
    "Engine",
    "LintConfig",
    "LintConfigError",
    "Report",
    "Rule",
    "Violation",
    "all_rules",
]
