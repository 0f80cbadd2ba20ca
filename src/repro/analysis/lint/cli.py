"""``repro-lint`` console script.

Usage::

    repro-lint [paths...] [--format text|json|sarif] [--config pyproject.toml]
               [--select rule-a,rule-b] [--list-rules]
               [--sarif-out FILE] [--show-suppressed]

Paths default to ``src`` and are analyzed as one program: the per-file
rules and the whole-program ``flow-*`` contracts run in the same pass.
Configuration is read from the ``[tool.reprolint]`` table of the given
``pyproject.toml`` (default: ``./pyproject.toml``; silently empty if
the file does not exist so the tool works from any checkout
subdirectory with explicit paths).

Exit codes: 0 clean or warnings only, 1 error-severity violations,
2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.lint.engine import (
    Engine,
    LintConfig,
    LintConfigError,
    all_rules,
)

# Registration side effect: rule classes must exist before the engine
# or --list-rules consult the registry.
from repro.analysis.lint import rules as _rules  # noqa: F401

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-lint",
        description="static analysis enforcing the paper's pipeline "
                    "invariants: per-file AST rules, whole-program "
                    "determinism contracts and wire-protocol conformance",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--format", choices=("text", "json", "sarif"), default="text",
                   help="report format (default: text)")
    p.add_argument("--config", default="pyproject.toml",
                   help="pyproject.toml holding [tool.reprolint] "
                        "(default: ./pyproject.toml)")
    p.add_argument("--select", default=None,
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the registered rules and exit")
    p.add_argument("--sarif-out", default=None, metavar="FILE",
                   help="additionally write a SARIF report to FILE")
    p.add_argument("--show-suppressed", action="store_true",
                   help="include suppressed violations in the text report")
    return p


def _list_rules() -> str:
    lines = []
    for rule_id, cls in sorted(all_rules().items()):
        lines.append(f"{rule_id:28s} {cls.description}")
        if cls.paper_ref:
            lines.append(f"{'':28s}   guards: {cls.paper_ref}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    try:
        config = LintConfig.from_pyproject(args.config)
        if args.select is not None:
            config.select = tuple(
                s.strip() for s in args.select.split(",") if s.strip()
            )
        report = Engine(config).lint_paths(args.paths)
    except LintConfigError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    if args.sarif_out:
        out = Path(args.sarif_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report.render_sarif(), encoding="utf-8")
    if args.format == "json":
        print(report.render_json())
    elif args.format == "sarif":
        print(report.render_sarif())
    else:
        print(report.render_text(show_suppressed=args.show_suppressed))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
