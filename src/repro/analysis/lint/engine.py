"""The reprolint engine: one parse per file, every contract in one pass.

Design:

* Each file is read, tokenized (for suppression comments) and
  ``ast.parse``d exactly once.  The whole-program passes
  (:mod:`repro.analysis.flow`) extract the module's summary from that
  tree, and once every file is in, the call-graph contracts are
  evaluated — so the run is summaries → program → contracts.
* The rules are the four ``flow-*`` contracts named in
  :mod:`repro.analysis.lint.rules`; their logic lives in
  :mod:`repro.analysis.flow.graph` and their scope is the
  ``[tool.reprolint.flow]`` table of ``pyproject.toml``.
* Suppression is per line: ``# reprolint: ignore[rule-a,rule-b] -- why``
  on the offending line.  Every id must name a registered rule and the
  justification text after ``--`` is mandatory; a comment failing
  either is itself a violation (rule id ``suppression``), so the tree
  can never accumulate bare or misspelled mutes.

Exit codes are stable API: 0 = clean, 1 = at least one violation,
2 = usage/config error (raised as :class:`LintConfigError` and mapped
by the CLI).
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
import tomllib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Optional

from repro.analysis.findings import LintConfigError, Violation
from repro.analysis.flow.config import FlowConfig
from repro.analysis.flow.graph import Program
from repro.analysis.flow.summary import ModuleSummary, extract_module
from repro.analysis.lint.rules import RULES, Rule
from repro.analysis.sarif import sarif_document

__all__ = [
    "Engine",
    "LintConfig",
    "LintConfigError",
    "Report",
    "Rule",
    "Violation",
    "all_rules",
    "path_to_module",
    "scan_suppression_comments",
]

#: JSON reporter schema version (bump on breaking change).  2: one
#: report for every finding — violations may carry a ``chain``,
#: ``summary`` gained ``by_rule`` and lost ``files_replayed_from_cache``,
#: ``stats`` holds the call-graph sizes.
JSON_SCHEMA_VERSION = 2

#: Ids the engine itself reports under (not in the rule registry).
_ENGINE_RULES = {
    "parse-error": "file failed to parse",
    "suppression": "reprolint ignore comments must name known rules and justify",
}

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*ignore\[([A-Za-z0-9_\-,\s]+)\]\s*(?:--\s*(\S.*))?"
)


def all_rules() -> dict[str, Rule]:
    return dict(RULES)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class LintConfig:
    """Engine configuration, normally read from ``[tool.reprolint]``.

    ``select`` limits the run to specific rule ids; ``flow`` is the
    ``[tool.reprolint.flow]`` sub-table scoping the contracts.
    ``src_roots`` tells the path->module mapper which directory
    components begin a package tree.
    """

    select: Optional[tuple[str, ...]] = None
    src_roots: tuple[str, ...] = ("src",)
    flow: FlowConfig = field(default_factory=FlowConfig)

    @classmethod
    def from_pyproject(cls, path: str | Path) -> "LintConfig":
        path = Path(path)
        if not path.exists():
            return cls()
        with open(path, "rb") as f:
            data = tomllib.load(f)
        table = data.get("tool", {}).get("reprolint", {})
        return cls.from_table(table)

    @classmethod
    def from_table(cls, table: dict) -> "LintConfig":
        table = dict(table)
        select = table.pop("select", None)
        src_roots = tuple(table.pop("src-roots", ("src",)))
        flow = FlowConfig.from_table(table.pop("flow", {}))
        if table:
            raise LintConfigError(
                f"[tool.reprolint]: unknown keys {sorted(table)}"
            )
        return cls(
            select=tuple(select) if select is not None else None,
            src_roots=src_roots,
            flow=flow,
        )


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """Outcome of one lint run."""

    files: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    suppressed: list[Violation] = field(default_factory=list)
    #: call-graph sizes, when a whole-program rule ran
    stats: dict[str, Any] = field(default_factory=dict)

    def sort(self) -> None:
        key = lambda v: (v.path, v.line, v.col, v.rule)  # noqa: E731
        self.violations.sort(key=key)
        self.suppressed.sort(key=key)

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0

    def render_text(self, show_suppressed: bool = False) -> str:
        lines = [v.format() for v in self.violations]
        if show_suppressed and self.suppressed:
            lines += ["", "suppressed:"]
            lines += [
                f"{v.path}:{v.line}:{v.col}: [{v.rule}] {v.message} -- "
                f"{v.justification or '(no justification)'}"
                for v in self.suppressed
            ]
        # Every finding is an error; the warnings count stays in the
        # summary line (and in the JSON summary) so its format holds.
        lines.append(
            f"reprolint: {len(self.files)} files, "
            f"{len(self.violations)} errors, "
            f"0 warnings, {len(self.suppressed)} suppressed"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        by_rule: dict[str, int] = {}
        for v in self.violations:
            by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
        return json.dumps(
            {
                "tool": "reprolint",
                "version": JSON_SCHEMA_VERSION,
                "files_scanned": len(self.files),
                "violations": [v.as_dict() for v in self.violations],
                "suppressed": [v.as_dict() for v in self.suppressed],
                "summary": {
                    "errors": len(self.violations),
                    "warnings": 0,
                    "suppressed": len(self.suppressed),
                    "by_rule": dict(sorted(by_rule.items())),
                },
                "stats": self.stats,
                "exit_code": self.exit_code,
            },
            indent=2,
        )

    def render_sarif(self) -> str:
        rules = {rid: r.description for rid, r in RULES.items()}
        return sarif_document({**rules, **_ENGINE_RULES}, self.violations)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


class Engine:
    """Runs the selected contracts over a set of modules as one
    program."""

    def __init__(self, config: Optional[LintConfig] = None):
        self.config = config or LintConfig()
        selected = self.config.select
        if selected is not None:
            missing = set(selected) - set(RULES)
            if missing:
                raise LintConfigError(f"--select: unknown rules {sorted(missing)}")
        #: ids of the enabled rules
        self.rules: set[str] = (set(RULES) if selected is None
                                else set(selected))
        self._report = Report()
        self._known_ids = set(RULES) | {"parse-error"}
        #: path -> line -> (rule ids, justification)
        self._suppressions: dict[str, dict[int, tuple[set[str], str]]] = {}

    # -- path handling -------------------------------------------------------
    def module_name(self, path: Path) -> str:
        """Map a file path to a dotted module under a configured src root."""
        return path_to_module(path, self.config.src_roots)

    @staticmethod
    def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
        """The files a run lints; a path that names nothing to lint, or
        a run that would check no file at all, is a usage error."""
        files: list[Path] = []
        for p in paths:
            p = Path(p)
            if p.is_dir():
                files.extend(sorted(p.rglob("*.py")))
            elif p.suffix == ".py" and p.is_file():
                files.append(p)
            else:
                raise LintConfigError(f"not a python file or directory: {p}")
        if not files:
            raise LintConfigError("no python files under the given paths")
        return files

    # -- linting -------------------------------------------------------------
    def lint_paths(self, paths: Iterable[str | Path]) -> Report:
        """Lint files and directories as one program."""
        return self._run(
            (str(f), self.module_name(f), f.read_text(encoding="utf-8"))
            for f in self.iter_python_files(paths)
        )

    def lint_sources(self, sources: dict[str, str]) -> Report:
        """Lint in-memory ``{module: source}`` as one program (tests,
        fixtures); each module's path is the synthetic ``<module>``."""
        return self._run(
            (f"<{module}>", module, source) for module, source in sources.items()
        )

    def _run(self, items: Iterable[tuple[str, str, str]]) -> Report:
        """``items`` yields ``(path, module, source)``."""
        report = self._report = Report()
        self._suppressions = {}
        summaries: dict[str, ModuleSummary] = {}
        for path, module, source in items:
            report.files.append(path)
            self._scan_suppressions(path, source)
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as exc:
                self._record(Violation(
                    path, exc.lineno or 0, exc.offset or 0,
                    "parse-error", f"syntax error: {exc.msg}",
                ))
                continue
            if self.rules:
                summaries[module] = extract_module(tree, module, path)
        if self.rules:
            program = Program(summaries, self.config.flow)
            program.build()
            program.propagate()
            for v in program.contract_violations():
                if v.rule in self.rules:
                    self._record(v)
            report.stats = {
                "flow_modules_analyzed": len(summaries), **program.stats}
        report.sort()
        return report

    def _scan_suppressions(self, path: str, source: str) -> None:
        self._suppressions[path], problems = scan_suppression_comments(
            source, self._known_ids)
        for line, col, message in problems:
            self._report.violations.append(
                Violation(path, line, col, "suppression", message))

    def _record(self, v: Violation) -> None:
        """The one way a finding enters the report: suppressed when its
        line carries an ignore comment naming its rule."""
        ids_just = self._suppressions.get(v.path, {}).get(v.line)
        if ids_just is not None and v.rule in ids_just[0]:
            self._report.suppressed.append(
                replace(v, suppressed=True, justification=ids_just[1]))
        else:
            self._report.violations.append(v)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def path_to_module(path: Path, src_roots: tuple[str, ...] = ("src",)) -> str:
    """Map a file path to a dotted module under a configured src root."""
    parts = list(Path(path).resolve().parts)
    for root in src_roots:
        if root in parts:
            rel = parts[parts.index(root) + 1:]
            if rel:
                if rel[-1] == "__init__.py":
                    rel = rel[:-1]
                elif rel[-1].endswith(".py"):
                    rel[-1] = rel[-1][:-3]
                return ".".join(rel)
    return Path(path).stem


def _iter_comments(source: str) -> list[tuple[int, int, str]]:
    """(line, col, text) for every real comment token.

    Tokenizing (rather than regexing raw lines) keeps suppression
    syntax mentioned inside strings/docstrings from being parsed as
    live suppressions.  Returns nothing on tokenize failure; the
    parse-error path reports the syntax problem.
    """
    out: list[tuple[int, int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out.append((tok.start[0], tok.start[1], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    return out


def scan_suppression_comments(
    source: str, known_ids: set[str]
) -> tuple[dict[int, tuple[set[str], str]], list[tuple[int, int, str]]]:
    """Parse ``# reprolint: ignore[...] -- why`` comments from ``source``.

    Returns ``(suppressions, problems)``: a line -> (rule ids,
    justification) map, and a list of (line, col, message) problems for
    malformed comments (an id not in ``known_ids``, missing
    justification).
    """
    out: dict[int, tuple[set[str], str]] = {}
    problems: list[tuple[int, int, str]] = []
    for i, col, comment in _iter_comments(source):
        m = _SUPPRESS_RE.search(comment)
        if not m:
            continue
        ids = {s.strip() for s in m.group(1).split(",") if s.strip()}
        justification = (m.group(2) or "").strip()
        unknown = ids - known_ids
        if unknown:
            problems.append((
                i, col,
                f"suppression names unknown rule(s) {sorted(unknown)}",
            ))
        if not justification:
            problems.append((
                i, col,
                "suppression lacks a justification "
                "(write `# reprolint: ignore[rule] -- why`)",
            ))
        out[i] = (ids, justification)
    return out, problems
