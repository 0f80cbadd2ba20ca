"""The reprolint engine: one parse per file, every rule in one pass.

Design (mirrors how ruff/flake8 organize checks, scaled down):

* Each file is read, tokenized (for suppression comments) and
  ``ast.parse``d exactly once.  The per-file rules run on that tree,
  the whole-program passes (:mod:`repro.analysis.flow`) extract their
  module summary from the *same* tree, and once every file is in, the
  call-graph contracts are evaluated — so the run is per-file rules →
  summaries → program → contracts.
* Rules subclass :class:`Rule` and are registered once in a
  module-level registry that holds per-file and whole-program
  (``flow-*``) rules alike.  Per-file rules declare which AST node
  types they want (:attr:`Rule.interests`); the engine walks each tree
  once and dispatches every node to the rules interested in its type,
  so adding a rule never adds a traversal.
* Scope is module-based, not path-based: each per-file rule carries a
  tuple of package prefixes it applies to plus an ``allowed-modules``
  whitelist, both overridable from ``[tool.reprolint]`` in
  ``pyproject.toml``; the whole-program rules are scoped by the
  ``[tool.reprolint.flow]`` sub-table.
* Suppression is per line: ``# reprolint: ignore[rule-a,rule-b] -- why``
  on the offending line.  Every id must name a registered rule and the
  justification text after ``--`` is mandatory; a comment failing
  either is itself a violation (rule id ``suppression``), so the tree
  can never accumulate bare or misspelled mutes.

Exit codes are stable API: 0 = clean or warnings only, 1 = at least one
error-severity violation, 2 = usage/config error (raised as
:class:`LintConfigError` and mapped by the CLI).
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
from repro.analysis.flow.summary import (
    ModuleSummary,
    build_import_map,
    dotted_name,
    expand_head,
    extract_module,
)
from repro.analysis.sarif import sarif_document

__all__ = [
    "Engine",
    "LintConfig",
    "LintConfigError",
    "ModuleContext",
    "Report",
    "Rule",
    "Violation",
    "all_rules",
    "path_to_module",
    "register_rule",
    "scan_suppression_comments",
]

SEVERITIES = ("error", "warning", "off")

#: JSON reporter schema version (bump on breaking change).  2: one
#: report for per-file and ``flow-*`` findings — violations may carry
#: a ``chain``, ``summary`` gained ``by_rule`` and lost
#: ``files_replayed_from_cache``, ``stats`` holds the call-graph sizes.
JSON_SCHEMA_VERSION = 2

#: Ids the engine itself reports under (not in the rule registry).
_ENGINE_RULES = {
    "parse-error": "file failed to parse",
    "suppression": "reprolint ignore comments must name known rules and justify",
}

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*ignore\[([A-Za-z0-9_\-,\s]+)\]\s*(?:--\s*(\S.*))?"
)


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`rule_id` / :attr:`description` /
    :attr:`paper_ref`, declare :attr:`interests` (the AST node types
    they want dispatched), and implement :meth:`visit`.  Per-rule
    options arrive through :meth:`configure`; the common ones
    (``severity``, ``packages``, ``allowed-modules``) are consumed by
    the constructor.
    """

    rule_id: str = "abstract"
    description: str = ""
    #: The paper invariant this rule guards (shown by ``--list-rules``).
    paper_ref: str = ""
    #: True for a contract the whole-program passes evaluate once over
    #: the call graph; the class is then only the registry entry (id,
    #: description) and none of the per-file hooks run.
    whole_program: bool = False
    default_severity: str = "error"
    #: Module prefixes the rule applies to; None = every linted module.
    default_packages: Optional[tuple[str, ...]] = None
    #: AST node types dispatched to :meth:`visit`.
    interests: tuple[type, ...] = ()

    def __init__(self, options: Optional[dict] = None):
        opts = dict(options or {})
        self.severity = str(opts.pop("severity", self.default_severity))
        if self.severity not in SEVERITIES:
            raise LintConfigError(
                f"{self.rule_id}: bad severity {self.severity!r} "
                f"(expected one of {SEVERITIES})"
            )
        pkgs = opts.pop("packages", None)
        self.packages = tuple(pkgs) if pkgs is not None else self.default_packages
        self.allowed_modules = tuple(opts.pop("allowed-modules", ()))
        self.configure(opts)

    def configure(self, options: dict) -> None:
        """Consume rule-specific options; reject leftovers."""
        if options:
            raise LintConfigError(
                f"{self.rule_id}: unknown options {sorted(options)}"
            )

    def applies_to(self, module: str) -> bool:
        if module in self.allowed_modules:
            return False
        if self.packages is None:
            return True
        return any(
            module == p or module.startswith(p + ".") for p in self.packages
        )

    # -- per-file hooks ------------------------------------------------------
    def begin_module(self, ctx: "ModuleContext") -> None:
        """Called before dispatch starts for a file this rule applies to."""

    def visit(self, node: ast.AST, ctx: "ModuleContext") -> None:
        """Called once per node whose type is in :attr:`interests`."""

    def end_module(self, ctx: "ModuleContext") -> None:
        """Called after the walk finishes (emit whole-module findings)."""


#: rule id -> rule class, in registration order.
_RULE_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.rule_id in _RULE_REGISTRY:
        raise LintConfigError(f"duplicate rule id {cls.rule_id!r}")
    _RULE_REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> dict[str, type[Rule]]:
    return dict(_RULE_REGISTRY)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class LintConfig:
    """Engine configuration, normally read from ``[tool.reprolint]``.

    ``select`` limits the run to specific rule ids; ``rules`` maps
    per-file rule id -> option table (``severity``, ``packages``,
    ``allowed-modules``, plus rule-specific keys); ``flow`` is the
    ``[tool.reprolint.flow]`` sub-table scoping the whole-program
    rules.  ``src_roots`` tells the path->module mapper which directory
    components begin a package tree.
    """

    select: Optional[tuple[str, ...]] = None
    rules: dict[str, dict] = field(default_factory=dict)
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
        rules = {str(k): dict(v) for k, v in table.pop("rules", {}).items()}
        flow = FlowConfig.from_table(table.pop("flow", {}))
        if table:
            raise LintConfigError(
                f"[tool.reprolint]: unknown keys {sorted(table)}"
            )
        unknown = set(rules) - set(_RULE_REGISTRY)
        if unknown:
            raise LintConfigError(
                f"[tool.reprolint.rules]: unknown rule ids {sorted(unknown)}"
            )
        program = sorted(r for r in rules if _RULE_REGISTRY[r].whole_program)
        if program:
            raise LintConfigError(
                f"[tool.reprolint.rules]: {program} are whole-program rules; "
                f"scope them in [tool.reprolint.flow]"
            )
        return cls(
            select=tuple(select) if select is not None else None,
            rules=rules,
            src_roots=src_roots,
            flow=flow,
        )


# ---------------------------------------------------------------------------
# per-file context
# ---------------------------------------------------------------------------


class ModuleContext:
    """What rules see while one file is being linted."""

    def __init__(self, engine: "Engine", path: str, module: str,
                 tree: ast.Module):
        self.engine = engine
        self.path = path
        self.module = module
        self.tree = tree
        self._import_map: Optional[dict[str, str]] = None

    @property
    def import_map(self) -> dict[str, str]:
        """Local alias -> dotted import target, computed once per file.

        ``import numpy as np`` maps ``np -> numpy``; ``from time import
        monotonic as mono`` maps ``mono -> time.monotonic``.  Rules use
        it to resolve call targets to canonical dotted names.
        """
        if self._import_map is None:
            self._import_map = build_import_map(self.tree, self.module)
        return self._import_map

    def resolve_call(self, func: ast.AST) -> Optional[str]:
        """Dotted name of a call target with import aliases expanded."""
        name = dotted_name(func)
        return None if name is None else expand_head(name, self.import_map)

    def report(self, rule: Rule, node: ast.AST | int, message: str,
               col: Optional[int] = None) -> None:
        if isinstance(node, int):
            line, col = node, col or 0
        else:
            line = getattr(node, "lineno", 0)
            col = getattr(node, "col_offset", 0)
        self.engine._record(Violation(
            self.path, line, col, rule.rule_id, message, rule.severity))


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
    def errors(self) -> list[Violation]:
        return [v for v in self.violations if v.severity == "error"]

    @property
    def warnings(self) -> list[Violation]:
        return [v for v in self.violations if v.severity == "warning"]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0

    def render_text(self, show_suppressed: bool = False) -> str:
        lines = [v.format() for v in self.violations]
        if show_suppressed and self.suppressed:
            lines += ["", "suppressed:"]
            lines += [
                f"{v.path}:{v.line}:{v.col}: [{v.rule}] {v.message} -- "
                f"{v.justification or '(no justification)'}"
                for v in self.suppressed
            ]
        lines.append(
            f"reprolint: {len(self.files)} files, "
            f"{len(self.errors)} errors, "
            f"{len(self.warnings)} warnings, {len(self.suppressed)} suppressed"
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
                    "errors": len(self.errors),
                    "warnings": len(self.warnings),
                    "suppressed": len(self.suppressed),
                    "by_rule": dict(sorted(by_rule.items())),
                },
                "stats": self.stats,
                "exit_code": self.exit_code,
            },
            indent=2,
        )

    def render_sarif(self) -> str:
        rules = {rid: cls.description for rid, cls in _RULE_REGISTRY.items()}
        return sarif_document({**rules, **_ENGINE_RULES}, self.violations)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


class Engine:
    """Instantiates the configured rules and runs them over a set of
    modules: per-file rules on each tree, then the whole-program
    contracts over all of them."""

    def __init__(self, config: Optional[LintConfig] = None):
        self.config = config or LintConfig()
        selected = self.config.select
        if selected is not None:
            missing = set(selected) - set(_RULE_REGISTRY)
            if missing:
                raise LintConfigError(f"--select: unknown rules {sorted(missing)}")
        #: per-file rule instances
        self.rules: list[Rule] = []
        #: ids of the enabled whole-program rules
        self.program_rules: set[str] = set()
        for rule_id, cls in _RULE_REGISTRY.items():
            if selected is not None and rule_id not in selected:
                continue
            if cls.whole_program:
                self.program_rules.add(rule_id)
                continue
            rule = cls(self.config.rules.get(rule_id))
            if rule.severity != "off":
                self.rules.append(rule)
        self._report = Report()
        self._known_ids = set(_RULE_REGISTRY) | {"parse-error"}
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
            self._lint_tree(ModuleContext(self, path, module, tree))
            if self.program_rules:
                summaries[module] = extract_module(tree, module, path)
        if self.program_rules:
            program = Program(summaries, self.config.flow)
            program.build()
            program.propagate()
            for v in program.contract_violations():
                if v.rule in self.program_rules:
                    self._record(v)
            report.stats = {
                "flow_modules_analyzed": len(summaries), **program.stats}
        report.sort()
        return report

    def _lint_tree(self, ctx: ModuleContext) -> None:
        active = [r for r in self.rules if r.applies_to(ctx.module)]
        if not active:
            return
        dispatch: dict[type, list[Rule]] = {}
        for rule in active:
            rule.begin_module(ctx)
            for t in rule.interests:
                dispatch.setdefault(t, []).append(rule)
        for node in ast.walk(ctx.tree):
            for rule in dispatch.get(type(node), ()):
                rule.visit(node, ctx)
        for rule in active:
            rule.end_module(ctx)

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
