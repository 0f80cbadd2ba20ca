"""The finding model shared by every reprolint pass.

Per-file rules (:mod:`repro.analysis.lint.rules`), the whole-program
contracts (:mod:`repro.analysis.flow.graph`) and the wire check
(:mod:`repro.analysis.flow.wirecheck`) all emit the same
:class:`Violation`; the engine's one suppression-aware recorder and one
reporter consume it.  A violation may carry a *chain*: the
interprocedural call path (or wire frame-layout walk) that justifies
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

__all__ = ["ChainFrame", "LintConfigError", "Violation"]


class LintConfigError(Exception):
    """Bad configuration or usage; the CLI maps this to exit code 2."""


@dataclass(frozen=True)
class ChainFrame:
    """One hop of a call-chain (or frame-layout) trace."""

    path: str
    line: int
    func: str
    note: str

    def as_dict(self) -> dict[str, Any]:
        return {"path": self.path, "line": self.line, "func": self.func, "note": self.note}


@dataclass(frozen=True)
class Violation:
    """One finding, pinned to a physical source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"  # "error" | "warning"
    chain: Sequence[ChainFrame] = ()
    suppressed: bool = False
    justification: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "chain", tuple(self.chain))

    def format(self) -> str:
        """``path:line:col: [rule] message`` plus one indented line per chain hop."""
        sev = "" if self.severity == "error" else f" ({self.severity})"
        lines = [f"{self.path}:{self.line}:{self.col}: [{self.rule}]{sev} {self.message}"]
        lines += [f"    {f.path}:{f.line}: in {f.func}: {f.note}" for f in self.chain]
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }
        if self.chain:
            out["chain"] = [f.as_dict() for f in self.chain]
        if self.suppressed:
            out["justification"] = self.justification
        return out
