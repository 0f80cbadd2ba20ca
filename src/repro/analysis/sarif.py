"""Minimal SARIF 2.1.0 emission for ``repro-lint``.

Produces just enough of the schema for GitHub code-scanning to render
annotations: one run, one tool driver with rule metadata, and one
result per violation with a physical location.  No external deps.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.analysis.findings import Violation

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def _relative_uri(path: str) -> str:
    p = Path(path)
    try:
        p = p.resolve().relative_to(Path.cwd().resolve())
    except ValueError:
        pass
    return p.as_posix()


def _message(v: Violation) -> str:
    if not v.chain:
        return v.message
    trail = " -> ".join(f"{f.func} ({f.path}:{f.line})" for f in v.chain)
    return f"{v.message} | chain: {trail}"


def sarif_document(rules: dict[str, str], violations: Iterable[Violation]) -> str:
    """Build a SARIF document string from ``rules`` (id -> description)
    and the unsuppressed ``violations``."""
    rule_index = {rule_id: i for i, rule_id in enumerate(rules)}
    sarif_results = []
    for v in violations:
        entry: dict[str, Any] = {
            "ruleId": v.rule,
            "level": "error" if v.severity == "error" else "warning",
            "message": {"text": _message(v)},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": _relative_uri(v.path),
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": max(1, v.line),
                            "startColumn": max(1, v.col + 1),
                        },
                    }
                }
            ],
        }
        if v.rule in rule_index:
            entry["ruleIndex"] = rule_index[v.rule]
        sarif_results.append(entry)
    doc = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": "1.0.0",
                        "informationUri": "",
                        "rules": [
                            {
                                "id": rule_id,
                                "shortDescription": {"text": description},
                                "helpUri": "",
                            }
                            for rule_id, description in rules.items()
                        ],
                    }
                },
                "results": sarif_results,
            }
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
