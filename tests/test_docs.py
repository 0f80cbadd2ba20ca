"""README.md and DESIGN.md name only code that exists.

Every backticked ``*.py`` path must be a file in the tree (matched by
path suffix, so ``stores/csv_store.py`` resolves), and every backticked
``repro.*`` dotted name must be a module, or a module followed by a
name that module defines or imports.
"""

import ast
import os
import re
from functools import lru_cache

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DOCS = ("README.md", "DESIGN.md")

_SPAN = re.compile(r"`([^`\n]+)`")
_PY_PATH = re.compile(r"(?<![\w*/.-])([\w./-]*\w\.py)\b")
_MODULE = re.compile(r"(?<![\w.])(repro(?:\.\w+)+)")


def _tree_files() -> list[str]:
    out = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if not d.startswith(".")]
        rel = os.path.relpath(dirpath, ROOT)
        out.extend(os.path.normpath(os.path.join(rel, f)).replace(os.sep, "/")
                   for f in filenames if f.endswith(".py"))
    return out


def _references(kind: re.Pattern) -> list[tuple[str, int, str]]:
    refs = []
    for doc in DOCS:
        with open(os.path.join(ROOT, doc), encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                for span in _SPAN.findall(line):
                    refs.extend((doc, lineno, m) for m in kind.findall(span))
    return refs


def _module_file(dotted: str):
    base = os.path.join(SRC, *dotted.split("."))
    for path in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(path):
            return path
    return None


@lru_cache(maxsize=None)
def _defined_names(path: str) -> frozenset:
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return frozenset(names)


def _module_resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for n in range(len(parts), 1, -1):
        path = _module_file(".".join(parts[:n]))
        if path is not None:
            return n == len(parts) or parts[n] in _defined_names(path)
    return False


def test_docs_name_some_code():
    # The patterns still match what the docs write.
    assert len(_references(_PY_PATH)) > 50
    assert len(_references(_MODULE)) > 20


def test_backticked_py_paths_exist():
    files = _tree_files()
    missing = [f"{doc}:{lineno}: {ref}" for doc, lineno, ref in _references(_PY_PATH)
               if not any(f == ref.lstrip("./") or f.endswith("/" + ref.lstrip("./"))
                          for f in files)]
    assert not missing, "\n".join(missing)


def test_backticked_repro_modules_exist():
    missing = [f"{doc}:{lineno}: {ref}" for doc, lineno, ref in _references(_MODULE)
               if not _module_resolves(ref)]
    assert not missing, "\n".join(missing)


@pytest.mark.parametrize("dotted, ok", [
    ("repro.core.metric_set", True),
    ("repro.core.ldmsd.Ldmsd", True),
    ("repro.sim", True),
    ("repro.sim.no_such_module", False),
    ("repro.core.ldmsd.NoSuchName", False),
])
def test_module_resolution(dotted, ok):
    assert _module_resolves(dotted) is ok
