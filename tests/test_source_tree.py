"""Source-tree checks of ``src/``: plain ``ast`` walks, no options.

Every experiment is a deterministic DES run that replays byte for byte
(paper §III/§IV).  Three kinds of code break that without failing any
single run, so they are refused here by what the source says:

* a host-clock read: only :mod:`repro.util.timeutil` imports ``time``;
* ambient randomness: no ``random``, ``uuid`` or ``secrets``, no
  ``os.urandom``, and of ``numpy.random`` only the seeded path
  (``default_rng``, ``Generator``, ``SeedSequence``);
* an OS-ordered directory listing: every ``os.listdir``, ``os.scandir``
  or ``glob.glob`` call is the direct argument of ``sorted(...)``.

Hash-ordered iteration cannot be told from the source alone;
``tests/test_replay.py`` replays a world under two hash seeds instead.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

CLOCK_MODULE = "repro.util.timeutil"
AMBIENT_RNG_MODULES = {"random", "uuid", "secrets"}
SEEDED_NUMPY_RANDOM = {"default_rng", "Generator", "SeedSequence"}
LISTINGS = {"os.listdir", "os.scandir", "glob.glob"}


@cache
def _trees() -> tuple[tuple[str, str, ast.Module], ...]:
    """``(module, path relative to the repo, tree)`` of every file."""
    out = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        parts = path.relative_to(REPO_ROOT / "src").with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out.append((".".join(parts), str(path.relative_to(REPO_ROOT)),
                    ast.parse(path.read_text(encoding="utf-8"))))
    return tuple(out)


def _imports(tree: ast.Module):
    """``(node, local name, dotted name it binds)`` per import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    yield node, a.asname, a.name
                else:
                    top = a.name.split(".")[0]
                    yield node, top, top
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for a in node.names:
                yield node, a.asname or a.name, f"{node.module}.{a.name}"


def _dotted(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """The dotted name a name or attribute chain resolves to, when its
    root is an imported name."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in aliases:
        return ".".join([aliases[node.id], *reversed(attrs)])
    return None


def _uses(tree: ast.Module):
    """``(node, dotted name)`` of every import, and of every name or
    outermost attribute chain whose root is an imported name."""
    aliases = {}
    for node, local, dotted in _imports(tree):
        aliases[local] = dotted
        yield node, dotted
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Name)) and id(node) not in inner:
            dotted = _dotted(node, aliases)
            if dotted is not None:
                yield node, dotted


def test_the_walk_sees_the_tree():
    modules = {m for m, _, _ in _trees()}
    assert len(modules) > 100
    assert CLOCK_MODULE in modules


def test_only_timeutil_imports_time():
    found = [f"{path}:{node.lineno} {dotted}"
             for module, path, tree in _trees() if module != CLOCK_MODULE
             for node, _, dotted in _imports(tree)
             if dotted.split(".")[0] == "time"]
    assert found == [], (
        f"read the host clock through {CLOCK_MODULE}, or take time from "
        "the engine clock (env.now())")


def _ambient(dotted: str) -> bool:
    parts = dotted.split(".")
    if parts[0] in AMBIENT_RNG_MODULES or dotted == "os.urandom":
        return True
    return parts[:2] == ["numpy", "random"] and (
        len(parts) < 3 or parts[2] not in SEEDED_NUMPY_RANDOM)


def test_no_ambient_randomness():
    found = [f"{path}:{node.lineno} {dotted}"
             for _, path, tree in _trees()
             for node, dotted in _uses(tree) if _ambient(dotted)]
    assert found == [], (
        "draw from a seeded numpy Generator "
        "(repro.util.rngtools.spawn_rng / numpy.random.default_rng)")


def test_directory_listings_are_sorted():
    found = []
    for _, path, tree in _trees():
        aliases = {local: dotted for _, local, dotted in _imports(tree)}
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        sorted_args = {id(c.args[0]) for c in calls if c.args
                       and isinstance(c.func, ast.Name) and c.func.id == "sorted"}
        found.extend(f"{path}:{c.lineno} {_dotted(c.func, aliases)}"
                     for c in calls if id(c) not in sorted_args
                     and _dotted(c.func, aliases) in LISTINGS)
    assert found == [], "wrap the listing in sorted(...): OS order varies"


def test_no_mutable_default_arguments():
    """A ``[]``/``{}``/``set()``/``list()``/``dict()``/``bytearray()``
    default is one object shared by every call — across daemons, in
    a multi-daemon DES run.  Default to None and build per call."""
    mutable = (ast.List, ast.Dict, ast.Set)
    factories = {"list", "dict", "set", "bytearray"}
    found = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            for d in [*node.args.defaults, *node.args.kw_defaults]:
                if isinstance(d, mutable) or (
                        isinstance(d, ast.Call)
                        and isinstance(d.func, ast.Name)
                        and d.func.id in factories):
                    found.append(f"{path.relative_to(REPO_ROOT)}:{d.lineno}")
    assert found == []
