"""Per-module summary extraction for the whole-program flow pass.

One walk over a module's (already parsed) tree produces a
:class:`ModuleSummary`: the import alias map, every function/method
with its outgoing call sites, local variable types we can prove
(constructor calls, annotations, ``x = self.attr`` aliases), intrinsic
effect sites (set iteration, ``global`` mutation, container
allocation), and every class with its bases, attribute types, and
methods.  Summaries are pure syntax — no cross-module knowledge; all
resolution happens later in :mod:`repro.analysis.flow.graph`.

Naming conventions used throughout:

* call-site names are dotted chains with the *head* expanded through
  the module import map (``np.float64`` → ``numpy.float64``) except for
  ``self``/``cls``/``super`` heads, which stay symbolic for the graph
  to dispatch;
* local types are either dotted class names, ``builtins.set`` /
  ``builtins.dict`` / ``builtins.list``, or the marker ``self.<attr>``
  meaning "same type as that instance attribute".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.flow.catalog import ORDER_INDEPENDENT_CONSUMERS

MODULE_BODY = "<module>"

_BUILTIN_SET = "builtins.set"
_BUILTIN_DICT = "builtins.dict"
_BUILTIN_LIST = "builtins.list"


@dataclass
class CallSite:
    """One outgoing call (or function reference) from a function body."""

    name: str
    line: int
    col: int
    sanctioned: bool = False  # wrapped directly in an order-independent consumer
    is_ref: bool = False  # passed as an argument, not called here


@dataclass
class EffectSite:
    """An intrinsic (syntactic) effect observed directly in a body."""

    effect: str
    line: int
    detail: str


@dataclass
class FunctionInfo:
    name: str  # "f" for module functions, "C.m" for methods
    line: int
    cls: str | None = None
    calls: list[CallSite] = field(default_factory=list)
    effects: list[EffectSite] = field(default_factory=list)
    local_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ClassInfo:
    name: str
    line: int
    bases: list[str] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    attr_types: dict[str, str] = field(default_factory=dict)
    # f-string getattr dispatch: (method, prefix) pairs, e.g. the
    # control plane's getattr(self, f"_cmd_{verb}") -> ("handle", "_cmd_")
    prefix_dispatch: list[list[str]] = field(default_factory=list)


@dataclass
class ModuleSummary:
    module: str
    path: str
    imports: dict[str, str] = field(default_factory=dict)  # alias -> dotted
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# helpers


def build_import_map(tree: ast.Module, module: str) -> dict[str, str]:
    imports: dict[str, str] = {}
    pkg_parts = module.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # relative import: resolve against this module's package
                base = pkg_parts[: len(pkg_parts) - node.level]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{prefix}.{alias.name}" if prefix else alias.name
                imports[alias.asname or alias.name] = target
    return imports


def dotted_name(node: ast.expr) -> str | None:
    """Flatten Name/Attribute chains; ``super().m`` becomes ``super.m``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "super":
        parts.append("super")
    else:
        return None
    return ".".join(reversed(parts))


def expand_head(dotted: str, imports: dict[str, str]) -> str:
    head, _, rest = dotted.partition(".")
    if head in ("self", "cls", "super"):
        return dotted
    expanded = imports.get(head)
    if expanded is None:
        return dotted
    return f"{expanded}.{rest}" if rest else expanded


def _ann_type(node: ast.expr | None) -> str | None:
    """Best-effort type name from an annotation expression."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
        return _ann_type(node)
    if isinstance(node, ast.Name):
        return _builtin_container(node.id) or node.id
    if isinstance(node, ast.Attribute):
        return dotted_name(node)
    if isinstance(node, ast.Subscript):
        base = dotted_name(node.value)
        if base is None:
            return None
        tail = base.split(".")[-1]
        if tail in ("Optional",):
            return _ann_type(node.slice)
        if tail in ("Union",):
            if isinstance(node.slice, ast.Tuple):
                for elt in node.slice.elts:
                    if isinstance(elt, ast.Constant) and elt.value is None:
                        continue
                    got = _ann_type(elt)
                    if got is not None:
                        return got
            return None
        return _builtin_container(tail)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _ann_type(node.left)
        if left is not None:
            return left
        return _ann_type(node.right)
    return None


def _builtin_container(name: str) -> str | None:
    lowered = name.lower()
    if lowered in ("set", "frozenset"):
        return _BUILTIN_SET
    if lowered == "dict":
        return _BUILTIN_DICT
    if lowered == "list":
        return _BUILTIN_LIST
    return None


def _fstring_prefix(node: ast.expr) -> str | None:
    """Leading literal of an f-string (``f"_cmd_{v}"`` -> ``"_cmd_"``)."""
    if not isinstance(node, ast.JoinedStr) or not node.values:
        return None
    first = node.values[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str) and len(node.values) > 1:
        return first.value
    return None


_ALLOC_NODES = (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


class _BodyScanner:
    """Scans one function body (including nested defs/lambdas, whose
    execution we conservatively attribute to the enclosing function)."""

    def __init__(
        self,
        imports: dict[str, str],
        parents: dict[ast.AST, ast.AST],
        cls: ClassInfo | None,
        method_name: str | None,
    ) -> None:
        self.imports = imports
        self.parents = parents
        self.cls = cls
        self.method_name = method_name
        self.calls: list[CallSite] = []
        self.effects: list[EffectSite] = []
        self.local_types: dict[str, str] = {}
        self._alloc_seen = False
        self._globals: set[str] = set()

    # -- typing ------------------------------------------------------------

    def note_param(self, arg: ast.arg) -> None:
        t = _ann_type(arg.annotation)
        if t is not None:
            self.local_types.setdefault(arg.arg, t)

    def _value_type(self, value: ast.expr) -> str | None:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return _BUILTIN_SET
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return _BUILTIN_DICT
        if isinstance(value, (ast.List, ast.ListComp)):
            return _BUILTIN_LIST
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            if name is not None:
                builtin = _builtin_container(name) if "." not in name else None
                if builtin == _BUILTIN_SET:
                    return _BUILTIN_SET
                if name in ("set", "frozenset"):
                    return _BUILTIN_SET
                if name == "dict":
                    return _BUILTIN_DICT
                if name == "list":
                    return _BUILTIN_LIST
                expanded = expand_head(name, self.imports)
                head = expanded.split(".")[0]
                if head not in ("self", "cls", "super"):
                    # constructor call: leave class-ness for the graph
                    return expanded
            return None
        if isinstance(value, ast.BinOp) and isinstance(value.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            lt = self._expr_type(value.left)
            rt = self._expr_type(value.right)
            if _BUILTIN_SET in (lt, rt):
                return _BUILTIN_SET
            return None
        name = dotted_name(value)
        if name is not None and name.startswith("self.") and name.count(".") == 1:
            return name  # "self.attr" marker, resolved by the graph
        return None

    def _expr_type(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return self.local_types.get(node.id)
        if isinstance(node, (ast.Set, ast.SetComp)):
            return _BUILTIN_SET
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in ("set", "frozenset"):
                return _BUILTIN_SET
            return None
        name = dotted_name(node)
        if name is not None and name.startswith("self.") and name.count(".") == 1:
            if self.cls is not None:
                return self.cls.attr_types.get(name.split(".")[1])
        return None

    def note_assign(self, node: ast.Assign | ast.AnnAssign) -> None:
        if isinstance(node, ast.AnnAssign):
            targets: list[ast.expr] = [node.target]
            t = _ann_type(node.annotation)
            if t is None and node.value is not None:
                t = self._value_type(node.value)
        else:
            targets = node.targets
            t = self._value_type(node.value)
        for target in targets:
            if isinstance(target, ast.Name) and t is not None:
                self.local_types[target.id] = t
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.cls is not None
                and t is not None
            ):
                resolved = t
                if resolved.startswith("self."):
                    resolved = self.cls.attr_types.get(resolved.split(".")[1], "")
                if resolved:
                    self.cls.attr_types.setdefault(target.attr, resolved)

    # -- effect sites ------------------------------------------------------

    def _is_set_typed(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name in ("set", "frozenset")
        if isinstance(node, ast.Name):
            return self.local_types.get(node.id) == _BUILTIN_SET
        if isinstance(node, ast.Attribute):
            name = dotted_name(node)
            if name is not None and name.startswith("self.") and name.count(".") == 1:
                if self.cls is not None:
                    return self.cls.attr_types.get(name.split(".")[1]) == _BUILTIN_SET
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            return self._is_set_typed(node.left) or self._is_set_typed(node.right)
        return False

    def _iteration_sanctioned(self, iter_owner: ast.AST) -> bool:
        """True when the iteration's result is consumed order-independently.

        Covers ``sorted(x for x in s)``-style direct wrapping and set
        comprehensions (building a set from a set is order-free).
        """
        if isinstance(iter_owner, ast.SetComp):
            return True
        if isinstance(iter_owner, ast.GeneratorExp):
            parent = self.parents.get(iter_owner)
            if isinstance(parent, ast.Call):
                fname = dotted_name(parent.func)
                if fname in ORDER_INDEPENDENT_CONSUMERS:
                    return True
        return False

    def _describe_iter(self, node: ast.expr) -> str:
        name = dotted_name(node)
        if name is not None:
            return name
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(node, ast.Call):
            fname = dotted_name(node.func)
            return f"{fname}(...)" if fname else "a set expression"
        return "a set expression"

    def _note_unordered_iter(self, iter_node: ast.expr, owner: ast.AST, line: int) -> None:
        if not self._is_set_typed(iter_node):
            return
        if self._iteration_sanctioned(owner):
            return
        self.effects.append(
            EffectSite(
                "unordered_iteration",
                line,
                f"iterates {self._describe_iter(iter_node)} (hash order varies "
                f"with PYTHONHASHSEED); wrap in sorted()",
            )
        )

    # -- traversal ---------------------------------------------------------

    def scan(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._visit(stmt)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Global):
            self._globals.update(node.names)
            self.effects.append(
                EffectSite(
                    "global_mutation",
                    node.lineno,
                    f"rebinds module global(s) {', '.join(node.names)}",
                )
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            self.note_assign(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # nested def: attribute its body to the enclosing function
            for arg in _all_args(node.args):
                self.note_param(arg)
        elif isinstance(node, ast.For):
            self._note_unordered_iter(node.iter, node, node.lineno)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                self._note_unordered_iter(gen.iter, node, node.lineno)
        elif isinstance(node, ast.Call):
            self._visit_call(node)
        if isinstance(node, _ALLOC_NODES) and not self._alloc_seen:
            self._alloc_seen = True
            self.effects.append(
                EffectSite("allocates", getattr(node, "lineno", 0), "builds a container")
            )
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _visit_call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None:
            expanded = expand_head(name, self.imports)
            sanctioned = self._call_sanctioned(node)
            self.calls.append(
                CallSite(expanded, node.lineno, node.col_offset, sanctioned=sanctioned)
            )
            tail = name.split(".")[-1]
            if tail == "getattr" or name == "getattr":
                self._note_getattr_dispatch(node)
            if name in ("list", "tuple") and node.args and self._is_set_typed(node.args[0]):
                self.effects.append(
                    EffectSite(
                        "unordered_iteration",
                        node.lineno,
                        f"materializes {self._describe_iter(node.args[0])} in hash "
                        f"order; wrap in sorted()",
                    )
                )
        # function references passed as arguments (callbacks given to
        # schedulers etc.) — recorded; the graph keeps only those that
        # resolve to project functions.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, (ast.Name, ast.Attribute)):
                ref = dotted_name(arg)
                if ref is not None:
                    self.calls.append(
                        CallSite(
                            expand_head(ref, self.imports),
                            node.lineno,
                            node.col_offset,
                            is_ref=True,
                        )
                    )

    def _call_sanctioned(self, node: ast.Call) -> bool:
        parent = self.parents.get(node)
        if isinstance(parent, ast.Call):
            fname = dotted_name(parent.func)
            if fname in ORDER_INDEPENDENT_CONSUMERS:
                return True
        return False

    def _note_getattr_dispatch(self, node: ast.Call) -> None:
        if len(node.args) < 2:
            return
        recv = dotted_name(node.args[0])
        prefix = _fstring_prefix(node.args[1])
        if recv == "self" and prefix and self.cls is not None and self.method_name:
            self.cls.prefix_dispatch.append([self.method_name, prefix])

    def note_global_writes(self, module_globals: set[str]) -> None:
        """Mutating calls/stores through module-level names."""
        for call in self.calls:
            head, _, rest = call.name.partition(".")
            if head in module_globals and rest.split(".")[-1] in (
                "append",
                "add",
                "update",
                "setdefault",
                "pop",
                "clear",
                "extend",
                "remove",
                "discard",
            ):
                self.effects.append(
                    EffectSite(
                        "global_mutation",
                        call.line,
                        f"mutates module global {head!r} via .{rest}()",
                    )
                )


def _all_args(args: ast.arguments) -> Iterator[ast.arg]:
    for a in args.posonlyargs + args.args + args.kwonlyargs:
        yield a
    if args.vararg:
        yield args.vararg
    if args.kwarg:
        yield args.kwarg


def _subscript_stores(body: list[ast.stmt], module_globals: set[str]) -> list[EffectSite]:
    out: list[EffectSite] = []
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                name = dotted_name(node.value)
                if name is not None and name.split(".")[0] in module_globals:
                    out.append(
                        EffectSite(
                            "global_mutation",
                            node.lineno,
                            f"writes into module global {name.split('.')[0]!r}",
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# extraction driver


def extract_module(source: str | ast.Module, module: str, path: str) -> ModuleSummary:
    """Produce the flow summary of one module.

    The engine hands over the tree it parsed once per file; source text
    is parsed here (raising :class:`SyntaxError`).
    """
    tree = ast.parse(source, filename=path) if isinstance(source, str) else source
    imports = build_import_map(tree, module)
    summary = ModuleSummary(module=module, path=path, imports=imports)

    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node

    module_globals: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for t in stmt.targets:
                if isinstance(t, ast.Name):
                    module_globals.add(t.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            module_globals.add(stmt.target.id)

    def scan_function(
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        cls_info: ClassInfo | None,
    ) -> FunctionInfo:
        qual = f"{cls_info.name}.{fn.name}" if cls_info else fn.name
        scanner = _BodyScanner(imports, parents, cls_info, fn.name)
        for arg in _all_args(fn.args):
            scanner.note_param(arg)
        scanner.scan(fn.body)
        scanner.note_global_writes(module_globals)
        scanner.effects.extend(_subscript_stores(fn.body, module_globals))
        # decorators execute at import time; attribute them to the
        # module body instead (handled by the module scanner) — but a
        # decorator that *wraps* the function (e.g. lru_cache) doesn't
        # change its effects for our lattice.
        info = FunctionInfo(
            name=qual,
            line=fn.lineno,
            cls=cls_info.name if cls_info else None,
            calls=scanner.calls,
            effects=scanner.effects,
            local_types=scanner.local_types,
        )
        return info

    def scan_class(node: ast.ClassDef, outer: str = "") -> None:
        cname = f"{outer}.{node.name}" if outer else node.name
        cls_info = ClassInfo(name=cname, line=node.lineno)
        for base in node.bases:
            b = dotted_name(base)
            if b is not None:
                cls_info.bases.append(expand_head(b, imports))
        # class-level annotations become attribute types
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                t = _ann_type(stmt.annotation)
                if t is None and stmt.value is not None:
                    t = _BodyScanner(imports, parents, None, None)._value_type(stmt.value)
                if t is not None:
                    cls_info.attr_types.setdefault(stmt.target.id, t)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
                stmt.targets[0], ast.Name
            ):
                t = _BodyScanner(imports, parents, None, None)._value_type(stmt.value)
                if t is not None:
                    cls_info.attr_types.setdefault(stmt.targets[0].id, t)
        summary.classes[cname] = cls_info
        # pre-pass: collect self.<attr> types from every method body first,
        # so a method defined above __init__ still sees the attribute types
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                pre = _BodyScanner(imports, parents, cls_info, stmt.name)
                for sub in ast.walk(stmt):
                    if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                        pre.note_assign(sub)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls_info.methods.append(stmt.name)
                info = scan_function(stmt, cls_info)
                summary.functions[info.name] = info
            elif isinstance(stmt, ast.ClassDef):
                scan_class(stmt, cname)

    module_scanner = _BodyScanner(imports, parents, None, None)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = scan_function(stmt, None)
            summary.functions[info.name] = info
            for deco in stmt.decorator_list:
                _note_decorator(module_scanner, deco, imports)
        elif isinstance(stmt, ast.ClassDef):
            scan_class(stmt)
            for deco in stmt.decorator_list:
                _note_decorator(module_scanner, deco, imports)
        else:
            module_scanner._visit(stmt)
    module_scanner.note_global_writes(module_globals)
    summary.functions[MODULE_BODY] = FunctionInfo(
        name=MODULE_BODY,
        line=1,
        calls=module_scanner.calls,
        effects=module_scanner.effects,
        local_types=module_scanner.local_types,
    )
    return summary


def _note_decorator(
    scanner: _BodyScanner, deco: ast.expr, imports: dict[str, str]
) -> None:
    target = deco.func if isinstance(deco, ast.Call) else deco
    name = dotted_name(target)
    if name is not None:
        scanner.calls.append(
            CallSite(expand_head(name, imports), deco.lineno, deco.col_offset)
        )
