"""Wire-protocol conformance: encoder/decoder symmetry as a lint error.

PR 7 made the wire format version-dependent (HELLO feature negotiation,
TRACE_FLAG piggybacked on the msg-type byte), which is exactly when
protocol drift stops being caught by construction.  This pass
cross-checks, purely statically:

* **pack/unpack pairs** — for every ``pack_X``/``unpack_X`` pair in the
  wire module(s), the flattened struct format streams must agree
  (byte order, field codes, widths, loop-repeated groups, and
  variable-count ``f"<{n}Q"`` segments).  Formats are read off
  ``struct.pack/unpack[_from]`` calls and off ``Struct`` objects —
  module constants, ``Struct(...)`` built in the function, or handed
  out by a module-level factory (a cached per-width row Struct); a
  ``Struct``'s ``iter_unpack``, and a ``pack``/``unpack_from`` bound for
  reuse rather than called on the spot, count as a repeated group;
* **slice offsets** — a decoder that reads a fixed header format and
  then slices the payload at a literal offset must slice at exactly
  ``calcsize(header)``;
* **flag/mask hygiene** — ``*_FLAG`` constants must live outside the
  ``*_MASK`` bits, and every ``MsgType`` value must survive the mask
  round-trip (and be unique);
* **MsgType coverage** — every message type must be producible (a
  ``pack_*`` helper or an ``encode_frame(MsgType.X, ...)`` site) and
  consumable (an ``unpack_*`` helper or a dispatch comparison) across
  the participant modules, with ``_REQ``/``_REPLY`` pairing intact;
* **HELLO symmetry** — every feature string gated on at consumption
  (``"trace-ctx" in peer_features``) must be advertised in the
  ``BASE_FEATURES`` constant, and vice versa (warning).

Violations carry a frame-layout trace (both sides' formats and where
they were read) in the chain, mirroring the call-chain traces of the
effect pass.
"""

from __future__ import annotations

import ast
import struct
from dataclasses import dataclass, field

from repro.analysis.findings import ChainFrame, Violation
from repro.analysis.flow.config import FlowConfig

_VAR_MARKER = "\x01"
_STRUCT_METHODS = ("pack", "pack_into", "unpack", "unpack_from", "iter_unpack")

# A stream element is either ("code", count_str) for a scalar field or
# ("loop", inner_tuple) for a group packed/unpacked once per entry.
StreamItem = tuple[str, object]


@dataclass
class _FmtEvent:
    fmt: str  # skeleton with _VAR_MARKER for f-string holes
    order: str
    line: int
    repeated: bool
    fixed_size: int | None  # calcsize when fully static, else None


@dataclass
class _WireFacts:
    module: str
    path: str
    msg_types: dict[str, int] = field(default_factory=dict)
    msg_type_lines: dict[str, int] = field(default_factory=dict)
    flags: dict[str, int] = field(default_factory=dict)
    masks: dict[str, int] = field(default_factory=dict)
    pack_fns: dict[str, tuple[int, list[_FmtEvent]]] = field(default_factory=dict)
    unpack_fns: dict[str, tuple[int, list[_FmtEvent]]] = field(default_factory=dict)
    unpack_slices: dict[str, list[tuple[int, int]]] = field(default_factory=dict)


@dataclass
class _ParticipantFacts:
    module: str
    path: str
    encode_sites: dict[str, int] = field(default_factory=dict)  # msgtype -> line
    compare_sites: dict[str, int] = field(default_factory=dict)
    advertised: dict[str, int] = field(default_factory=dict)  # feature -> line
    consumed: dict[str, int] = field(default_factory=dict)


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        return None
    return ".".join(reversed(parts))


def _fmt_skeleton(node: ast.expr, str_consts: dict[str, str]) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append(_VAR_MARKER)
        return "".join(parts)
    if isinstance(node, ast.Name):
        return str_consts.get(node.id)
    return None


def _parse_stream(skeleton: str) -> tuple[str, tuple[StreamItem, ...]] | None:
    """Parse a (possibly marker-holed) struct format into a token stream."""
    order = "@"
    body = skeleton
    if body and body[0] in "@=<>!":
        order = body[0]
        body = body[1:]
    items: list[StreamItem] = []
    count: int | None = None
    pending_var = False
    for ch in body:
        if ch == _VAR_MARKER:
            pending_var = True
            count = None
            continue
        if ch.isdigit():
            count = (count or 0) * 10 + int(ch)
            continue
        if ch in " \t":
            continue
        if ch not in "xcbB?hHiIlLqQnNefdspP":
            return None
        if pending_var:
            items.append(("var", ch))
            pending_var = False
        elif ch in "sp":
            items.append((f"{count or 1}{ch}", "bytes"))
        else:
            items.extend([(ch, "1")] * min(count or 1, 256))
        count = None
    return order, tuple(items)


def _flatten(events: list[_FmtEvent]) -> tuple[set[str], tuple[StreamItem, ...]] | None:
    orders: set[str] = set()
    stream: list[StreamItem] = []
    for event in events:
        parsed = _parse_stream(event.fmt)
        if parsed is None:
            return None
        order, items = parsed
        orders.add(order)
        if event.repeated:
            group: StreamItem = ("loop", items)
            if stream and stream[-1] == group:
                continue  # if/else branches packing the same entry layout
            stream.append(group)
        else:
            stream.extend(items)
    return orders, tuple(stream)


def _stream_text(stream: tuple[StreamItem, ...]) -> str:
    parts: list[str] = []
    for kind, payload in stream:
        if kind == "loop":
            inner = _stream_text(payload)  # type: ignore[arg-type]
            parts.append(f"loop[{inner}]")
        elif kind == "var":
            parts.append(f"{{n}}{payload}")
        else:
            parts.append(kind)
    return " ".join(parts)


class _WireVisitor(ast.NodeVisitor):
    def __init__(self, facts: _WireFacts, config: FlowConfig) -> None:
        self.facts = facts
        self.config = config
        self.str_consts: dict[str, str] = {}
        self.struct_consts: set[str] = set()
        #: module-level function -> format of the Struct it hands out
        self.struct_factories: dict[str, str] = {}

    def _struct_call_fmt(self, node: ast.expr) -> str | None:
        """Format of a ``Struct(...)`` construction or a call to a
        Struct factory; None for anything else."""
        if not isinstance(node, ast.Call):
            return None
        callee = _dotted(node.func)
        if callee in ("struct.Struct", "Struct") and node.args:
            return _fmt_skeleton(node.args[0], self.str_consts)
        return self.struct_factories.get(callee or "")

    def collect(self, tree: ast.Module) -> None:
        functions: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
                stmt.targets[0], ast.Name
            ):
                name = stmt.targets[0].id
                value = stmt.value
                if isinstance(value, ast.Constant):
                    if isinstance(value.value, str):
                        self.str_consts[name] = value.value
                    elif isinstance(value.value, int):
                        if name.endswith("_FLAG"):
                            self.facts.flags[name] = value.value
                        elif name.endswith("_MASK"):
                            self.facts.masks[name] = value.value
                elif (fmt := self._struct_call_fmt(value)) is not None:
                    self.str_consts[name] = fmt
                    self.struct_consts.add(name)
            elif isinstance(stmt, ast.ClassDef) and stmt.name == self.config.msg_type_class:
                for cstmt in stmt.body:
                    if isinstance(cstmt, ast.Assign) and len(cstmt.targets) == 1 and isinstance(
                        cstmt.targets[0], ast.Name
                    ) and isinstance(cstmt.value, ast.Constant) and isinstance(
                        cstmt.value.value, int
                    ):
                        self.facts.msg_types[cstmt.targets[0].id] = cstmt.value.value
                        self.facts.msg_type_lines[cstmt.targets[0].id] = cstmt.lineno
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append(stmt)
        # A helper (neither pack_* nor unpack_*) that builds exactly one
        # Struct is a factory: its callers use that Struct's layout.
        for fn in functions:
            if not fn.name.startswith(("pack_", "unpack_")):
                built = [
                    fmt
                    for node in ast.walk(fn)
                    if (fmt := self._struct_call_fmt(node)) is not None
                ]
                if len(built) == 1:
                    self.struct_factories[fn.name] = built[0]
        for fn in functions:
            self._collect_function(fn)

    def _collect_function(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        events: list[_FmtEvent] = []
        first_param = fn.args.args[0].arg if fn.args.args else None
        slices: list[tuple[int, int]] = []
        # Struct objects by name: the module constants plus locals bound
        # to a Struct(...) construction or a factory call.
        structs = {name: self.str_consts[name] for name in self.struct_consts}
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and (fmt := self._struct_call_fmt(node.value)) is not None
            ):
                structs[node.targets[0].id] = fmt
        called: set[int] = set()  # ids of the expressions being called

        def walk(node: ast.AST, loop_depth: int) -> None:
            bump = int(
                isinstance(
                    node,
                    (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
                )
            )
            if isinstance(node, ast.Call):
                called.add(id(node.func))
                self._note_call(node, events, loop_depth > 0)
            elif isinstance(node, ast.Attribute) and node.attr in _STRUCT_METHODS:
                owner = node.value
                fmt = (
                    structs.get(owner.id)
                    if isinstance(owner, ast.Name)
                    else self._struct_call_fmt(owner)
                )
                if fmt is not None:
                    repeated = (
                        loop_depth > 0
                        or node.attr == "iter_unpack"
                        or id(node) not in called  # bound once, called per entry
                    )
                    events.append(self._event(fmt, node.lineno, repeated))
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Slice)
                and isinstance(node.slice.lower, ast.Constant)
                and isinstance(node.slice.lower.value, int)
                and node.slice.lower.value > 0
                and isinstance(node.value, ast.Name)
                and node.value.id == first_param
            ):
                slices.append((node.lineno, node.slice.lower.value))
            for child in ast.iter_child_nodes(node):
                walk(child, loop_depth + bump)

        walk(fn, 0)
        if fn.name.startswith("pack_"):
            self.facts.pack_fns[fn.name[5:]] = (fn.lineno, events)
        elif fn.name.startswith("unpack_"):
            self.facts.unpack_fns[fn.name[7:]] = (fn.lineno, events)
            if slices:
                self.facts.unpack_slices[fn.name[7:]] = slices

    def _note_call(self, node: ast.Call, events: list[_FmtEvent], repeated: bool) -> None:
        """A module-level ``struct.pack(fmt, ...)``-style call."""
        if _dotted(node.func) not in (
            "struct.pack", "struct.pack_into", "struct.unpack", "struct.unpack_from"
        ) or not node.args:
            return
        fmt = _fmt_skeleton(node.args[0], self.str_consts)
        if fmt is not None:
            events.append(self._event(fmt, node.lineno, repeated))

    @staticmethod
    def _event(fmt: str, line: int, repeated: bool) -> _FmtEvent:
        order = fmt[0] if fmt and fmt[0] in "@=<>!" else "@"
        fixed_size: int | None = None
        if _VAR_MARKER not in fmt:
            try:
                fixed_size = struct.calcsize(fmt)
            except struct.error:
                fixed_size = None
        return _FmtEvent(fmt=fmt, order=order, line=line, repeated=repeated, fixed_size=fixed_size)


class _ParticipantVisitor(ast.NodeVisitor):
    def __init__(self, facts: _ParticipantFacts, config: FlowConfig) -> None:
        self.facts = facts
        self.config = config

    def collect(self, tree: ast.Module) -> None:
        marker = f"{self.config.msg_type_class}."
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
                stmt.targets[0], ast.Name
            ) and stmt.targets[0].id == self.config.features_const:
                for node in ast.walk(stmt.value):
                    if isinstance(node, ast.Constant) and isinstance(node.value, str):
                        self.facts.advertised.setdefault(node.value, stmt.lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = _dotted(node.func)
                if callee is not None and callee.split(".")[-1] == "encode_frame" and node.args:
                    target = _dotted(node.args[0])
                    if target is not None and marker in target:
                        name = target.rsplit(".", 1)[-1]
                        self.facts.encode_sites.setdefault(name, node.lineno)
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                for side in sides:
                    target = _dotted(side)
                    if target is not None and marker in target:
                        name = target.rsplit(".", 1)[-1]
                        self.facts.compare_sites.setdefault(name, node.lineno)
                if (
                    len(node.ops) == 1
                    and isinstance(node.ops[0], (ast.In, ast.NotIn))
                    and isinstance(node.left, ast.Constant)
                    and isinstance(node.left.value, str)
                ):
                    container = _dotted(node.comparators[0])
                    if container is not None and "feature" in container.lower():
                        self.facts.consumed.setdefault(node.left.value, node.lineno)


def check_wire(
    trees: dict[str, tuple[str, ast.Module]], config: FlowConfig
) -> list[Violation]:
    """Run the conformance pass.

    ``trees`` maps module name -> (path, parsed tree) and should contain
    at least the configured wire module(s); participant modules that
    are absent (a partial-tree run, or a file that failed to parse and
    was reported as ``parse-error``) are skipped silently.
    """
    out: list[Violation] = []
    wire_facts: list[_WireFacts] = []
    participants: list[_ParticipantFacts] = []

    for module in config.wire_modules:
        if module in trees:
            path, tree = trees[module]
            facts = _WireFacts(module=module, path=path)
            _WireVisitor(facts, config).collect(tree)
            wire_facts.append(facts)

    for module in config.transport_modules:
        if module in trees:
            path, tree = trees[module]
            pfacts = _ParticipantFacts(module=module, path=path)
            _ParticipantVisitor(pfacts, config).collect(tree)
            participants.append(pfacts)

    for facts in wire_facts:
        out.extend(_check_pairs(facts))
        out.extend(_check_offsets(facts))
        out.extend(_check_flags(facts))
        out.extend(_check_coverage(facts, participants))
    out.extend(_check_hello(participants))
    return out


def _check_pairs(facts: _WireFacts) -> list[Violation]:
    out: list[Violation] = []
    for stem, (pline, pevents) in sorted(facts.pack_fns.items()):
        if stem not in facts.unpack_fns:
            if pevents:
                out.append(
                    Violation(
                        rule="flow-wire-conformance",
                        path=facts.path,
                        line=pline,
                        col=0,
                        severity="warning",
                        message=(
                            f"pack_{stem} has struct formats but no unpack_{stem} "
                            f"counterpart in {facts.module}"
                        ),
                    )
                )
            continue
        uline, uevents = facts.unpack_fns[stem]
        pflat = _flatten(pevents)
        uflat = _flatten(uevents)
        if pflat is None or uflat is None:
            continue  # unresolvable dynamic format: nothing provable
        porders, pstream = pflat
        uorders, ustream = uflat
        if not pevents and not uevents:
            continue
        chain = [
            ChainFrame(facts.path, pline, f"pack_{stem}", f"packs: {_stream_text(pstream) or '(empty)'}"),
            ChainFrame(facts.path, uline, f"unpack_{stem}", f"reads: {_stream_text(ustream) or '(empty)'}"),
        ]
        if len(porders | uorders) > 1:
            out.append(
                Violation(
                    rule="flow-wire-conformance",
                    path=facts.path,
                    line=uline,
                    col=0,
                    message=(
                        f"unpack_{stem} byte order {sorted(uorders)} disagrees with "
                        f"pack_{stem} {sorted(porders)}"
                    ),
                    chain=chain,
                )
            )
            continue
        if pstream != ustream:
            out.append(
                Violation(
                    rule="flow-wire-conformance",
                    path=facts.path,
                    line=uline,
                    col=0,
                    message=(
                        f"unpack_{stem} struct format disagrees with pack_{stem}: "
                        f"decoder reads [{_stream_text(ustream)}] but encoder writes "
                        f"[{_stream_text(pstream)}]"
                    ),
                    chain=chain,
                )
            )
    return out


def _check_offsets(facts: _WireFacts) -> list[Violation]:
    out: list[Violation] = []
    for stem, slices in sorted(facts.unpack_slices.items()):
        uline, uevents = facts.unpack_fns[stem]
        static = [e for e in uevents if not e.repeated and e.fixed_size is not None]
        if len(static) != 1 or len(uevents) != 1:
            continue
        header = static[0]
        for line, offset in slices:
            if offset != header.fixed_size:
                out.append(
                    Violation(
                        rule="flow-wire-conformance",
                        path=facts.path,
                        line=line,
                        col=0,
                        message=(
                            f"unpack_{stem} slices the payload at byte {offset} but its "
                            f"header format {header.fmt!r} is {header.fixed_size} bytes"
                        ),
                        chain=[
                            ChainFrame(
                                facts.path,
                                header.line,
                                f"unpack_{stem}",
                                f"reads header {header.fmt!r} = {header.fixed_size} bytes",
                            ),
                            ChainFrame(
                                facts.path,
                                line,
                                f"unpack_{stem}",
                                f"then slices payload[{offset}:...]",
                            ),
                        ],
                    )
                )
    return out


def _check_flags(facts: _WireFacts) -> list[Violation]:
    out: list[Violation] = []
    if len(facts.masks) != 1:
        return out
    (mask_name, mask_value), = facts.masks.items()
    for flag_name, flag_value in sorted(facts.flags.items()):
        if flag_value & mask_value:
            out.append(
                Violation(
                    rule="flow-wire-conformance",
                    path=facts.path,
                    line=1,
                    col=0,
                    message=(
                        f"{flag_name}=0x{flag_value:02x} overlaps {mask_name}="
                        f"0x{mask_value:02x}; flag bits must live outside the mask"
                    ),
                )
            )
    seen_values: dict[int, str] = {}
    for name, value in sorted(facts.msg_types.items()):
        line = facts.msg_type_lines.get(name, 1)
        if value & mask_value != value:
            out.append(
                Violation(
                    rule="flow-wire-conformance",
                    path=facts.path,
                    line=line,
                    col=0,
                    message=(
                        f"MsgType.{name}={value} does not survive {mask_name} "
                        f"(0x{mask_value:02x}): the value collides with flag bits"
                    ),
                )
            )
        if value in seen_values:
            out.append(
                Violation(
                    rule="flow-wire-conformance",
                    path=facts.path,
                    line=line,
                    col=0,
                    message=(
                        f"MsgType.{name} duplicates the value {value} of "
                        f"MsgType.{seen_values[value]}"
                    ),
                )
            )
        else:
            seen_values[value] = name
    return out


def _tokens(name: str) -> tuple[str, ...]:
    return tuple(t for t in name.lower().split("_") if t)


def _helper_matches(stem: str, msg_type: str) -> bool:
    """``pack_read_multi_req`` serves ``RDMA_READ_MULTI_REQ``: the helper
    suffix tokens must be an ordered subsequence of the MsgType tokens
    ending on the same REQ/REPLY token."""
    st, mt = _tokens(stem), _tokens(msg_type)
    if not st or not mt or st[-1] != mt[-1]:
        return False
    it = iter(mt)
    return all(tok in it for tok in st)


def _check_coverage(
    facts: _WireFacts, participants: list[_ParticipantFacts]
) -> list[Violation]:
    out: list[Violation] = []
    for name, value in sorted(facts.msg_types.items()):
        line = facts.msg_type_lines.get(name, 1)
        producible = any(_helper_matches(stem, name) for stem in facts.pack_fns)
        consumable = any(_helper_matches(stem, name) for stem in facts.unpack_fns)
        for p in participants:
            if name in p.encode_sites:
                producible = True
            if name in p.compare_sites:
                consumable = True
        if not producible:
            out.append(
                Violation(
                    rule="flow-msgtype-coverage",
                    path=facts.path,
                    line=line,
                    col=0,
                    severity="warning",
                    message=(
                        f"MsgType.{name} ({value}) has no pack_* helper and no "
                        f"encode_frame send site in any participant module"
                    ),
                )
            )
        if not consumable:
            out.append(
                Violation(
                    rule="flow-msgtype-coverage",
                    path=facts.path,
                    line=line,
                    col=0,
                    severity="warning",
                    message=(
                        f"MsgType.{name} ({value}) is never decoded: no unpack_* "
                        f"helper and no dispatch comparison in any participant module"
                    ),
                )
            )
        if name.endswith("_REQ"):
            sibling = name[: -len("_REQ")] + "_REPLY"
            if sibling not in facts.msg_types:
                out.append(
                    Violation(
                        rule="flow-msgtype-coverage",
                        path=facts.path,
                        line=line,
                        col=0,
                        severity="warning",
                        message=f"MsgType.{name} has no {sibling} counterpart",
                    )
                )
    return out


def _check_hello(participants: list[_ParticipantFacts]) -> list[Violation]:
    out: list[Violation] = []
    advertised: dict[str, tuple[str, int]] = {}
    consumed: dict[str, tuple[str, int]] = {}
    for p in participants:
        for feat, line in p.advertised.items():
            advertised.setdefault(feat, (p.path, line))
        for feat, line in p.consumed.items():
            consumed.setdefault(feat, (p.path, line))
    if not advertised and not consumed:
        return out
    for feat in sorted(set(consumed) - set(advertised)):
        path, line = consumed[feat]
        out.append(
            Violation(
                rule="flow-hello-symmetry",
                path=path,
                line=line,
                col=0,
                message=(
                    f"feature {feat!r} is gated on at this negotiation site but "
                    f"never advertised in any transport's feature constant — the "
                    f"gate can never open"
                ),
                chain=[
                    ChainFrame(path, line, "negotiate", f"checks {feat!r} in peer features"),
                ],
            )
        )
    for feat in sorted(set(advertised) - set(consumed)):
        path, line = advertised[feat]
        out.append(
            Violation(
                rule="flow-hello-symmetry",
                path=path,
                line=line,
                col=0,
                severity="warning",
                message=(
                    f"feature {feat!r} is advertised but no negotiation site ever "
                    f"checks it"
                ),
            )
        )
    return out
