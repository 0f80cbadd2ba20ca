"""The project-specific reprolint rules.

Each rule guards one invariant the paper states in prose (DESIGN.md
"Static enforcement" maps every rule to its section reference).  Rules are
deliberately narrow: they encode *this* codebase's contracts, not
general Python style — ruff handles style in CI alongside this linter.

The per-file rules come first; the ``flow-*`` entries at the end
register the whole-program contracts, whose logic lives in
:mod:`repro.analysis.flow.graph` and :mod:`repro.analysis.flow.wirecheck`.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.lint.engine import Rule, register_rule


def _is_self_attr_call(node: ast.Call, attr: str) -> bool:
    f = node.func
    return isinstance(f, ast.Attribute) and f.attr == attr


def _class_has_decorator(node: ast.ClassDef, name: str, ctx) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        resolved = ctx.resolve_call(target)
        if resolved is not None and resolved.split(".")[-1] == name:
            return True
    return False


def _class_bases(node: ast.ClassDef) -> set[str]:
    out = set()
    for b in node.bases:
        if isinstance(b, ast.Name):
            out.add(b.id)
        elif isinstance(b, ast.Attribute):
            out.add(b.attr)
    return out


def _methods(node: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        s.name: s for s in node.body
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


@register_rule
class SamplerContractRule(Rule):
    """Sampler plugins pay layout cost at config(), never in sample().

    The paper's ~1.3 µs/metric collect cost (§IV-E) depends on the
    sample path being "read counters, one compiled whole-row write":
    metric names resolve to indices once at ``config()`` (the PR-1 fast
    path).  Flags, inside ``do_sample``/``sample`` bodies: string-named
    ``set_value`` calls, ``index_of``/``indices_of`` calls,
    ``getattr(x, "literal")`` lookups, literal name->value dicts, and
    ``create_set`` calls.  Also requires every sampler class to define
    both ``config`` and ``do_sample``.
    """

    rule_id = "sampler-contract"
    description = "samplers: layout at config(), no name resolution in sample()"
    paper_ref = "§IV-E collection cost; DESIGN 'Hot-path performance discipline'"
    default_packages = ("repro.plugins.samplers",)
    interests = (ast.ClassDef,)

    def visit(self, node: ast.ClassDef, ctx) -> None:
        is_sampler = (
            _class_has_decorator(node, "register_sampler", ctx)
            or "SamplerPlugin" in _class_bases(node)
        )
        if not is_sampler or node.name == "SamplerPlugin":
            return
        methods = _methods(node)
        for required in ("config", "do_sample"):
            if required not in methods:
                ctx.report(self, node,
                           f"sampler {node.name} does not define {required}()")
        for mname in ("do_sample", "sample"):
            fn = methods.get(mname)
            if fn is not None:
                self._check_sample_body(fn, ctx)

    def _check_sample_body(self, fn: ast.FunctionDef, ctx) -> None:
        for node in ast.walk(fn):
            if isinstance(node, ast.Dict):
                if any(isinstance(k, ast.Constant) and isinstance(k.value, str)
                       for k in node.keys):
                    ctx.report(self, node,
                               f"literal name->value dict in {fn.name}() — "
                               f"build positional rows (set_values) instead")
            elif isinstance(node, ast.Call):
                self._check_call(node, fn, ctx)

    def _check_call(self, node: ast.Call, fn: ast.FunctionDef, ctx) -> None:
        if _is_self_attr_call(node, "set_value") and node.args:
            arg0 = node.args[0]
            if isinstance(arg0, ast.JoinedStr) or (
                isinstance(arg0, ast.Constant) and isinstance(arg0.value, str)
            ):
                ctx.report(self, node,
                           f"per-sample metric-name resolution in {fn.name}() "
                           f"— resolve indices at config() and use "
                           f"set_values()/integer indices")
        elif (_is_self_attr_call(node, "index_of")
              or _is_self_attr_call(node, "indices_of")):
            ctx.report(self, node,
                       f"name->index resolution in {fn.name}() — "
                       f"resolve once at config()")
        elif (_is_self_attr_call(node, "create_set")
              or (isinstance(node.func, ast.Name)
                  and node.func.id == "create_set")):
            ctx.report(self, node,
                       f"create_set() in {fn.name}() — layout cost must be "
                       f"paid once at config()")
        elif (isinstance(node.func, ast.Name) and node.func.id == "getattr"
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            ctx.report(self, node,
                       f"attribute-string lookup in {fn.name}() — bind the "
                       f"attribute at config()")


@register_rule
class StoreContractRule(Rule):
    """Stores define store(); buffering requires a flush path.

    §IV-A: stores are the pipeline's durability boundary.  A store that
    appends to in-memory state inside ``store()`` without overriding
    ``flush()`` buffers unboundedly and loses everything on a crash —
    the failure mode the paper's CSV/MySQL stores avoid by flushing on
    a cadence.
    """

    rule_id = "store-contract"
    description = "stores: store() required; buffering needs a flush() override"
    paper_ref = "§IV-A/C storage; DESIGN 'System inventory'"
    default_packages = ("repro.plugins.stores",)
    interests = (ast.ClassDef,)

    def visit(self, node: ast.ClassDef, ctx) -> None:
        is_store = (
            _class_has_decorator(node, "register_store", ctx)
            or "StorePlugin" in _class_bases(node)
        )
        if not is_store or node.name == "StorePlugin":
            return
        methods = _methods(node)
        if "store" not in methods:
            ctx.report(self, node,
                       f"store {node.name} does not define store()")
            return
        if "flush" in methods:
            return
        for sub in ast.walk(methods["store"]):
            if (isinstance(sub, ast.Call)
                    and _is_self_attr_call(sub, "append")
                    and isinstance(sub.func.value, ast.Attribute)
                    and isinstance(sub.func.value.value, ast.Name)
                    and sub.func.value.value.id == "self"):
                ctx.report(self, sub,
                           f"{node.name}.store() buffers in memory but the "
                           f"class defines no flush() path")
                return


@register_rule
class ChunkDisciplineRule(Rule):
    """Data-chunk bytes are written only through the MetricSet API.

    §IV-B: every data-chunk write bumps the DGN and runs inside a
    transaction that manages the consistent flag.  A raw
    ``pack_into``/``memoryview`` write anywhere else produces torn data
    that consumers cannot detect.  Only the set/arena/wire layer that
    *implements* the API may touch raw buffers (whitelisted below);
    the runtime half of this rule is ``REPRO_SANITIZE=1``
    (:mod:`repro.core.sanitize`).
    """

    rule_id = "chunk-discipline"
    description = "no raw pack_into/memoryview writes outside the set layer"
    paper_ref = "§IV-B metric set format"
    default_packages = ("repro",)
    default_allowed_modules = (
        "repro.core.metric_set",
        "repro.core.memory",
        "repro.core.wire",
        "repro.core.metric",
        "repro.core.sanitize",
    )
    interests = (ast.Call,)

    def visit(self, node: ast.Call, ctx) -> None:
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "pack_into":
            ctx.report(self, node,
                       "raw pack_into write outside the MetricSet layer — "
                       "go through set_value/set_values so the DGN advances")
        elif isinstance(f, ast.Name) and f.id == "memoryview":
            ctx.report(self, node,
                       "raw memoryview over set storage outside the "
                       "MetricSet layer — use data_view()/set accessors")


@register_rule
class ArenaSweepDisciplineRule(Rule):
    """Arena sweep modules stay columnar: no per-row loops or struct.

    The columnar data plane's whole point is that a sweep touches every
    member row of a block with one numpy fancy-indexed operation
    (``blk.flags[rows] = 0``) and serializes with one ``tobytes()`` per
    block.  A Python ``for`` loop that indexes a header/value column
    one row at a time, or a ``struct.pack`` call, silently reintroduces
    the per-set scalar cost the arena exists to amortize — correctness
    is unaffected, so only the benchmark would catch it.
    """

    rule_id = "arena-sweep-discipline"
    description = "arena sweeps: no per-row column writes or struct.pack"
    paper_ref = "§IV-A collection scaling, §IV-D update coalescing"
    default_packages = ("repro.core.set_arena",)
    interests = (ast.For, ast.Call)

    #: ArenaBlock column views a sweep may only touch via fancy indexing.
    COLUMN_ATTRS = frozenset({"block", "mgn", "dgn", "flags", "ts",
                              "values_mat"})

    def visit(self, node, ctx) -> None:
        if isinstance(node, ast.Call):
            name = ctx.resolve_call(node.func)
            if name in ("struct.pack", "struct.pack_into"):
                ctx.report(self, node,
                           f"{name}() in an arena sweep module — serialize "
                           f"whole blocks with tobytes()/frombuffer")
            return
        # A `for` over a single scalar name that indexes block columns
        # row-by-row.  Group sweeps unpack (block, rows) tuples and
        # fancy-index with the whole rows array, so tuple targets pass.
        target = node.target
        if not isinstance(target, ast.Name):
            return
        if (isinstance(node.iter, ast.Attribute)
                and node.iter.attr in self.COLUMN_ATTRS):
            ctx.report(self, node,
                       f"iterating .{node.iter.attr} rows one at a time — "
                       f"sweep the whole block with a vectorized op")
            return
        for sub in ast.walk(node):
            tgt = None
            if isinstance(sub, (ast.Assign, ast.AugAssign)):
                tgts = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                for t in tgts:
                    if (isinstance(t, ast.Subscript)
                            and isinstance(t.value, ast.Attribute)
                            and t.value.attr in self.COLUMN_ATTRS
                            and any(isinstance(n, ast.Name)
                                    and n.id == target.id
                                    for n in ast.walk(t.slice))):
                        tgt = t
                        break
            if tgt is not None:
                ctx.report(self, tgt,
                           f"per-row write to .{tgt.value.attr} inside a "
                           f"for loop — batch the rows and fancy-index the "
                           f"column once")


@register_rule
class SwallowedExceptRule(Rule):
    """No silent ``except Exception: pass`` in the pipeline layers.

    §IV-E: failures must surface as counters (non-reporting hosts are
    *counted* and bypassed, never silently dropped).  A broad handler
    whose body is only ``pass``/``continue`` erases the failure — at
    minimum it must narrow the type and bump an ``obs`` counter or log.
    """

    rule_id = "swallowed-except"
    description = "broad except with a pass/continue-only body"
    paper_ref = "§IV-E robustness; DESIGN 'Self-instrumentation'"
    default_packages = ("repro.core", "repro.transport")
    interests = (ast.ExceptHandler,)

    _BROAD = ("Exception", "BaseException")

    def _is_broad(self, t: Optional[ast.expr]) -> bool:
        if t is None:
            return True
        if isinstance(t, ast.Name):
            return t.id in self._BROAD
        if isinstance(t, ast.Tuple):
            return any(self._is_broad(e) for e in t.elts)
        return False

    def visit(self, node: ast.ExceptHandler, ctx) -> None:
        if not self._is_broad(node.type):
            return
        if all(isinstance(s, (ast.Pass, ast.Continue)) for s in node.body):
            what = "bare except" if node.type is None else "except Exception"
            ctx.report(self, node,
                       f"{what} silently swallowed — narrow the type and "
                       f"count the failure into the obs registry")


@register_rule
class ControlVerbRegistryRule(Rule):
    """Every control verb has a handler docstring and reference entry.

    §IV-B: ldmsd is configured at runtime over the control channel; the
    verb set *is* the daemon's public API.  Every ``_cmd_<verb>``
    handler must carry a docstring, and the verb must appear in the
    module docstring's command reference so ``ldmsctl`` users can
    discover it.
    """

    rule_id = "control-verb-registry"
    description = "control verbs need handler docstrings + doc reference"
    paper_ref = "§IV-B runtime configuration"
    default_packages = ("repro.core.control",)
    interests = (ast.ClassDef,)

    def visit(self, node: ast.ClassDef, ctx) -> None:
        handlers = {
            name[len("_cmd_"):]: fn
            for name, fn in _methods(node).items()
            if name.startswith("_cmd_")
        }
        if not handlers:
            return
        module_doc = ast.get_docstring(ctx.tree) or ""
        words = set(module_doc.replace("=", " ").replace("(", " ").split())
        for verb, fn in sorted(handlers.items()):
            if not ast.get_docstring(fn):
                ctx.report(self, fn,
                           f"control verb {verb!r}: handler _cmd_{verb} has "
                           f"no docstring")
            if verb not in words:
                ctx.report(self, fn,
                           f"control verb {verb!r} is not documented in the "
                           f"module's command reference")


@register_rule
class NoBlockingIoInHotPathRule(Rule):
    """No blocking I/O or console calls on the per-sample hot path.

    §IV-E: sampler execution sits inside the application's noise
    budget (~0.4 ms for a ~200-metric set).  ``open()``/``print()``/
    ``time.sleep()``/subprocess calls in ``do_sample`` or ``store``
    bodies blow that budget by orders of magnitude; node files are read
    through the daemon's ``fs`` abstraction and stores buffer, opening
    files at config/flush time.
    """

    rule_id = "no-blocking-io-in-hot-path"
    description = "no open/print/sleep/subprocess in per-sample code"
    paper_ref = "§IV-E, §V-A sampler perturbation"
    default_packages = ("repro.core", "repro.plugins")
    interests = (ast.FunctionDef, ast.AsyncFunctionDef)

    #: ``store_many`` is the vectorized flush path — one call covers a
    #: whole flush batch, so a blocking call there stalls every store
    #: record of the wakeup, not just one.
    DEFAULT_HOT = ("do_sample", "store", "store_many")
    BANNED_BARE = frozenset({"open", "print", "input", "breakpoint"})
    BANNED_DOTTED = frozenset({
        "time.sleep",
        "os.system", "os.popen",
        "subprocess.run", "subprocess.call", "subprocess.check_call",
        "subprocess.check_output", "subprocess.Popen",
        "socket.socket", "socket.create_connection",
    })

    def configure(self, options: dict) -> None:
        self.hot_functions = tuple(
            options.pop("hot-functions", self.DEFAULT_HOT)
        )
        super().configure(options)

    def visit(self, node: ast.FunctionDef, ctx) -> None:
        if node.name not in self.hot_functions:
            return
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            name = ctx.resolve_call(sub.func)
            if name is None:
                continue
            if name in self.BANNED_BARE or name in self.BANNED_DOTTED:
                ctx.report(self, sub,
                           f"blocking call {name}() in hot path "
                           f"{node.name}() — hoist to config()/flush() or "
                           f"go through the fs abstraction")


@register_rule
class ObsHotpathDisciplineRule(Rule):
    """Observability instruments stay free on the data-plane hot path.

    The obs plane's CI contract is a <5% overhead bound with every
    instrument live.  That only holds if a record/observe/finish call
    site on the sample/update/flush path never allocates (dict/list/set
    displays, comprehensions) or formats strings (f-strings, ``%``,
    ``.format``) while building its arguments — those costs are paid on
    every event, also when the call drops it.  Expensive arguments are
    legal only behind a handle's ``is not None`` (``SpanRecorder.start``
    returns ``None`` for a transaction that is not an exemplar, so the
    whole block runs one time in 16).
    """

    rule_id = "obs-hotpath-discipline"
    description = ("no allocation/formatting in obs-instrument args on "
                   "hot paths unless behind a handle's is-not-None")
    paper_ref = "§IV-E overhead bound; DESIGN 'Observability plane'"
    default_packages = ("repro.core", "repro.plugins", "repro.transport")
    interests = (ast.FunctionDef, ast.AsyncFunctionDef)

    #: Data-plane functions where every instrument call is per-event.
    DEFAULT_HOT = (
        "do_sample", "store", "store_many",
        "_finish_sample", "_complete_update", "_multi_data",
        "_issue_update", "_issue_update_multi",
        "_flush_rows", "_deliver", "_deliver_staged",
        "_on_traced_read",
    )
    #: Instrument entry points: ``<recv>.record/observe/start/finish``
    #: where the receiver chain names an obs object.
    INSTRUMENT_METHODS = frozenset({"record", "observe", "start", "finish"})
    INSTRUMENT_RECEIVERS = frozenset({
        "spans", "flight", "freshness", "recorder",
    })

    def configure(self, options: dict) -> None:
        self.hot_functions = tuple(
            options.pop("hot-functions", self.DEFAULT_HOT))
        super().configure(options)

    # -- classification ----------------------------------------------------
    def _is_instrument_call(self, call: ast.Call) -> bool:
        f = call.func
        if not (isinstance(f, ast.Attribute)
                and f.attr in self.INSTRUMENT_METHODS):
            return False
        recv = f.value
        # Accept self.flight.record(...), d.spans.record(...),
        # spans.finish(...), fresh.observe(...) — any name/attr in the
        # receiver chain that reads as an obs object.
        while True:
            if isinstance(recv, ast.Attribute):
                if recv.attr in self.INSTRUMENT_RECEIVERS:
                    return True
                recv = recv.value
            elif isinstance(recv, ast.Name):
                return (recv.id in self.INSTRUMENT_RECEIVERS
                        or recv.id in ("fresh", "trace", "span", "fl"))
            else:
                return False

    @staticmethod
    def _expensive_arg(call: ast.Call):
        """First allocating/formatting expression among the arguments."""
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, (ast.Dict, ast.List, ast.Set,
                                    ast.DictComp, ast.ListComp, ast.SetComp,
                                    ast.GeneratorExp, ast.JoinedStr)):
                    return sub
                if (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mod)
                        and isinstance(sub.left, ast.Constant)
                        and isinstance(sub.left.value, str)):
                    return sub
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "format"):
                    return sub
        return None

    @staticmethod
    def _is_handle_guard(test: ast.expr) -> bool:
        """An ``x is not None`` test (possibly inside a BoolOp)."""
        for sub in ast.walk(test):
            if isinstance(sub, ast.Compare) and any(
                isinstance(op, (ast.IsNot, ast.Is))
                and isinstance(cmp, ast.Constant) and cmp.value is None
                for op, cmp in zip(sub.ops, sub.comparators)
            ):
                return True
        return False

    # -- traversal ---------------------------------------------------------
    def _check_stmts(self, stmts, guarded: bool, ctx) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                inner = guarded or self._is_handle_guard(stmt.test)
                self._check_stmts(stmt.body, inner, ctx)
                self._check_stmts(stmt.orelse, guarded, ctx)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested defs are visited in their own right
            for wrap in (ast.For, ast.While, ast.With, ast.Try):
                if isinstance(stmt, wrap):
                    for field_name in ("body", "orelse", "finalbody"):
                        self._check_stmts(getattr(stmt, field_name, []),
                                          guarded, ctx)
                    break
            else:
                if guarded:
                    continue
                for sub in ast.walk(stmt):
                    if (isinstance(sub, ast.Call)
                            and self._is_instrument_call(sub)):
                        bad = self._expensive_arg(sub)
                        if bad is not None:
                            ctx.report(self, sub,
                                       "allocation/formatting in an obs "
                                       "instrument call on the hot path — "
                                       "guard it behind a handle's "
                                       "`is not None` or pass scalars")

    def visit(self, node: ast.FunctionDef, ctx) -> None:
        if node.name not in self.hot_functions:
            return
        self._check_stmts(node.body, False, ctx)


@register_rule
class MutableDefaultArgRule(Rule):
    """No mutable default arguments anywhere in the tree.

    Plugin ``config()`` signatures are long-lived daemon state; a
    shared ``[]``/``{}`` default aliases state across plugin instances
    — across *daemons* in the simulator, breaking run isolation.
    """

    rule_id = "mutable-default-arg"
    description = "mutable default argument ([]/{}/set()/list()/dict())"
    paper_ref = "DESIGN 'Scale realism' (per-daemon isolation)"
    interests = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def visit(self, node, ctx) -> None:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in self._MUTABLE_CALLS
            )
            if bad:
                fname = getattr(node, "name", "<lambda>")
                ctx.report(self, default,
                           f"mutable default argument in {fname}() — "
                           f"default to None and build per call")


# ---------------------------------------------------------------------------
# whole-program contracts (evaluated by repro.analysis.flow)
# ---------------------------------------------------------------------------


class ProgramRule(Rule):
    """Registry entry of a contract the whole-program passes evaluate."""

    whole_program = True


@register_rule
class DesPurityContract(ProgramRule):
    rule_id = "flow-des-purity"
    description = (
        "DES-pure packages must not transitively reach wall-clock, ambient "
        "RNG, or unordered iteration (whole-program, call-chain traced)"
    )
    paper_ref = "§IV-C synchronous sampling; DESIGN 'Scale realism'"


@register_rule
class ClockBoundaryContract(ProgramRule):
    rule_id = "flow-clock-boundary"
    description = (
        "wall-clock reads outside the sanctioned repro.util.timeutil "
        "boundary module"
    )
    paper_ref = "§IV-C synchronous sampling; DESIGN 'Scale realism'"


@register_rule
class AmbientRngContract(ProgramRule):
    rule_id = "flow-ambient-rng"
    description = (
        "direct global-RNG draws (random.*, numpy.random module level, "
        "os.urandom, uuid4) outside the DES-pure packages"
    )
    paper_ref = "§IV-C synchronous sampling; DESIGN 'Scale realism'"


@register_rule
class UnorderedIterationContract(ProgramRule):
    rule_id = "flow-unordered-iteration"
    description = (
        "hash-ordered (set) or OS-ordered (listdir) iteration feeding "
        "ordering in replay-sensitive packages"
    )
    paper_ref = "§IV same-seed byte-identical replay"


@register_rule
class WireConformanceContract(ProgramRule):
    rule_id = "flow-wire-conformance"
    description = (
        "encoder/decoder struct formats, field widths, and flag masks must "
        "agree for every wire message"
    )
    paper_ref = "§IV-B wire protocol"


@register_rule
class MsgtypeCoverageContract(ProgramRule):
    rule_id = "flow-msgtype-coverage"
    description = (
        "every MsgType must be producible and consumable, with REQ/REPLY "
        "pairing intact"
    )
    paper_ref = "§IV-B wire protocol"


@register_rule
class HelloSymmetryContract(ProgramRule):
    rule_id = "flow-hello-symmetry"
    description = (
        "HELLO feature gates must be advertised and consumed symmetrically "
        "across transports"
    )
    paper_ref = "§IV-B transport negotiation"
