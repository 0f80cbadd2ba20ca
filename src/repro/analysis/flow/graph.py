"""Call-graph construction, effect propagation, and determinism contracts.

Takes the per-module :class:`ModuleSummary` set and builds the
whole-program view:

* **symbol resolution** — dotted names resolved against the module
  table, following package ``__init__`` re-export chains;
* **virtual dispatch** — ``self.m()`` resolved through the MRO plus all
  subclass overrides (class-hierarchy analysis), ``self.attr.m()`` and
  annotated locals/params through inferred attribute/parameter types;
* **registry dispatch** — ``getattr(self, f"_cmd_{verb}")``-style
  f-string dispatch fans out to every matching method, and calls on
  unresolvable receivers whose method name belongs to a configured
  *dispatch root* (``StorePlugin``, ``SamplerPlugin``, ``Endpoint``,
  ``Transport``) fan out to the root and its overrides — this is what
  carries a store plugin's effects up into ``repro.core``;
* **effect propagation** — a worklist fixed-point over reverse edges,
  with per-(function, effect) provenance so violations carry the full
  call chain down to the intrinsic source;
* **contracts** — DES-purity (transitive, frontier-reported), clock
  boundary, direct ambient RNG, unordered-iteration and shard-isolation
  checks.

Boundary modules (``repro.util.timeutil``) are effect-stripped: they
*are* the sanctioned crossing between simulated and host time, so
nothing propagates out of them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.analysis.findings import ChainFrame, Violation
from repro.analysis.flow.catalog import PROPAGATED_EFFECTS, effect_of
from repro.analysis.flow.config import FlowConfig
from repro.analysis.flow.summary import (
    MODULE_BODY,
    EffectSite,
    FunctionInfo,
    ModuleSummary,
)

_MAX_RESOLVE_DEPTH = 8

# provenance: ("site", line, detail) | ("call", line, callee_fq)
Provenance = tuple[str, int, str]


@dataclass
class _Node:
    fq: str
    module: str
    info: FunctionInfo
    intrinsics: list[EffectSite] = field(default_factory=list)


class Program:
    """The resolved whole-program view over a set of module summaries."""

    def __init__(self, summaries: dict[str, ModuleSummary], config: FlowConfig) -> None:
        self.summaries = summaries
        self.config = config
        self.nodes: dict[str, _Node] = {}
        self.classes: dict[str, ModuleSummary] = {}
        self._class_info: dict[str, tuple[str, str]] = {}  # cls_fq -> (module, local name)
        self._children: dict[str, set[str]] = {}
        self._method_defs: dict[tuple[str, str], str] = {}  # (cls_fq, method) -> fn_fq
        self.edges: dict[str, dict[str, int]] = {}  # caller -> callee -> first line
        self.effects: dict[str, dict[str, Provenance]] = {}
        self._root_methods: dict[str, list[str]] = {}  # method name -> [cls_fq]
        self.stats: dict[str, int] = {}

    # ------------------------------------------------------------------
    # indexing

    def build(self) -> None:
        for module, summary in self.summaries.items():
            for local_name, info in summary.functions.items():
                fq = f"{module}.{local_name}"
                self.nodes[fq] = _Node(fq=fq, module=module, info=info)
            for cname, cinfo in summary.classes.items():
                cls_fq = f"{module}.{cname}"
                self._class_info[cls_fq] = (module, cname)
                for m in cinfo.methods:
                    self._method_defs[(cls_fq, m)] = f"{module}.{cname}.{m}"
        for cls_fq in self._class_info:
            for base_fq in self._resolved_bases(cls_fq):
                self._children.setdefault(base_fq, set()).add(cls_fq)
        for root in self.config.dispatch_roots:
            cinfo = self._cinfo(root)
            if cinfo is None:
                continue
            for m in cinfo.methods:
                self._root_methods.setdefault(m, []).append(root)
        for fq, node in self.nodes.items():
            self._build_edges(node)
        self.stats["flow_functions"] = len(self.nodes)
        self.stats["flow_edges"] = sum(len(v) for v in self.edges.values())
        self.stats["flow_classes"] = len(self._class_info)

    def _cinfo(self, cls_fq: str):
        entry = self._class_info.get(cls_fq)
        if entry is None:
            return None
        module, cname = entry
        return self.summaries[module].classes[cname]

    def _resolved_bases(self, cls_fq: str) -> list[str]:
        cinfo = self._cinfo(cls_fq)
        if cinfo is None:
            return []
        module = self._class_info[cls_fq][0]
        out: list[str] = []
        for base in cinfo.bases:
            resolved = self._resolve_type(module, base)
            if resolved is not None:
                out.append(resolved)
        return out

    def _mro(self, cls_fq: str) -> list[str]:
        """Linearized-enough base walk (BFS, cycle-guarded)."""
        seen: list[str] = []
        queue = deque([cls_fq])
        visited = {cls_fq}
        while queue:
            cur = queue.popleft()
            seen.append(cur)
            for base in self._resolved_bases(cur):
                if base not in visited:
                    visited.add(base)
                    queue.append(base)
        return seen

    def _descendants(self, cls_fq: str) -> set[str]:
        out: set[str] = set()
        queue = deque([cls_fq])
        while queue:
            cur = queue.popleft()
            for child in self._children.get(cur, ()):
                if child not in out:
                    out.add(child)
                    queue.append(child)
        return out

    def _find_method(self, cls_fq: str, method: str) -> str | None:
        for cls in self._mro(cls_fq):
            fn = self._method_defs.get((cls, method))
            if fn is not None:
                return fn
        return None

    def _attr_type(self, cls_fq: str, attr: str) -> str | None:
        for cls in self._mro(cls_fq):
            cinfo = self._cinfo(cls)
            if cinfo is not None and attr in cinfo.attr_types:
                t = cinfo.attr_types[attr]
                module = self._class_info[cls][0]
                return self._resolve_type(module, t)
        return None

    def _resolve_type(self, module: str, type_name: str) -> str | None:
        """Resolve a summary type string to a known class fq (or None)."""
        if type_name.startswith("builtins."):
            return None
        if type_name.startswith("self."):
            return None  # resolved by callers that know the class
        hit = self._resolve_symbol(type_name)
        if hit is not None and hit[0] == "class":
            return hit[1]
        if "." not in type_name:
            local = f"{module}.{type_name}"
            if local in self._class_info:
                return local
        return None

    def _resolve_symbol(self, dotted: str, depth: int = 0) -> tuple[str, str] | None:
        """Resolve a dotted name to ("function"|"class"|"method", fq)."""
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            module = ".".join(parts[:i])
            summary = self.summaries.get(module)
            if summary is None:
                continue
            rest = parts[i:]
            if not rest:
                return None
            name = rest[0]
            if len(rest) == 1:
                if name in summary.functions:
                    return ("function", f"{module}.{name}")
                if name in summary.classes:
                    return ("class", f"{module}.{name}")
            elif len(rest) == 2 and rest[0] in summary.classes:
                hit = self._find_method(f"{module}.{rest[0]}", rest[1])
                if hit is not None:
                    return ("method", hit)
            if name in summary.imports:
                target = summary.imports[name]
                if len(rest) > 1:
                    target = f"{target}.{'.'.join(rest[1:])}"
                return self._resolve_symbol(target, depth + 1)
            return None
        return None

    # ------------------------------------------------------------------
    # edges

    def _add_edge(self, caller: str, callee: str, line: int) -> None:
        if callee == caller:
            return
        self.edges.setdefault(caller, {}).setdefault(callee, line)

    def _virtual_targets(self, cls_fq: str, method: str) -> list[str]:
        targets: list[str] = []
        base_hit = self._find_method(cls_fq, method)
        if base_hit is not None:
            targets.append(base_hit)
        for sub in sorted(self._descendants(cls_fq)):
            own = self._method_defs.get((sub, method))
            if own is not None:
                targets.append(own)
        return targets

    def _build_edges(self, node: _Node) -> None:
        info = node.info
        module = node.module
        cls_fq = f"{module}.{info.cls}" if info.cls else None
        cinfo = self._cinfo(cls_fq) if cls_fq else None
        if cinfo is not None:
            bare = info.name.split(".")[-1]
            for method, prefix in cinfo.prefix_dispatch:
                if method != bare:
                    continue
                for (owner, m), fn_fq in self._method_defs.items():
                    if m.startswith(prefix) and (
                        owner == cls_fq or owner in self._descendants(cls_fq or "")
                    ):
                        self._add_edge(node.fq, fn_fq, info.line)

        for site in info.calls:
            targets = self._resolve_call_site(node, cls_fq, site.name)
            if targets:
                for t in targets:
                    self._add_edge(node.fq, t, site.line)
            elif not site.is_ref:
                eff = effect_of(site.name)
                if eff is not None:
                    if eff == "unordered_iteration" and site.sanctioned:
                        continue
                    node.intrinsics.append(
                        EffectSite(eff, site.line, f"calls {site.name}()")
                    )
            else:
                eff = effect_of(site.name)
                if eff is not None and eff != "unordered_iteration":
                    node.intrinsics.append(
                        EffectSite(eff, site.line, f"passes {site.name} as a callback")
                    )

    def _resolve_call_site(
        self, node: _Node, cls_fq: str | None, name: str
    ) -> list[str]:
        parts = name.split(".")
        head = parts[0]
        if head in ("self", "cls") and cls_fq is not None:
            if len(parts) == 2:
                return self._virtual_targets(cls_fq, parts[1])
            if len(parts) >= 3:
                attr_t = self._attr_type(cls_fq, parts[1])
                if attr_t is not None and len(parts) == 3:
                    return self._virtual_targets(attr_t, parts[2])
                return []
            return []
        if head == "super" and cls_fq is not None and len(parts) == 2:
            for base in self._resolved_bases(cls_fq):
                hit = self._find_method(base, parts[1])
                if hit is not None:
                    return [hit]
            return []
        local_t = node.info.local_types.get(head)
        if local_t is not None:
            resolved_t: str | None
            if local_t.startswith("self.") and cls_fq is not None:
                resolved_t = self._attr_type(cls_fq, local_t.split(".")[1])
            else:
                resolved_t = self._resolve_type(node.module, local_t)
            if resolved_t is not None and len(parts) == 2:
                return self._virtual_targets(resolved_t, parts[1])
            if resolved_t is not None and len(parts) == 1:
                # calling a typed local — it's a value, not a function
                return []
            if local_t.startswith("builtins."):
                return []
        hit = self._resolve_symbol(name)
        if hit is not None:
            kind, fq = hit
            if kind == "function" or kind == "method":
                return [fq]
            if kind == "class":
                init = self._find_method(fq, "__init__")
                return [init] if init is not None else []
        # unresolved receiver: interface dispatch through configured roots
        if len(parts) == 2 and parts[1] in self._root_methods:
            out: list[str] = []
            for root in self._root_methods[parts[1]]:
                out.extend(self._virtual_targets(root, parts[1]))
            return out
        return []

    # ------------------------------------------------------------------
    # propagation

    def propagate(self) -> None:
        reverse: dict[str, list[str]] = {}
        for caller, callees in self.edges.items():
            for callee in callees:
                reverse.setdefault(callee, []).append(caller)

        worklist: deque[str] = deque()
        for fq, node in self.nodes.items():
            if self.config.is_boundary(node.module):
                self.effects[fq] = {}
                continue
            table: dict[str, Provenance] = {}
            for site in list(node.info.effects) + node.intrinsics:
                if site.effect not in table:
                    table[site.effect] = ("site", site.line, site.detail)
            self.effects[fq] = table
            if table:
                worklist.append(fq)

        while worklist:
            callee = worklist.popleft()
            callee_effects = self.effects.get(callee, {})
            for caller in reverse.get(callee, ()):
                caller_node = self.nodes.get(caller)
                if caller_node is None or self.config.is_boundary(caller_node.module):
                    continue
                table = self.effects.setdefault(caller, {})
                changed = False
                line = self.edges[caller][callee]
                for eff in callee_effects:
                    if eff in PROPAGATED_EFFECTS and eff not in table:
                        table[eff] = ("call", line, callee)
                        changed = True
                if changed:
                    worklist.append(caller)

    def chain(self, fq: str, effect: str) -> list[ChainFrame]:
        """Reconstruct the provenance chain from ``fq`` to the source."""
        frames: list[ChainFrame] = []
        cur = fq
        seen: set[str] = set()
        while cur not in seen:
            seen.add(cur)
            node = self.nodes.get(cur)
            prov = self.effects.get(cur, {}).get(effect)
            if node is None or prov is None:
                break
            kind, line, detail = prov
            func = _display_name(node)
            if kind == "site":
                frames.append(
                    ChainFrame(self.summaries[node.module].path, line, func, detail)
                )
                break
            callee_node = self.nodes.get(detail)
            callee_name = _display_name(callee_node) if callee_node else detail
            frames.append(
                ChainFrame(
                    self.summaries[node.module].path, line, func, f"calls {callee_name}"
                )
            )
            cur = detail
        return frames

    # ------------------------------------------------------------------
    # contracts

    def _in_scope(self, module: str) -> bool:
        return self.config.in_des_pure(module) and not self.config.is_boundary(module)

    def contract_violations(self) -> list[Violation]:
        out: list[Violation] = []
        forbidden = set(self.config.forbidden_effects)
        boundary = ", ".join(self.config.boundary_modules) or "a configured boundary module"
        for fq in sorted(self.nodes):
            node = self.nodes[fq]
            path = self.summaries[node.module].path
            intrinsics = list(node.info.effects) + node.intrinsics
            if self._in_scope(node.module):
                out.extend(self._des_purity_for(fq, node, path, forbidden, intrinsics))
                continue
            name = _display_name(node)
            if not self.config.is_boundary(node.module):
                # Direct host-clock / ambient-RNG calls outside the
                # DES-pure packages, where no transitive contract looks.
                for site in intrinsics:
                    if site.effect == "wall_clock":
                        out.append(Violation(
                            path, site.line, 0, "flow-clock-boundary",
                            f"{name} {site.detail}; wall-clock reads must route "
                            f"through {boundary}",
                        ))
                    elif site.effect == "ambient_rng":
                        out.append(Violation(
                            path, site.line, 0, "flow-ambient-rng",
                            f"{name} {site.detail}; draw from an injected "
                            f"numpy.random.Generator (repro.util.spawn_rng)",
                        ))
            if self.config.in_ordered(node.module):
                for site in intrinsics:
                    if site.effect == "unordered_iteration":
                        out.append(Violation(
                            path, site.line, 0, "flow-unordered-iteration",
                            f"{name} {site.detail}",
                        ))
        out.extend(self.shard_isolation_violations())
        return out

    def shard_isolation_violations(self) -> list[Violation]:
        """The shard-isolation contract: nothing reachable from a shard
        worker entry point may mutate module-level state outside the
        shard-allowed modules.

        Shard workers are forked; every module-level object they inherit
        is a private copy, so a mutation of one that is *not* part of
        the shard plane itself is a latent divergence — single-process
        runs see the accumulated state, sharded runs see per-process
        copies, and the byte-identity gate breaks in ways that only
        reproduce under ``REPRO_SHARDS``.  Reported with the call chain
        from the entry point down to the mutation site.
        """
        out: list[Violation] = []
        flagged: set[tuple[str, int]] = set()
        for entry in self.config.shard_entry_points:
            fq = entry if entry in self.nodes else None
            if fq is None:
                hit = self._resolve_symbol(entry)
                if hit is not None and hit[0] in ("function", "method"):
                    fq = hit[1]
            if fq is None:
                continue
            parents: dict[str, tuple[str, int] | None] = {fq: None}
            queue = deque([fq])
            while queue:
                cur = queue.popleft()
                node = self.nodes[cur]
                if not self.config.in_shard_allowed(node.module):
                    for site in list(node.info.effects) + node.intrinsics:
                        if site.effect != "global_mutation":
                            continue
                        if (cur, site.line) in flagged:
                            continue
                        flagged.add((cur, site.line))
                        path = self.summaries[node.module].path
                        out.append(Violation(
                            path, site.line, 0, "flow-shard-isolation",
                            f"{_display_name(node)} is reachable from "
                            f"shard entry point {entry} and mutates "
                            f"module-level state outside the "
                            f"shard-allowed modules",
                            chain=self._shard_chain(parents, cur, site),
                        ))
                for callee in sorted(self.edges.get(cur, {})):
                    if callee in parents or callee not in self.nodes:
                        continue
                    parents[callee] = (cur, self.edges[cur][callee])
                    queue.append(callee)
        return out

    def _shard_chain(
        self,
        parents: dict[str, tuple[str, int] | None],
        fq: str,
        site: EffectSite,
    ) -> list[ChainFrame]:
        """Entry-point-to-mutation-site frames from the BFS parent map."""
        order = [fq]
        cur = fq
        while parents.get(cur) is not None:
            cur = parents[cur][0]  # type: ignore[index]
            order.append(cur)
        order.reverse()  # entry point first
        frames: list[ChainFrame] = []
        for a, b in zip(order, order[1:]):
            a_node = self.nodes[a]
            frames.append(
                ChainFrame(
                    self.summaries[a_node.module].path,
                    parents[b][1],  # type: ignore[index]
                    _display_name(a_node),
                    f"calls {_display_name(self.nodes[b])}",
                )
            )
        node = self.nodes[fq]
        frames.append(
            ChainFrame(
                self.summaries[node.module].path,
                site.line,
                _display_name(node),
                site.detail,
            )
        )
        return frames

    def _des_purity_for(
        self,
        fq: str,
        node: _Node,
        path: str,
        forbidden: set[str],
        intrinsics: list[EffectSite],
    ) -> list[Violation]:
        """Frontier-only reporting: flag ``fq`` only for effect
        contributions that *enter* DES-pure scope here — either an
        intrinsic site in this body, or a call edge whose callee is
        outside the scope.  Purely-inherited effects from in-scope
        callees are reported at the deeper frontier instead, so a dirty
        leaf produces one traced violation per site, not one per caller."""
        out: list[Violation] = []
        my_effects = self.effects.get(fq, {})
        for eff in sorted(forbidden & set(my_effects)):
            contributions: list[tuple[int, list[ChainFrame]]] = []
            for site in intrinsics:
                if site.effect == eff:
                    contributions.append(
                        (site.line, [ChainFrame(path, site.line, _display_name(node), site.detail)])
                    )
            for callee, line in self.edges.get(fq, {}).items():
                callee_node = self.nodes.get(callee)
                if callee_node is None:
                    continue
                if eff not in self.effects.get(callee, {}):
                    continue
                if self._in_scope(callee_node.module):
                    continue  # the in-scope callee is its own frontier
                chain = [
                    ChainFrame(
                        path, line, _display_name(node), f"calls {_display_name(callee_node)}"
                    )
                ] + self.chain(callee, eff)
                contributions.append((line, chain))
            if not contributions:
                continue  # inherited via in-scope callees; reported deeper
            pkg = next(
                p
                for p in self.config.des_pure_packages
                if node.module == p or node.module.startswith(p + ".")
            )
            for line, chain in sorted(contributions, key=lambda c: c[0]):
                out.append(Violation(
                    path, line, 0, "flow-des-purity",
                    f"{_display_name(node)} (in DES-pure package {pkg}) "
                    f"transitively reaches forbidden effect '{eff}'",
                    chain=chain,
                ))
        return out


def _display_name(node: _Node | None) -> str:
    if node is None:
        return "?"
    if node.info.name == MODULE_BODY:
        return f"{node.module} (module body)"
    return f"{node.module}.{node.info.name}"
