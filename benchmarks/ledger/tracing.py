"""Outside-in span tracing for the ledger's traced pass.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces *public* entry points of each layer with wrappers that open a
span (layer, start, end, parent) around the call:

* the scheduling calls — ``Engine.call_later`` (``call_at`` goes through
  it), ``Engine.schedule_periodic``, ``RealEnv.call_later``,
  ``Env.call_every`` and every ``WorkerPool.submit`` — wrap the callable
  they are handed, so every scheduled callable runs in a span named by
  the module that defines it;
* callables that cross a layer boundary as arguments or attributes —
  ``rdma_read``/``rdma_read_multi`` completions and
  ``Endpoint.on_message`` — are wrapped the same way;
* the public layer calls patched at the end of :meth:`Tracer.install`
  run in a span of the layer that owns them.

Spans live on per-thread stacks.  A layer's *self* time is its spans'
duration minus the part their child spans cover, accumulated per thread
as spans close; shares are self time over the sum of all layers' self
time, so they sum to 1.  Raw spans are kept in memory up to a cap per
thread and written out by :meth:`Tracer.dump`; the aggregates cover
every span.

What the rule cannot see: work that reaches the engine's dispatch loop
without crossing a wrapped public call (cohort ``_finish`` items and
pool tasks pushed with ``Engine._push``) is self time of ``sim.engine``;
cross-module calls to underscore methods (``Ldmsd._deliver_to_stores``
from the aggregator) stay with the caller's layer.  Splitting those
needs spans inside the program.
"""

from __future__ import annotations

import functools
import json
import threading
import time

__all__ = ["LAYERS", "Tracer"]

#: Layers of the ledger, by module path under ``repro``.  ``other`` is
#: everything else a span can name: the load generators
#: (``query.clients``), the benchmark's own probes, and library modules.
LAYERS = (
    "sim.engine", "core.env", "plugins.samplers", "core.metric_set",
    "core.set_arena", "core.wire", "transport.simfabric", "transport.sock",
    "core.aggregator", "core.ldmsd", "core.store", "plugins.stores",
    "query.engine", "other",
)
_INDEX = {name: i for i, name in enumerate(LAYERS)}
_OTHER = _INDEX["other"]
#: Modules folded into a neighbouring layer.
_ALIASES = {"core.sampler": "plugins.samplers"}

#: Raw spans kept per thread (the aggregates are never capped).
SPAN_CAP = 20_000

_now_ns = time.perf_counter_ns


def _layer_of_module(module: str | None) -> int:
    if not module or not module.startswith("repro."):
        return _OTHER
    name = module[len("repro."):]
    parts = name.split(".")
    if parts[0] == "plugins":
        name = ".".join(parts[:2])
    name = _ALIASES.get(name, name)
    return _INDEX.get(name, _OTHER)


class _ThreadState:
    __slots__ = ("stack", "self_ns", "calls", "spans", "next_id")

    def __init__(self) -> None:
        #: alternating (span id, child ns) pairs of the open spans
        self.stack: list[int] = []
        self.self_ns = [0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.spans: list[tuple] = []
        self.next_id = 0


class Tracer:
    def __init__(self) -> None:
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patched: list[tuple] = []
        self._module_layer: dict = {}

    # -- span machinery ----------------------------------------------------
    def _state(self) -> _ThreadState:
        st = _ThreadState()
        self._tls.st = st
        with self._states_lock:
            self._states.append(st)
        return st

    def span(self, layer: int, fn):
        """``fn`` wrapped to run inside a span of ``layer``."""
        tls = self._tls
        new_state = self._state

        def traced(*args, **kwargs):
            try:
                st = tls.st
            except AttributeError:
                st = new_state()
            stack = st.stack
            sid = st.next_id
            st.next_id = sid + 1
            parent = stack[-2] if stack else -1
            stack.append(sid)
            stack.append(0)
            t0 = _now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now_ns()
                child = stack.pop()
                stack.pop()
                dur = t1 - t0
                st.self_ns[layer] += dur - child
                st.calls[layer] += 1
                if stack:
                    stack[-1] += dur
                if len(st.spans) < SPAN_CAP:
                    st.spans.append((layer, t0, t1, sid, parent))

        return traced

    def _layer_of(self, fn) -> int:
        while isinstance(fn, functools.partial):
            fn = fn.func
        module = getattr(fn, "__module__", None)
        layer = self._module_layer.get(module)
        if layer is None:
            layer = self._module_layer[module] = _layer_of_module(module)
        return layer

    def callable_span(self, fn):
        """Wrap a callable handed across a layer boundary in a span named
        by its defining module (``None`` passes through)."""
        if fn is None:
            return fn
        return self.span(self._layer_of(fn), fn)

    # -- patching ------------------------------------------------------------
    def _patch(self, owner, name: str, new) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _patch_method(self, cls, name: str, layer: int | None = None) -> None:
        """Span around ``cls.name`` where ``cls`` itself defines it."""
        orig = cls.__dict__.get(name)
        if orig is None:
            return
        if layer is None:
            layer = _layer_of_module(cls.__module__)
        if isinstance(orig, classmethod):
            self._patch(cls, name, classmethod(self.span(layer, orig.__func__)))
        else:
            self._patch(cls, name, self.span(layer, orig))

    def install(self) -> None:
        import repro.plugins  # noqa: F401  (fills the plugin registries)
        from repro.core import wire
        from repro.core.env import Env, RealEnv, WorkerPool
        from repro.core.metric_set import MetricSet
        from repro.core.sampler import SamplerPlugin, sampler_registry
        from repro.core.store import StorePlugin, StoreRecord, store_registry
        from repro.query.engine import QueryEngine
        from repro.sim.engine import Engine
        from repro.transport.base import Endpoint

        wrap = self.callable_span

        # Scheduling calls: the callable runs in its own layer's span.
        def schedule_wrapper(orig):
            @functools.wraps(orig)
            def schedule(self_, when, fn, *args, **kwargs):
                return orig(self_, when, wrap(fn), *args, **kwargs)
            return schedule

        for cls, name in ((Engine, "call_later"), (Engine, "schedule_periodic"),
                          (RealEnv, "call_later"), (Env, "call_every")):
            self._patch(cls, name, schedule_wrapper(cls.__dict__[name]))

        def submit_wrapper(orig):
            @functools.wraps(orig)
            def submit(self_, fn, cost=0.0, core=None, tag="ldmsd",
                       on_start=None):
                if callable(cost):  # lazy cost: seals a batch, runs a query
                    cost = wrap(cost)
                return orig(self_, wrap(fn), cost, core, tag, wrap(on_start))
            return submit

        for cls in _subclasses(WorkerPool):
            if "submit" in cls.__dict__:
                self._patch(cls, "submit", submit_wrapper(cls.__dict__["submit"]))

        # Transport verbs, with their completion callbacks handed back.
        def read_wrapper(orig, layer):
            inner = self.span(layer, orig)

            @functools.wraps(orig)
            def read(self_, regions, on_complete, trace=None):
                return inner(self_, regions, wrap(on_complete), trace)
            return read

        for cls in _subclasses(Endpoint):
            layer = _layer_of_module(cls.__module__)
            self._patch_method(cls, "send", layer)
            for name in ("rdma_read", "rdma_read_multi"):
                if name in cls.__dict__:
                    self._patch(cls, name,
                                read_wrapper(cls.__dict__[name], layer))

        # Endpoint.on_message is a public attribute owners assign; a
        # class-level property wraps whatever they install.
        def get_on_message(ep):
            return ep.__dict__.get("_ledger_on_message")

        def set_on_message(ep, fn):
            ep.__dict__["_ledger_on_message"] = wrap(fn)

        self._patched.append((Endpoint, "on_message", None))
        Endpoint.on_message = property(get_on_message, set_on_message)

        # Public layer calls.
        self._patch_method(Engine, "run")
        for name in ("set_all", "set_values", "data_bytes", "apply_data",
                     "values_tuple", "peek_data_header"):
            self._patch_method(MetricSet, name)
        wire_layer = _INDEX["core.wire"]
        for name, fn in list(vars(wire).items()):
            if (not name.startswith("_") and callable(fn)
                    and getattr(fn, "__module__", None) == wire.__name__
                    and not isinstance(fn, type)):
                self._patch(wire, name, self.span(wire_layer, fn))
        self._patch_method(wire.FrameDecoder, "feed")
        self._patch_method(StoreRecord, "from_set")
        for name in ("submit", "submit_many"):
            self._patch_method(StorePlugin, name)
        for cls in sorted(set(store_registry.values()), key=lambda c: c.__name__):
            for name in ("store", "store_many", "flush"):
                self._patch_method(cls, name)
        self._patch_method(QueryEngine, "query")
        for name in ("begin_sample", "finish_sample"):
            self._patch_method(SamplerPlugin, name)
        for cls in sorted(set(sampler_registry.values()), key=lambda c: c.__name__):
            for name in ("do_sample", "cohort_row", "cohort_advance"):
                self._patch_method(cls, name)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patched):
            if orig is None:
                delattr(owner, name)
            else:
                setattr(owner, name, orig)
        self._patched.clear()

    # -- results ---------------------------------------------------------------
    def reset(self) -> None:
        """Zero the aggregates (open spans stay open: a span straddling
        the reset is counted whole)."""
        with self._states_lock:
            for st in self._states:
                st.self_ns = [0] * len(LAYERS)
                st.calls = [0] * len(LAYERS)
                del st.spans[:]

    def totals(self) -> tuple[list[int], list[int]]:
        """(self ns, span count) per layer, summed over threads."""
        self_ns = [0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        with self._states_lock:
            for st in self._states:
                for i in range(len(LAYERS)):
                    self_ns[i] += st.self_ns[i]
                    calls[i] += st.calls[i]
        return self_ns, calls

    def shares(self) -> dict[str, float]:
        self_ns, _calls = self.totals()
        total = sum(self_ns)
        return {name: (self_ns[i] / total if total else 0.0)
                for i, name in enumerate(LAYERS)}

    def dump(self, path: str, run_id: str) -> None:
        """Write aggregates and the kept raw spans as JSON."""
        self_ns, calls = self.totals()
        with self._states_lock:
            threads = [list(st.spans) for st in self._states]
        doc = {
            "run_id": run_id,
            "layers": list(LAYERS),
            "self_ns": self_ns,
            "spans_closed": calls,
            "span_fields": ["layer", "start_ns", "end_ns", "id", "parent"],
            "span_cap_per_thread": SPAN_CAP,
            "threads": threads,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def _subclasses(cls) -> list:
    """Every (transitive) subclass, in a deterministic order."""
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return sorted(out, key=lambda c: (c.__module__, c.__qualname__))
