"""Where a producer's bytes sit: a ``tracemalloc`` audit of the fan-in knee.

Builds the ``fanin_knee`` topology (N sampler daemons x one 10-metric
``synthetic`` set -> one aggregator over ``sock`` -> ``memory`` store),
runs it to the first stored sample of every producer under
``tracemalloc`` and prints the traced bytes per sampler + producer pair
by source file and by line, then by object type (:func:`by_type`), then
``ru_maxrss``; beside the bytes it
prints the daemons' own arena accounting per pair (``arena_used`` and
``arena_committed`` summed over every daemon's ``stats()``: what the
``-m`` regions reserve, and what of that is backed) and the Python calls
one stored set costs in a steady interval (:func:`calls_per_stored_set`).
The by-file table is the one in DESIGN.md "Footprint";
``tests/test_footprint.py`` gates the slope of the same topology and,
through :func:`count_events`, the calls per stored set and the cost of
each hot path (a sampler tick, a cohort sweep, a flush, a torn update).

    PYTHONPATH=src python benchmarks/audit_footprint.py --producers 1024
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import sys
import tracemalloc
import types

METRICS = 10
INTERVAL = 5.0


def build(n: int):
    """The ledger's ``FaninKnee.setup()`` (identity registration order)."""
    from repro.core import Ldmsd, SimEnv
    from repro.sim.engine import Engine
    from repro.transport.base import get_transport_profile
    from repro.transport.simfabric import SimFabric, SimTransport

    eng = Engine()
    env = SimEnv(eng)
    fabric = SimFabric(eng)
    profile = get_transport_profile("sock")
    samplers = []
    for i in range(n):
        d = Ldmsd(f"n{i}", env=env,
                  transports={"sock": SimTransport(fabric, profile, node_id=i)},
                  mem=max(8 * 1024, 4096 + METRICS * 256),
                  workers=1, conn_threads=1, flush_threads=1)
        d.load_sampler("synthetic", instance=f"n{i}/syn", component_id=i + 1,
                       num_metrics=METRICS,
                       pattern="counter" if i % 2 else "constant")
        d.start_sampler(f"n{i}/syn", interval=INTERVAL)
        d.listen("sock", f"n{i}:411")
        samplers.append(d)
    one = samplers[0].get_set("n0/syn").total_size
    agg = Ldmsd("agg", env=env,
                transports={"sock": SimTransport(fabric, profile, node_id="agg")},
                mem=max(4 * 1024 * 1024, n * max(4096, one + 1024)),
                workers=8, conn_threads=4, flush_threads=2)
    store = agg.add_store("memory")
    for i in range(n):
        agg.add_producer(f"n{i}", "sock", f"n{i}:411", interval=INTERVAL,
                         sets=(f"n{i}/syn",))
    eng.run(until=1.75 * INTERVAL)
    if store.records_stored != n:
        raise SystemExit(f"{store.records_stored} sets stored, expected {n}")
    return samplers, agg


#: Frames Python 3.11 gives a comprehension and Python 3.12 inlines.
_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def count_events(run, events=("call",), repro_only: bool = False,
                 of=None) -> int:
    """Run ``run()`` with garbage collection off and count the
    interpreter events it raises.

    ``"call"`` (a Python frame entered) and ``"c_call"`` (a C function
    called) come from ``sys.setprofile``; ``"line"`` (a line about to
    run) from ``sys.settrace``, and is counted alone.  ``run``'s own
    frame is not counted.  With
    ``repro_only`` only what the ``repro`` package does itself counts:
    a line of its code, a C function it calls, a Python function it
    calls or that calls into it.  Library internals and comprehension
    frames are left out, so neither a numpy upgrade nor Python 3.12's
    inlined comprehensions move the count.  With ``of`` (a Python
    function) only the ``"call"`` events entering it count.
    """
    import repro

    own = os.path.dirname(repro.__file__) + os.sep
    outer = getattr(run, "__code__", None)
    target = of.__code__ if of is not None else None
    n = 0

    def profile(frame, event, _arg) -> None:
        nonlocal n
        if event not in events or frame.f_code is outer:
            return
        if target is not None:
            n += frame.f_code is target
            return
        if repro_only:
            code = frame.f_code
            if event == "call":
                if code.co_name in _COMPREHENSIONS:
                    return
                back = frame.f_back
                if not (code.co_filename.startswith(own) or (
                        back is not None
                        and back.f_code.co_filename.startswith(own))):
                    return
            elif not code.co_filename.startswith(own):
                return
        n += 1

    def trace(frame, event, _arg):
        nonlocal n
        code = frame.f_code
        if event == "line" and code is not outer and (
                not repro_only or code.co_filename.startswith(own)):
            n += 1
        return trace

    hook, install = ((trace, sys.settrace) if "line" in events
                     else (profile, sys.setprofile))
    was_enabled = gc.isenabled()
    gc.disable()
    install(hook)
    try:
        run()
    finally:
        install(None)
        if was_enabled:
            gc.enable()
    return n


def calls_per_stored_set(n: int = 256) -> float:
    """Python function calls per stored set over one steady interval.

    Builds the knee topology at ``n`` producers, then counts the
    ``"call"`` events (Python frames, not C calls) of the next
    collection interval and divides by the rows stored in it.  The
    simulated history is fixed, so the count is exact and the same on
    any host; garbage collection is off so no finalizer adds calls.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _samplers, agg = build(n)
        eng = agg.env.engine
        store = agg.stores[0]
        before = store.records_stored
        calls = count_events(lambda: eng.run(until=eng.now + INTERVAL))
        rows = store.records_stored - before
    finally:
        if was_enabled:
            gc.enable()
    if rows != n:
        raise SystemExit(f"{rows} sets stored in the interval, expected {n}")
    return calls / rows


#: What :func:`by_type` does not descend into: code and modules, which
#: every producer shares.
_SHARED = (type, types.ModuleType, types.FunctionType,
           types.BuiltinFunctionType, types.CodeType)


def by_type(roots) -> dict[str, tuple[int, int]]:
    """``{type name: (objects, bytes)}`` of everything reachable from
    ``roots`` through ``gc.get_referents``, sized by ``sys.getsizeof``
    and not descending into classes, modules, functions or code.

    Unlike ``gc.get_objects()`` this also finds the objects the
    collector does not track (untracked dicts and tuples, strings,
    numbers).  An instance's inline attribute values are not an object,
    so they count nowhere: the total reads a few percent under the
    traced bytes."""
    seen: set[int] = set()
    out: dict[str, tuple[int, int]] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _SHARED):
            continue
        seen.add(id(obj))
        name = type(obj).__name__
        count, size = out.get(name, (0, 0))
        out[name] = (count + 1, size + sys.getsizeof(obj))
        stack.extend(gc.get_referents(obj))
    return out


def _short(path: str) -> str:
    marker = os.sep + "repro" + os.sep
    cut = path.rfind(marker)
    return path[cut + 1:] if cut >= 0 else os.path.basename(path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--producers", type=int, default=1024)
    ap.add_argument("--top", type=int, default=25,
                    help="rows in the by-line table")
    args = ap.parse_args(argv)
    n = args.producers

    import repro.plugins  # noqa: F401  (imports are not a per-producer cost)

    gc.disable()  # as the ledger's setup does: nothing here is garbage
    tracemalloc.start()
    world = build(n)
    snap = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)])
    tracemalloc.stop()
    samplers, agg = world
    stats = [d.stats() for d in (*samplers, agg)]
    arena_used = sum(st["arena_used"] for st in stats)
    arena_committed = sum(st["arena_committed"] for st in stats)

    calls = calls_per_stored_set()

    total = sum(s.size for s in snap.statistics("filename"))
    print(f"producers {n}: {total / 1e6:.2f} MB traced, "
          f"{total / n:,.0f} B per sampler + producer pair")
    print(f"arena per pair (daemons' stats()): {arena_used / n:,.0f} B used, "
          f"{arena_committed / n:,.0f} B committed")
    print(f"Python calls per stored set: {calls:.2f} "
          "(256 producers, one steady interval)")
    print(f"\n{'B/pair':>9}  {'MB':>8}  file")
    for s in snap.statistics("filename")[:20]:
        print(f"{s.size / n:9,.0f}  {s.size / 1e6:8.2f}  "
              f"{_short(s.traceback[0].filename)}")
    print(f"\n{'B/pair':>9}  {'blocks/pair':>11}  line")
    for s in snap.statistics("lineno")[:args.top]:
        fr = s.traceback[0]
        print(f"{s.size / n:9,.0f}  {s.count / n:11.2f}  "
              f"{_short(fr.filename)}:{fr.lineno}")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # By type, per pair: the census of this world less that of a world
    # a quarter its size, so what both share (layouts, caches) cancels.
    small = n // 4
    big, few = by_type(world), by_type(build(small))
    rows = sorted(((big.get(t, (0, 0))[1] - few.get(t, (0, 0))[1],
                    big.get(t, (0, 0))[0] - few.get(t, (0, 0))[0], t)
                   for t in big.keys() | few.keys()), reverse=True)
    print(f"\n{'B/pair':>9}  {'objs/pair':>9}  type (reachable, sys.getsizeof; "
          f"{sum(r[0] for r in rows) / (n - small):,.0f} B/pair in all)")
    for size, count, name in rows[:args.top]:
        print(f"{size / (n - small):9,.0f}  {count / (n - small):9.2f}  {name}")
    print(f"\nru_maxrss {rss:.1f} MB (includes tracemalloc's own tables)")
    del world
    return 0


if __name__ == "__main__":
    sys.exit(main())
