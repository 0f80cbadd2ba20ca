#!/usr/bin/env python
"""CI: where each unit of work spends its Python, by ``repro`` module.

The DES history is fixed, so the Python work one unit costs is a pure
function of the code: this ledger counts it exactly, on any host, with
:func:`audit_footprint.count_events` (garbage collection off,
comprehension frames left out, only ``repro`` frames and the calls they
make).  Per unit and per ``repro`` module it records Python calls
(``calls``), C calls (``c_calls``) and ``repro`` lines (``lines``),
plus their totals.  The units are the ones ``tests/test_footprint.py``
gates, and the totals equal what those gates measure:

* ``stored_set`` — one stored set at the fan-in knee topology (256
  producers, one steady interval), per set; ``python_calls`` is every
  Python frame per set (the ``CALLS_PER_SET`` measure);
* ``tick.<sampler>`` — one steady ``do_sample`` of each shipped sampler
  (``calls + c_calls`` is the ``CALLS_PER_TICK`` measure);
* ``cohort_member`` — the ``repro`` lines one more member adds to a
  cohort sweep's finish (``LINES_PER_COHORT_MEMBER``);
* ``flush_batch.rows1`` / ``.rows2`` — a non-exemplar store flush of one
  and of two rows at 32 producers (``FLUSH_CALLS_PER_*``);
* ``torn_update`` — one torn update's completion (``TORN_UPDATE_CALLS``);
* ``self_read`` — one ``ldmsd_self`` sample on the knee aggregator (256
  producers, after one steady interval): a read of the daemon's health
  at fan-in scale.

A change that moves a count shows as a diff of the committed
``BENCH_costs.json``: the module whose row moved is the layer it
changed.  The run rewrites the file when every count equals the
committed one; otherwise it leaves it alone, writes
``BENCH_costs.new.json`` beside it and exits 1 (``BENCH_COSTS_OUT=...``
writes elsewhere).  The counts hold for the CPython version the file
names (3.11, as CI runs it).

    PYTHONPATH=src python benchmarks/check_costs.py      # ~1 s
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import audit_footprint as audit  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_PATH = os.environ.get("BENCH_COSTS_OUT",
                          os.path.join(ROOT, "BENCH_costs.json"))
EVENTS = (("calls", ("call",)), ("c_calls", ("c_call",)),
          ("lines", ("line",)))


def _table(count) -> dict:
    """``count(events, per_module)`` for each kind of event, as
    ``{"modules": {module: {kind: n}}, "total": {kind: n}}``."""
    modules: dict[str, dict] = {}
    total = {}
    for kind, events in EVENTS:
        per: dict[str, int] = {}
        total[kind] = count(events, per)
        for module, n in per.items():
            modules.setdefault(module, {})[kind] = n
    return {"modules": dict(sorted(modules.items())), "total": total}


def _scaled(table: dict, by: float) -> dict:
    def scale(counts: dict) -> dict:
        return {k: round(v / by, 4) for k, v in counts.items()}
    return {"modules": {m: scale(c) for m, c in table["modules"].items()},
            "total": scale(table["total"])}


def stored_set(n: int = 256) -> dict:
    out = _scaled(_table(lambda events, per: audit.calls_per_stored_set(
        n, events, repro_only=True, per_module=per) * n), n)
    out["python_calls"] = round(audit.calls_per_stored_set(n), 4)
    return out


def sampler_ticks() -> dict:
    import repro.plugins  # noqa: F401  (registers plugins)
    from repro.core import Ldmsd, SimEnv
    from repro.core.sampler import sampler_registry
    from repro.nodefs import GpcdrModel, HostModel
    from repro.sim import Engine
    from repro.transport import SimFabric, SimTransport

    clock = {"t": 0.0}
    host = HostModel("n0", clock=lambda: clock["t"], seed=2)
    GpcdrModel(clock=lambda: clock["t"], fs=host.fs)
    eng = Engine()
    d = Ldmsd("n0", env=SimEnv(eng), fs=host.fs,
              transports={"rdma": SimTransport(SimFabric(eng), "rdma")})
    out = {}
    for name in sorted(n for n, cls in sampler_registry.items()
                       if cls.__module__.startswith("repro.plugins.")):
        p = d.load_sampler(name, instance=f"n0/{name}", component_id=1)
        for t in (1.0, 2.0):  # the first ticks fill lazy caches
            clock["t"] = t
            p.do_sample(t)
        ticks = iter((3.0, 4.0, 5.0))

        def count(events, per, p=p):
            t = clock["t"] = next(ticks)
            return audit.count_events(lambda: p.do_sample(t), events,
                                      repro_only=True, per_module=per)
        out[f"tick.{name}"] = _table(count)
    return out


def _knee_calls(n: int, cls, method: str, events, per: dict | None,
                pick=lambda args: True) -> int:
    """Count ``events`` in the first ``cls.method`` call of the next
    interval of the knee at ``n`` producers whose args ``pick`` takes,
    no update traced as an exemplar."""
    _samplers, agg = audit.build(n)
    agg.spans.sample_every = 1 << 30
    real = getattr(cls, method)
    seen: list[int] = []

    def counted(self, *args):
        if not seen and pick(args):
            seen.append(audit.count_events(lambda: real(self, *args), events,
                                           repro_only=True, per_module=per))
        else:
            real(self, *args)

    setattr(cls, method, counted)
    try:
        eng = agg.env.engine
        eng.run(until=eng.now + audit.INTERVAL)
    finally:
        setattr(cls, method, real)
    return seen[0]


def cohort_member() -> dict:
    from repro.core.set_arena import SampleCohort

    def count(events, per):
        # Two cohorts of n / 2: 8 more members from 16 to 32 producers.
        small: dict[str, int] = {}
        lo = _knee_calls(16, SampleCohort, "_finish", events, small)
        hi = _knee_calls(32, SampleCohort, "_finish", events, per)
        for module, k in small.items():
            per[module] = per.get(module, 0) - k
        return hi - lo
    table = _table(count)
    for counts in table["modules"].values():
        for kind in counts:
            counts[kind] = counts[kind] / 8
    table["total"] = {k: v / 8 for k, v in table["total"].items()}
    return table


def flush_batches() -> dict:
    from repro.core import Ldmsd

    def batch(rows: int):
        return lambda events, per: _knee_calls(
            32, Ldmsd, "_flush_rows", events, per,
            lambda args: len(args[1]) == rows
            and all(r.span is None for r in args[1]))
    return {f"flush_batch.rows{k}": _table(batch(k)) for k in (1, 2)}


def torn_update() -> dict:
    def count(events, per):
        _samplers, agg = audit.build(8)
        prod = agg.producers["n0"]
        upd = prod.updaters["n0/syn"]
        header = bytearray(upd.mirror.data_bytes())
        header[12] = 0  # consistent flag, after the MGN and DGN
        torn, now = bytes(header), agg.env.engine.now
        return audit.count_events(
            lambda: prod._complete_update(upd, torn, now), events,
            repro_only=True, per_module=per)
    return {"torn_update": _table(count)}


def self_read(n: int = 256) -> dict:
    _samplers, agg = audit.build(n)
    plugin = agg.load_sampler("ldmsd_self", instance="agg/self",
                              component_id=n + 1)
    now = agg.env.engine.now
    plugin.do_sample(now)  # the first sample folds what the run staged

    def count(events, per):
        return audit.count_events(lambda: plugin.do_sample(now), events,
                                  repro_only=True, per_module=per)
    return {"self_read": _table(count)}


def measure() -> dict:
    units = {"stored_set": stored_set(), **sampler_ticks(),
             "cohort_member": cohort_member(), **flush_batches(),
             **torn_update(), **self_read()}
    return {"python": "%d.%d" % sys.version_info[:2], "units": units}


def main() -> int:
    from repro.core import sanitize

    if sanitize.enabled():
        print("the sanitizer adds calls: run without REPRO_SANITIZE")
        return 2
    got = measure()
    text = json.dumps(got, indent=1, sort_keys=True) + "\n"
    committed = os.path.join(ROOT, "BENCH_costs.json")
    try:
        with open(committed, encoding="utf-8") as f:
            want = f.read()
    except FileNotFoundError:
        want = text
    if text != want:
        new = os.path.splitext(OUT_PATH)[0] + ".new.json"
        with open(new, "w", encoding="utf-8") as f:
            f.write(text)
        old = json.loads(want)["units"]
        for unit, table in got["units"].items():
            if old.get(unit) != table:
                print(f"{unit}: total {old.get(unit, {}).get('total')} -> "
                      f"{table['total']}")
        print(f"FAIL: counts differ from {committed}; wrote {new}")
        return 1
    with open(OUT_PATH, "w", encoding="utf-8") as f:
        f.write(text)
    s = got["units"]["stored_set"]
    print(f"stored set: {s['python_calls']} Python calls, "
          f"obs/registry.py {s['modules'].get('obs/registry.py')}")
    print(f"wrote {OUT_PATH}\nOK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
