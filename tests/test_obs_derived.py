"""Counting each thing once changes no number a surface reads.

A daemon reads most of its counts from state the pipeline already keeps
(plugins' sample counts, cohort rows, endpoints' frames and bytes,
producers' update stats, store rows) and folds constant-cost sampling
and per-row flush latencies into its histograms in bulk.  Both are
pure bookkeeping changes, so a world run with them must read exactly
what the same world read when every event called its own instrument:
every counter, and every histogram bucket for bucket with ``sum``,
``min`` and ``max`` to the bit.

The reference is the per-item implementation itself: ``OBS_DIGEST``
is the hash this world gave when each event observed or incremented
its instrument one at a time.  The world exercises every place a
derived or bulk count can drift from the per-item one: cohort sweeps
with scalar fallbacks interleaved (``ldmsd_self`` holds the one worker
at the cohort's tick), a daemon in two cohorts at two costs, reads in
the middle of the run, a stopped and restarted sampler, a producer
removed and a connection dropped and redialled, a row routed to two
stores and rows no store takes, and control commands.
"""

import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.plugins  # noqa: F401  (registers plugins)
from repro.core import Ldmsd, SimEnv
from repro.core.control import ControlChannel
from repro.obs import Histogram
from repro.obs.registry import DEFAULT_LATENCY_EDGES
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport

#: ``world_digest()`` of the per-item implementation, less the names an
#: ``ldmsd_self`` sample used to bind on ``n2`` and ``agg`` by reading
#: them (``query.*``, ``faults.injected``, ``sanitizer.violations``,
#: ``watchdog.promotions``; ``lookup.rtt`` / ``update.rtt`` on ``n2``),
#: each of which read zero there.
OBS_DIGEST = "46c63b2a9c6455df64e11674a66e5956956e7550aba4e63e82964b5d74bb734c"


def _daemon(env, fabric, name, **kw):
    return Ldmsd(name, env=env, transports={
        "sock": SimTransport(fabric, "sock", node_id=name)}, **kw)


def _surfaces(daemons) -> list:
    """Every read surface of every daemon: ``stats()["obs"]`` and the
    full ``prof`` histogram dumps (bucket vectors included)."""
    return [[d.name, d.stats()["obs"], d.obs.dump_histograms()]
            for d in daemons]


def world_digest() -> str:
    eng = Engine()
    env = SimEnv(eng)
    fabric = SimFabric(eng)
    samplers = []
    for i in range(24):
        d = _daemon(env, fabric, f"n{i}", mem="64kB", workers=1)
        d.load_sampler("synthetic", instance=f"n{i}/syn", component_id=i + 1,
                       num_metrics=10,
                       pattern="counter" if i % 2 else "constant")
        d.start_sampler(f"n{i}/syn", interval=1.0)
        d.listen("sock", f"n{i}:411")
        samplers.append(d)
    # Two cohorts at two costs on one daemon.
    samplers[1].load_sampler("synthetic", instance="n1/wide", component_id=2,
                             num_metrics=40, pattern="counter")
    samplers[1].start_sampler("n1/wide", interval=1.0)
    # ldmsd_self holds the only worker when the cohort ticks: that
    # member falls back to a scalar firing, interleaved with its sweeps.
    samplers[2].load_sampler("ldmsd_self", instance="n2/self", component_id=3)
    samplers[2].start_sampler("n2/self", interval=1.0)
    # A sampler no cohort takes: every sample is scalar.
    samplers[3].load_sampler("synthetic", instance="n3/rnd", component_id=4,
                             num_metrics=6, pattern="random")
    samplers[3].start_sampler("n3/rnd", interval=0.5)

    agg = _daemon(env, fabric, "agg", mem="1MB", workers=2)
    # Synthetic rows go to two stores; n2's ldmsd_self rows to none.
    agg.add_store("memory", schema="synthetic")
    agg.add_store("memory", schema="synthetic")
    agg.add_store("memory", schema="no_such_schema")
    agg.load_sampler("ldmsd_self", instance="agg/self", component_id=99)
    agg.start_sampler("agg/self", interval=0.7)
    for i, d in enumerate(samplers):
        agg.add_producer(d.name, "sock", f"{d.name}:411", interval=1.0)
    ctl = ControlChannel(agg)

    out = []
    eng.run(until=3.3)
    out.append(_surfaces([agg, samplers[1], samplers[2]]))  # mid-run reads
    samplers[5].stop_sampler("n5/syn")
    ctl.handle("stats")
    ctl.handle("bogus verb")
    eng.run(until=5.1)
    samplers[5].start_sampler("n5/syn", interval=1.0)
    agg.remove_producer("n6")
    agg.producers["n7"].endpoint.close()  # redialled after backoff
    eng.run(until=9.6)
    out.append(_surfaces([agg, *samplers]))
    ctl.handle("prof")
    eng.run(until=31.0)
    out.append(_surfaces([agg, *samplers]))
    for d in (agg, *samplers):
        d.shutdown()
    out.append(_surfaces([agg]))
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def test_every_surface_reads_what_per_item_instruments_read():
    assert world_digest() == OBS_DIGEST


# -- bulk observes fold exactly like one observe per value -------------------


def _state(h: Histogram):
    return (h.count, h.sum, h.min, h.max, h.buckets, h.dump())


@pytest.mark.parametrize("runs", [
    [(2e-5, 1)], [(2e-5, 511)], [(2e-5, 512)], [(2e-5, 513)],
    [(3e-4, 700), (1.5e-5, 900), (7.0, 3)], [(1e-3, 2000)],
])
def test_observe_n_is_k_single_observes(runs):
    one, bulk = Histogram("a"), Histogram("b")
    for value, k in runs:
        for _ in range(k):
            one.observe(value)
        bulk.observe_n(value, k)
    assert _state(bulk) == _state(one)


@pytest.mark.parametrize("sizes", [[1], [511, 1], [600], [100, 700, 30, 512]])
def test_observe_many_is_one_observe_each(sizes):
    rng = np.random.default_rng(7)
    one, bulk = Histogram("a"), Histogram("b")
    for n in sizes:
        values = rng.exponential(1e-3, n).tolist()
        for v in values:
            one.observe(v)
        bulk.observe_many(values)
        # A read between batches folds the remainder on both.
        assert _state(bulk) == _state(one)
    bulk.observe_many([])
    assert _state(bulk) == _state(one)


# -- a fold gives what numpy's float64 fold gave, to the bit ----------------


def numpy_fold(edges: tuple, pending: list) -> tuple:
    """The fold as written with numpy, kept as the reference: (buckets,
    count, sum, min, max) of one batch."""
    n = len(pending)
    arr = np.fromiter(pending, np.float64, n)
    idx = np.asarray(edges).searchsorted(arr, "right")
    return (np.bincount(idx, minlength=len(edges) + 1).tolist(), n,
            0.0 + float(arr.sum()), float(arr.min()), float(arr.max()))


_VALUES = st.one_of(
    st.integers(-10**9, 10**12),
    st.sampled_from(DEFAULT_LATENCY_EDGES),
    st.sampled_from((0.0, -0.0)),
    # twelve decades, 1e-7 to 1e5 s, either sign
    st.builds(lambda m, e, neg: (-m if neg else m) * 10.0**e,
              st.floats(1.0, 10.0, exclude_max=True), st.integers(-7, 4),
              st.booleans()),
)
_BATCHES = st.integers(1, 512).flatmap(
    lambda n: st.lists(_VALUES, min_size=n, max_size=n))


def _both_zeros(batch: list, extreme: float) -> bool:
    """Whether ``extreme`` is a zero the batch holds with both signs."""
    signs = {math.copysign(1.0, v) for v in map(float, batch) if v == 0.0}
    return extreme == 0.0 and len(signs) == 2


def _check_fold(batch: list) -> None:
    h = Histogram("h")
    h.observe_many(batch)
    buckets, count, total, lo, hi = numpy_fold(DEFAULT_LATENCY_EDGES, batch)
    assert h.count == count  # folds: ``buckets`` alone reads the last fold
    assert h.buckets == buckets
    # Not builtin sum(): it compensates on Python 3.12 and later.
    assert h.sum.hex() == total.hex()
    # Which zero numpy's min or max returns when a batch's extreme is
    # 0.0 and -0.0 both follows the order its SIMD lanes visit the
    # values, not the values: there the two need only be equal.
    for got, want in ((h.min, lo), (h.max, hi)):
        if _both_zeros(batch, want):
            assert got == want
        else:
            assert got.hex() == want.hex()


@settings(max_examples=75, deadline=None)
@given(_BATCHES)
@example([-0.0] * 3)
@example([-0.0] * 9)
def test_fold_is_numpys_float64_fold(batch):
    _check_fold(batch)


def test_fold_is_numpys_at_every_batch_size():
    """Each size from 1 to 512 once: every shape of numpy's pairwise
    split.  Three decades of either sign, so that an add in another
    order changes low bits."""
    rng = random.Random(48)
    for n in range(1, 513):
        _check_fold([rng.choice(DEFAULT_LATENCY_EDGES) if rng.random() < 0.1
                     else rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3.0, 0.0)
                     for _ in range(n)])


if __name__ == "__main__":
    print(world_digest())
