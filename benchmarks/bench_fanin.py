"""§IV-A fan-in limits by transport + §IV-D aggregator utilization.

Two tiers: a scaled (capacities / 64) three-transport smoke that keeps
the paper's cross-transport ordering cheap to check, and a full-scale
sock sweep — the engine fast paths (bare timers, coalesced updates,
batched flush, GC pause) make a 9,216-sampler sweep tractable in one
process, so the knee is found at the real profile constant rather than
projected from scaled units.
"""

from repro.experiments.fanin import main, max_fanin, sweep_transport
from repro.transport.base import get_transport_profile

SMOKE_SCALE = 64


def test_fanin_sweep_scaled(bench_once):
    results = bench_once(main, scale=SMOKE_SCALE)
    sock_knee = max_fanin(results["sock"]) * SMOKE_SCALE
    rdma_knee = max_fanin(results["rdma"]) * SMOKE_SCALE
    ugni_knee = max_fanin(results["ugni"]) * SMOKE_SCALE
    # Paper: ~9,000:1 for sock and IB RDMA; >15,000:1 for ugni.
    assert 8000 <= sock_knee <= 10000
    assert 8000 <= rdma_knee <= 10000
    assert ugni_knee > 15000
    assert ugni_knee > sock_knee
    # Knees coincide with the profile capacities.
    assert sock_knee == get_transport_profile("sock").max_connections
    # Aggregator utilization: first-level Chama aggregator well under 1
    # core; BW configuration hotter but sub-core in our model.
    chama, bw = results["utilization"]
    assert chama.core_pct < 1.0
    assert bw.core_pct < 100.0


def test_fanin_sweep_sharded_matches_inline(bench_once):
    """``REPRO_SHARDS`` fan-out: the scaled sock sweep run across two
    forked shard workers returns point-for-point the same dataclasses
    as the inline sweep — the disjoint-world byte-identity contract."""
    sharded = bench_once(sweep_transport, "sock", scale=SMOKE_SCALE,
                         nshards=2)
    inline = sweep_transport("sock", scale=SMOKE_SCALE)
    assert sharded == inline
    assert max_fanin(sharded) * SMOKE_SCALE == \
        get_transport_profile("sock").max_connections


def test_fanin_sock_full_scale(bench_once):
    """Full-scale sock sweep: knee at the unscaled 9,216 capacity."""
    points = bench_once(sweep_transport, "sock")
    knee = max_fanin(points)
    assert knee == get_transport_profile("sock").max_connections
    past = max(points, key=lambda p: p.n_samplers)
    assert past.completeness < 0.99
    assert past.refused > 0
    assert past.connected == knee  # surplus producers refused at capacity
