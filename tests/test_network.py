"""Tests for the network models: torus, congestion, flows, fat tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network import (
    DIR_INDEX,
    DIRS,
    FatTree,
    FlowEngine,
    GeminiTorus,
    delivered_bandwidth,
    stall_fraction,
)
from repro.util.errors import SimulationError


@pytest.fixture
def torus():
    return GeminiTorus(dims=(8, 6, 4))


class TestTorusGeometry:
    def test_counts(self, torus):
        assert torus.n_geminis == 8 * 6 * 4
        assert torus.n_nodes == 2 * torus.n_geminis

    def test_coord_roundtrip(self, torus):
        for g in range(torus.n_geminis):
            assert torus.gemini_index(torus.coord(g)) == g

    def test_bad_coord_rejected(self, torus):
        with pytest.raises(ValueError):
            torus.gemini_index((8, 0, 0))

    def test_nodes_share_gemini(self, torus):
        assert torus.node_gemini(0) == torus.node_gemini(1) == 0
        assert torus.gemini_nodes(3) == [6, 7]

    def test_neighbor_wraps(self, torus):
        g = torus.gemini_index((7, 0, 0))
        assert torus.coord(torus.neighbor(g, "X+")) == (0, 0, 0)
        g0 = torus.gemini_index((0, 0, 0))
        assert torus.coord(torus.neighbor(g0, "X-")) == (7, 0, 0)

    def test_neighbor_inverse(self, torus):
        g = torus.gemini_index((3, 2, 1))
        for dim in range(3):
            plus = torus.neighbor(g, dim * 2)
            assert torus.neighbor(plus, dim * 2 + 1) == g

    def test_media_map(self, torus):
        mm = torus.media_map()
        assert set(mm) == set(DIRS)
        assert mm["X+"] == mm["X-"]

    def test_capacity_by_direction(self, torus):
        caps = torus.capacities()
        assert caps.shape == (6,)
        assert caps[DIR_INDEX["Y+"]] != caps[DIR_INDEX["X+"]]


class TestTorusRouting:
    def test_empty_route_same_gemini(self, torus):
        assert torus.route(5, 5) == []

    def test_route_reaches_destination(self, torus):
        src = torus.gemini_index((0, 0, 0))
        dst = torus.gemini_index((5, 4, 3))
        path = torus.route(src, dst)
        cur = src
        for gem, direction in path:
            assert gem == cur
            cur = torus.neighbor(gem, direction)
        assert cur == dst

    def test_dimension_order(self, torus):
        src = torus.gemini_index((0, 0, 0))
        dst = torus.gemini_index((2, 2, 2))
        dims = [d // 2 for _, d in torus.route(src, dst)]
        assert dims == sorted(dims)  # X hops, then Y, then Z

    def test_shortest_wrap_direction(self, torus):
        # 0 -> 7 in a size-8 dimension: one hop backwards (X-).
        src = torus.gemini_index((0, 0, 0))
        dst = torus.gemini_index((7, 0, 0))
        path = torus.route(src, dst)
        assert len(path) == 1
        assert path[0][1] == DIR_INDEX["X-"]

    def test_route_deterministic(self, torus):
        assert torus.route(3, 100) == torus.route(3, 100)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 8 * 6 * 4 - 1), st.integers(0, 8 * 6 * 4 - 1))
    def test_route_length_equals_hop_count(self, a, b):
        torus = GeminiTorus(dims=(8, 6, 4))
        assert len(torus.route(a, b)) == torus.hop_count(a, b)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 8 * 6 * 4 - 1), st.integers(0, 8 * 6 * 4 - 1))
    def test_hop_count_within_torus_diameter(self, a, b):
        torus = GeminiTorus(dims=(8, 6, 4))
        assert torus.hop_count(a, b) <= 8 // 2 + 6 // 2 + 4 // 2


class TestCongestionModel:
    def test_zero_load_zero_stall(self):
        assert stall_fraction(0.0, 1e9) == 0.0

    def test_monotone_in_load(self):
        loads = np.linspace(0, 1e10, 50)
        fracs = stall_fraction(loads, 1e9)
        assert (np.diff(fracs) >= 0).all()

    def test_bounded_below_one(self):
        assert stall_fraction(1e15, 1e9) < 1.0

    def test_saturation_point(self):
        # u=1 -> 1/3 by construction.
        assert stall_fraction(1e9, 1e9) == pytest.approx(1 / 3)

    def test_delivered_conserves_light_load(self):
        assert delivered_bandwidth(1e8, 1e9) == 1e8

    def test_delivered_caps_at_efficiency(self):
        assert delivered_bandwidth(1e12, 1e9) == pytest.approx(0.95e9)

    def test_zero_capacity(self):
        assert stall_fraction(5.0, 0.0) == 0.0


class TestFlowEngine:
    def test_load_added_along_route(self, torus):
        eng = FlowEngine(torus)
        fid = eng.add_flow(0, 100, 1e9)
        hops = eng._flow_objs[fid].hops
        assert len(hops) == torus.hop_count(torus.node_gemini(0),
                                            torus.node_gemini(100))
        for gem, d in hops:
            assert eng.load[gem, d] == 1e9

    def test_remove_restores_zero(self, torus):
        eng = FlowEngine(torus)
        fid = eng.add_flow(0, 100, 1e9)
        eng.remove_flow(fid)
        assert eng.load.max() == 0.0

    def test_double_remove_rejected(self, torus):
        eng = FlowEngine(torus)
        fid = eng.add_flow(0, 100, 1e9)
        eng.remove_flow(fid)
        with pytest.raises(SimulationError):
            eng.remove_flow(fid)

    def test_negative_rate_rejected(self, torus):
        with pytest.raises(SimulationError):
            FlowEngine(torus).add_flow(0, 1, -5.0)

    def test_flows_stack(self, torus):
        eng = FlowEngine(torus)
        eng.add_flow(0, 100, 1e9)
        eng.add_flow(0, 100, 1e9)
        assert eng.load.max() == 2e9

    def test_accumulate_traffic(self, torus):
        eng = FlowEngine(torus)
        eng.add_flow(0, 100, 1e9)
        eng.accumulate(10.0)
        hops = len(torus.route(torus.node_gemini(0), torus.node_gemini(100)))
        assert eng.traffic.sum() == pytest.approx(1e9 * 10 * hops)

    def test_accumulate_to_clock(self, torus):
        clock = {"t": 0.0}
        eng = FlowEngine(torus, clock=lambda: clock["t"])
        eng.add_flow(0, 100, 1e9)
        clock["t"] = 5.0
        eng.accumulate_to()
        before = eng.traffic.sum()
        assert before > 0
        # Mutations auto-integrate first.
        clock["t"] = 10.0
        eng.add_flow(2, 50, 1e9)
        assert eng.traffic.sum() == pytest.approx(2 * before)

    def test_negative_dt_rejected(self, torus):
        with pytest.raises(SimulationError):
            FlowEngine(torus).accumulate(-1.0)

    def test_gpcdr_mirroring(self, torus):
        from repro.nodefs.gpcdr import GpcdrModel

        eng = FlowEngine(torus)
        gp = GpcdrModel(clock=lambda: 0.0, media=torus.media_map())
        eng.attach_gpcdr(0, gp)
        eng.add_flow(0, torus.nodes_per_gemini * 3, 1e9)  # leaves gemini 0
        eng.accumulate(10.0)
        assert sum(gp.traffic.values()) > 0

    def test_latency_increases_under_congestion(self, torus):
        eng = FlowEngine(torus)
        base = eng.latency(0, 100, 1024)
        eng.add_flow(0, 100, 50e9)  # saturate the path
        assert eng.latency(0, 100, 1024) > base

    def test_utilization_view(self, torus):
        eng = FlowEngine(torus)
        eng.add_flow(0, 100, 4.68e9)  # one cable-capacity flow
        u = eng.utilization()
        assert u.max() == pytest.approx(1.0, rel=0.01)


class TestFatTree:
    def test_same_leaf_no_uplink(self):
        ft = FatTree(n_nodes=36, radix=18, uplinks=4)
        ft.add_flow(0, 1, 1e9)
        assert ft.uplink_up.sum() == 0

    def test_cross_leaf_uses_uplink(self):
        ft = FatTree(n_nodes=36, radix=18, uplinks=4)
        ft.add_flow(0, 20, 1e9)
        assert ft.uplink_up.sum() == 1e9
        assert ft.uplink_down.sum() == 1e9

    def test_remove_flow(self):
        ft = FatTree(n_nodes=36, radix=18, uplinks=4)
        fid = ft.add_flow(0, 20, 1e9)
        ft.remove_flow(fid)
        assert ft.access_up.sum() == 0
        assert ft.uplink_up.sum() == 0

    def test_deterministic_uplink_choice(self):
        ft = FatTree(n_nodes=72, radix=18, uplinks=4)
        assert ft._uplink_for(0, 3) == ft._uplink_for(0, 3)

    def test_path_stall_grows_with_load(self):
        ft = FatTree(n_nodes=36, radix=18, uplinks=4)
        s0 = ft.path_stall(0, 20)
        ft.add_flow(0, 20, 8e9)
        assert ft.path_stall(0, 20) > s0

    def test_latency_cross_leaf_higher(self):
        ft = FatTree(n_nodes=36, radix=18, uplinks=4)
        assert ft.latency(0, 20, 1024) > ft.latency(0, 1, 1024)

    def test_bad_node_rejected(self):
        ft = FatTree(n_nodes=36)
        with pytest.raises(SimulationError):
            ft.leaf_of(36)
