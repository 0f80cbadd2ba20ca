"""Tests for the application models and monitoring specs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import (
    Adagio,
    Cth,
    ImbAllreduce,
    LinkTest,
    Milc,
    MiniGhost,
    MonitoringSpec,
    Nalu,
    NoiseModel,
    Psnap,
)
from repro.util.rngtools import spawn_rng


class TestMonitoringSpec:
    def test_unmonitored(self):
        spec = MonitoringSpec.unmonitored()
        assert not spec.monitored
        assert spec.effective_cost == 0.0
        assert spec.active_plugin_costs == ()

    def test_single_event_cost(self):
        spec = MonitoringSpec.interval_1s()
        assert spec.effective_cost == pytest.approx(400e-6)

    def test_chama_plugin_mix(self):
        spec = MonitoringSpec.chama_plugins()
        assert len(spec.active_plugin_costs) == 7
        half = MonitoringSpec.chama_plugins(metric_fraction=0.5)
        assert len(half.active_plugin_costs) == 4
        # The cheap plugins are the ones kept.
        assert max(half.active_plugin_costs) < max(spec.active_plugin_costs)

    def test_without_network(self):
        spec = MonitoringSpec.interval_1s().without_network()
        assert spec.monitored and not spec.aggregation

    def test_labels(self):
        assert MonitoringSpec.unmonitored().label() == "unmonitored"
        assert MonitoringSpec.interval_60s().label() == "60s"
        assert "no net" in MonitoringSpec.interval_1s().without_network().label()


class TestNoiseModel:
    def test_unmonitored_no_fires(self):
        rng = spawn_rng(1, "nm")
        nm = NoiseModel(MonitoringSpec.unmonitored(), 4, rng)
        assert nm.fires_in(0.0, 100.0).sum() == 0

    def test_fire_count_matches_rate(self):
        rng = spawn_rng(1, "nm")
        nm = NoiseModel(MonitoringSpec.interval_1s(), 10, rng)
        fires = nm.fires_in(0.0, 100.0)
        assert (fires == 100).all()

    def test_synchronized_zero_offsets(self):
        rng = spawn_rng(1, "nm")
        nm = NoiseModel(MonitoringSpec(interval=1.0, synchronized=True), 5, rng)
        assert (nm.offsets == 0).all()

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.1, 50.0), st.floats(0.0, 100.0), st.floats(0.01, 200.0))
    def test_fires_in_window_additive(self, interval, t0, width):
        rng = spawn_rng(3, "nm")
        nm = NoiseModel(MonitoringSpec(interval=interval), 4, rng)
        mid = t0 + width / 2
        t1 = t0 + width
        total = nm.fires_in(t0, t1)
        split = nm.fires_in(t0, mid) + nm.fires_in(mid, t1)
        assert (total == split).all()


class TestPsnap:
    def test_histogram_total_exact(self):
        p = Psnap(n_nodes=4, iterations=10_000, tasks_per_node=8)
        rng = spawn_rng(4, "psnap")
        h = p.run_histogram(MonitoringSpec.interval_1s(), rng)
        assert h.total == p.total_loops

    def test_monitored_tail_exceeds_unmonitored(self):
        p = Psnap(n_nodes=16, iterations=100_000)
        rng = spawn_rng(5, "psnap")
        nm = p.run_histogram(MonitoringSpec.unmonitored(), rng)
        hm = p.run_histogram(MonitoringSpec.interval_1s(), rng)
        assert hm.tail_fraction(200.0) > nm.tail_fraction(200.0)

    def test_tail_fraction_matches_expectation(self):
        p = Psnap(n_nodes=64, iterations=200_000)
        rng = spawn_rng(6, "psnap")
        spec = MonitoringSpec.interval_1s()
        hm = p.run_histogram(spec, rng, hi_us=600.0)
        nm = p.run_histogram(MonitoringSpec.unmonitored(), rng, hi_us=600.0)
        measured = hm.tail_fraction(190.0) - nm.tail_fraction(190.0)
        assert measured == pytest.approx(
            p.expected_sampler_tail_fraction(spec), rel=0.3)

    def test_delays_bounded_by_plugin_cost(self):
        p = Psnap(n_nodes=8, iterations=50_000, bg_rate=0.0)
        rng = spawn_rng(7, "psnap")
        h = p.run_histogram(MonitoringSpec.interval_1s(), rng, hi_us=1000.0)
        # No mass beyond loop + 1.04 * cost (+jitter).
        assert h.tail_count(100 + 430) == 0

    def test_runtime_property(self):
        p = Psnap(loop_us=100.0, iterations=1_000_000)
        assert p.runtime == pytest.approx(100.0)


ALL_APPS = [Milc, MiniGhost, ImbAllreduce, Nalu, Cth, Adagio]


class TestBspApps:
    @pytest.mark.parametrize("App", ALL_APPS)
    def test_runs_and_reports_phases(self, App):
        app = App(n_nodes=32)
        rng = spawn_rng(8, "bsp", App.__name__)
        res = app.run(MonitoringSpec.interval_1s(), rng)
        assert res.wall_time > 0
        assert res.iterations == app.iterations
        for phase in app.phase_fractions:
            assert phase in res.phases

    @pytest.mark.parametrize("App", ALL_APPS)
    def test_monitoring_effect_is_small(self, App):
        """<1% average slowdown (the §III-B requirement)."""
        app = App(n_nodes=64)
        rng = spawn_rng(9, "bsp", App.__name__)
        nm = np.mean([app.run(MonitoringSpec.unmonitored(), rng).wall_time
                      for _ in range(6)])
        hm = np.mean([app.run(MonitoringSpec.interval_1s(), rng).wall_time
                      for _ in range(6)])
        assert hm / nm < 1.02

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            MiniGhost(warp_factor=9)

    def test_perturbed_iterations_zero_unmonitored(self):
        app = Cth(n_nodes=16, iterations=50)
        rng = spawn_rng(10, "bsp")
        res = app.run(MonitoringSpec.unmonitored(), rng)
        assert res.perturbed_iterations == 0

    def test_sync_sampling_bounds_perturbation(self):
        app = MiniGhost(n_nodes=128)
        rng = spawn_rng(11, "bsp")
        sync = np.mean([app.run(MonitoringSpec(interval=1.0, synchronized=True),
                                rng).perturbed_iterations for _ in range(4)])
        async_ = np.mean([app.run(MonitoringSpec(interval=1.0), rng)
                          .perturbed_iterations for _ in range(4)])
        assert sync <= async_

    def test_no_net_removes_comm_overhead(self):
        app = ImbAllreduce(n_nodes=64)
        assert app.net_overhead(MonitoringSpec.interval_1s()) > 0
        assert app.net_overhead(
            MonitoringSpec.interval_1s().without_network()) == 0
        assert app.net_overhead(MonitoringSpec.unmonitored()) == 0

    def test_ensemble_size(self):
        app = Adagio(n_nodes=16)
        rng = spawn_rng(12, "bsp")
        runs = app.ensemble(MonitoringSpec.unmonitored(), rng, repeats=4)
        assert len(runs) == 4

    def test_adagio_has_io_phase(self):
        app = Adagio(n_nodes=16)
        rng = spawn_rng(13, "bsp")
        res = app.run(MonitoringSpec.unmonitored(), rng)
        assert res.phases["io"] > 0


class TestLinkTest:
    def test_message_time_scale(self):
        lt = LinkTest()
        rng = spawn_rng(14, "lt")
        res = lt.run(MonitoringSpec.unmonitored(), rng)
        per_msg = res.phases["per_message"]
        # 8 kB / 4.68 GB/s + 1.4 us ~ 3.2 us, plus jitter.
        assert 2e-6 < per_msg < 6e-6

    def test_monitoring_shift_is_negligible(self):
        """Paper: difference 'not statistically significant' (20 ns)."""
        lt = LinkTest()
        rng = spawn_rng(15, "lt")
        nm = np.mean([lt.run(MonitoringSpec.unmonitored(), rng)
                      .phases["per_message"] for _ in range(5)])
        hm = np.mean([lt.run(MonitoringSpec.interval_1s(), rng)
                      .phases["per_message"] for _ in range(5)])
        assert abs(hm - nm) / nm < 0.05
